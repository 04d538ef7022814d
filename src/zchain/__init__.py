"""Exact-arithmetic model structure on bounded chain complexes over Z.

The package classifies chain maps (cofibrations, fibrations, weak
equivalences), produces both functorial factorizations through group-ring
resolutions, solves lifting squares constructively, and certifies cofibrant
generation, properness, and the pushout-product axiom, all in exact
integer arithmetic on finitely generated abelian groups.
"""

from .errors import (
    CertificateFailed,
    DimensionMismatch,
    DocumentError,
    IllDefined,
    InfiniteGroup,
    NotAChainMap,
    NotAComplex,
    NotAcyclic,
    NotAcyclicFibration,
    NotASplitting,
    NotCofibration,
    NotContractible,
    NotFree,
    NotLiftable,
    NotMonoNotEpi,
    PreconditionFailed,
    RankCapExceeded,
    ZchainError,
)
from .intlinalg import IntMatrix, SnfResult, hnf, kernel_basis, snf, solve
from .abelian import (
    DirectSum,
    FgAbGroup,
    GroupHom,
    cokernel,
    free_group,
    identity_hom,
    is_isomorphic,
    kernel,
    mk_group,
    mk_hom,
    tensor_group,
    trivial_group,
    zero_hom,
)
from .complexes import (
    ChainComplex,
    ChainMap,
    HomologyClassData,
    block_complex,
    cone,
    disk,
    dsum_complex,
    identity_chain_map,
    induced_map,
    is_quasi_iso,
    mk_chain_map,
    mk_complex,
    sphere,
    suspend,
    tensor,
    tensor_map,
    zero_chain_map,
    zero_complex,
)
from .modelcls import (
    FreeSplitting,
    Homotopy,
    MapClassification,
    classify,
    is_contractible,
    split_free_complex,
)
from .groupring import I2Group, I2_map, IGroup, I_map, build_I, build_I2
from .factor import Factorization, factor_acf_fib, factor_cof_afb, gamma, naturality_map
from .lifting import (
    Extension,
    LiftProblem,
    build_T,
    lift_against_acyclic_fibration,
    lift_from_splitting,
    nullhomotopy,
    rlp_disk,
    rlp_sphere,
    section_over_contractible,
    solve_lift,
    split_ses,
)
from .monoidal_proper import (
    ProperReport,
    PullbackData,
    PushoutData,
    PushoutProductCert,
    check_proper,
    pullback,
    pushout,
    pushout_product,
)
from .verify import run_verify

__version__ = "0.1.0"
