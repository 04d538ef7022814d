"""Randomized end-to-end verification of the model-structure axioms.

Each axiom is a draw and a check: the draw builds an instance from a
random.Random, and the check returns None when the instance satisfies the
axiom or a one-line failure.  The acceptance suite runs the same checks on
its own, larger draws.

Each axiom runs a fixed number of independent cases; case k of an axiom
draws from a generator seeded by (seed, axiom, k), so reports are
reproducible byte for byte.  A failing case stops its axiom and records a
counterexample certificate; the overall status is "pass" only if every case
of every axiom passed.
"""

from __future__ import annotations

from .errors import ZchainError
from .abelian import cokernel as group_cokernel, kernel as group_kernel, preimage
from .complexes import comparison_degrees, cone, induced_map, is_quasi_iso
from .factor import factor_acf_fib, factor_cof_afb, gamma
from .intlinalg import IntMatrix, inverse_unimodular, kernel_basis, snf, hnf
from .lifting import LiftProblem, rlp_disk, rlp_sphere, solve_lift
from .modelcls import classify, is_contractible, split_free_complex
from .monoidal_proper import check_proper, pushout, pushout_product
from .randgen import (
    random_acyclic_fibration,
    random_cycle,
    random_element,
    random_finite_chain_map,
    random_finite_complex,
    random_free_cofibration,
    random_free_complex,
    random_lift_square,
    random_map_out,
    random_surjective_non_weq,
    rng_for,
)


def draw_matrix(rng):
    m = rng.randrange(0, 9)
    n = rng.randrange(0, 9)
    return IntMatrix(m, n, [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)])


def check_snf_hnf(mat):
    """Both normal forms with unimodular transforms, a positive divisibility
    chain, and a saturated kernel basis of the right rank."""
    res = snf(mat)
    if res.U @ mat @ res.V != res.D:
        return "transform identity failed"
    h, u = hnf(mat)
    if u @ mat != h:
        return "row transform identity failed"
    for t in (res.U, res.V, u):
        try:
            inverse_unimodular(t)
        except ValueError:
            return "transform is not unimodular"
    diag = [d for d in res.diagonal if d]
    if (not res.D.is_diagonal() or any(d < 0 for d in diag)
            or any(b % a for a, b in zip(diag, diag[1:]))):
        return "divisibility chain failed"
    k = kernel_basis(mat)
    for j in range(k.cols):
        if any(mat.mul_vec(k.col(j))):
            return "kernel vector not annihilated"
    if k.cols != mat.cols - res.rank:
        return "kernel rank mismatch"
    if k.cols and any(d != 1 for d in snf(k).diagonal[: k.cols]):
        return "kernel basis not saturated"
    return None


def check_factorization(f):
    fa = factor_acf_fib(f)
    if (fa.right @ fa.left) != f:
        return "first factorization composite failed"
    if not fa.left_classification.acyclic_cofibration or not fa.right_classification.fibration:
        return "first factorization classification failed"
    fc = factor_cof_afb(f)
    if (fc.right @ fc.left) != f:
        return "second factorization composite failed"
    if not fc.left_classification.cofibration or not fc.right_classification.acyclic_fibration:
        return "second factorization classification failed"
    return None


def check_replacement(b):
    g, p = gamma(b)
    if not g.is_degreewise_free():
        return "replacement is not degreewise free"
    cls = classify(p)
    if not cls.surjective:
        return "projection is not surjective"
    for n in comparison_degrees(p):
        if not induced_map(p, n).is_iso():
            return f"homology comparison fails in degree {n}"
    return None


def check_lifting(i, q, f, g):
    h = solve_lift(LiftProblem(i=i, q=q, f=f, g=g))
    if (q @ h) != g or (h @ i) != f:
        return "lift does not satisfy the square identities"
    return None


def check_generating_instances(rng, q):
    """The acyclic fibration q lifts against every generating cofibration:
    per degree, a disk instance and a sphere instance from a boundary pair,
    drawn here from rng."""
    a, b = q.src, q.dst
    for n in sorted(set(a.window(0)) | set(b.window(0))):
        bp = random_element(rng, b.group(n + 1))
        if rlp_disk(q, n, bp) is None:
            return f"surjectivity instance failed in degree {n}"
        a0 = random_element(rng, a.group(n + 1))
        cyc = a.group(n).canon(a.diff(n + 1).matrix.mul_vec(a0))
        bp2 = b.group(n + 1).canon(q.component(n + 1).matrix.mul_vec(a0))
        z = random_cycle(rng, b, n + 1)
        bp2 = b.group(n + 1).canon(tuple(x + y for x, y in zip(bp2, z)))
        if rlp_sphere(q, n, cyc, bp2) is None:
            return f"cycle instance failed in degree {n}"
    return None


def check_failing_instance(proj):
    """A surjection that is not a quasi-isomorphism fails to lift against
    some generating cofibration."""
    witness = _failing_instance(proj)
    if witness is None:
        return "no failing instance found for a non-quasi-isomorphism"
    n, cyc, bp = witness
    if rlp_sphere(proj, n, cyc, bp) is not None:
        return "claimed counterexample instance was solvable"
    return None


def _failing_instance(q):
    """Search homology generators for an instance certifying RLP failure.

    A nonzero class killed by the induced map gives an unsolvable cycle
    instance directly; a class not hit gives one through a chain-level
    preimage of its representative.
    """
    a, b = q.src, q.dst
    for n in comparison_degrees(q):
        hm = induced_map(q, n)
        ha = a.homology(n)
        hb = b.homology(n)
        ker, incl = group_kernel(hm)
        for j in range(ker.ngens):
            coords = ha.group.canon(incl.matrix.col(j))
            if not any(coords):
                continue
            cyc = ha.lift(coords)
            qc = b.group(n).canon(q.component(n).matrix.mul_vec(cyc))
            bp = preimage(b.diff(n + 1), IntMatrix.from_cols([qc]))
            if bp is not None:
                return n, a.group(n).canon(cyc), bp.col(0)
        ck, proj = group_cokernel(hm)
        for j in range(hb.group.ngens):
            if ck.contains_zero(proj.matrix.col(j)):
                continue
            target = hb.lift(tuple(1 if t == j else 0 for t in range(hb.group.ngens)))
            astar = preimage(q.component(n), IntMatrix.from_cols([b.group(n).canon(target)]))
            if astar is None:
                continue
            cyc = a.group(n - 1).canon(a.diff(n).matrix.mul_vec(astar.col(0)))
            return n - 1, cyc, b.group(n).zero()
    return None


def draw_pushout_square(rng, max_order, lo, hi):
    """A cofibration and a weak equivalence out of one complex."""
    ps = random_finite_complex(rng, max_order=max_order, lo=lo, hi=hi, with_pieces=True)
    b = random_finite_complex(rng, max_order=max_order, lo=lo, hi=hi)
    c = random_finite_complex(rng, max_order=max_order, lo=lo, hi=hi)
    i = factor_cof_afb(random_map_out(rng, ps, b)).left
    w = factor_acf_fib(random_map_out(rng, ps, c)).left
    return "pushout", i, w


def draw_pullback_square(rng, max_order, lo, hi):
    """A fibration and a weak equivalence into one complex."""
    m = random_finite_complex(rng, max_order=max_order, lo=lo, hi=hi)
    ps = random_finite_complex(rng, max_order=max_order, lo=lo, hi=hi, with_pieces=True)
    q = factor_acf_fib(random_map_out(rng, ps, m)).right
    g, p = gamma(m)
    return "pullback", q, p


def check_properness(kind, one, other):
    if not check_proper(kind, one, other).certified:
        return "opposite map is not a weak equivalence"
    return None


def draw_cofibrations(rng, acyclic, max_rank):
    """Two free cofibrations, the first acyclic on request."""
    return (random_free_cofibration(rng, acyclic=acyclic, max_rank=max_rank),
            random_free_cofibration(rng, max_rank=max_rank))


def check_monoidal(i, j):
    """The pushout product is a cofibration, acyclic when i or j is, and its
    cokernel is the tensor product of the cokernels."""
    cert = pushout_product(i, j)
    if not cert.classification.cofibration:
        return "pushout product is not a cofibration"
    if ((classify(i).acyclic_cofibration or classify(j).acyclic_cofibration)
            and not cert.classification.acyclic_cofibration):
        return "pushout product lost acyclicity"
    for n in cert.m.degrees():
        if not cert.m.component(n).is_iso():
            return "cokernel comparison is not an isomorphism"
    return None


def check_cone(f):
    """f is a quasi-isomorphism exactly when its mapping cone, the pushout
    of f along the inclusion into cone(A), is acyclic."""
    _, incl = cone(f.src)
    if is_quasi_iso(f) != pushout(incl, f).complex.is_acyclic():
        return "mapping cone criterion disagrees with induced maps"
    return None


def check_contraction(a):
    if (is_contractible(split_free_complex(a)) is not None) != a.is_acyclic():
        return "contractibility disagrees with acyclicity"
    return None


# Each entry names an axiom, weighs its case count (structural axioms are
# cheap, certificates are not), and draws one instance from (rng, max_order,
# lo, hi) and checks it.
AXIOMS = [
    ("snf_hnf", 4.0, lambda rng, order, lo, hi: check_snf_hnf(draw_matrix(rng))),
    ("factorization", 1.0, lambda rng, order, lo, hi: check_factorization(
        random_finite_chain_map(rng, max_order=order, lo=lo, hi=hi))),
    ("cofibrant_replacement", 1.0, lambda rng, order, lo, hi: check_replacement(
        random_finite_complex(rng, max_order=order, lo=lo, hi=hi))),
    ("lifting", 0.5, lambda rng, order, lo, hi: check_lifting(
        *random_lift_square(rng, route=1 + (rng.random() < 0.5), max_order=order))),
    ("cofibrant_generation", 0.5, lambda rng, order, lo, hi: (
        check_generating_instances(rng, random_acyclic_fibration(rng, max_order=order))
        or check_failing_instance(random_surjective_non_weq(rng, max_order=order)[0]))),
    ("properness", 0.5, lambda rng, order, lo, hi: check_properness(
        *(draw_pushout_square if rng.random() < 0.5 else draw_pullback_square)(
            rng, order, lo, hi))),
    ("monoidal", 0.25, lambda rng, order, lo, hi: check_monoidal(
        *draw_cofibrations(rng, acyclic=rng.random() < 0.35, max_rank=1))),
    ("oracle_crosschecks", 1.0, lambda rng, order, lo, hi: (
        check_cone(random_finite_chain_map(rng, max_order=order, lo=lo, hi=hi))
        or check_contraction(random_free_complex(rng, max_rank=2)))),
]


def run_verify(seed, cases, max_order=6, degrees=(-2, 2)):
    """Run every axiom; returns the machine-readable report."""
    report = {
        "seed": str(seed),
        "cases": cases,
        "max_order": max_order,
        "degrees": list(degrees),
        "axioms": [],
        "status": "pass",
    }
    for name, weight, check in AXIOMS:
        n_cases = max(1, int(cases * weight))
        entry = {
            "name": name,
            "cases": n_cases,
            "passed": 0,
            "failed": 0,
            "status": "pass",
            "counterexample": None,
        }
        for k in range(n_cases):
            rng = rng_for(f"{seed}/{name}", k)
            try:
                failure = check(rng, max_order, *degrees)
            except ZchainError as e:
                failure = f"{type(e).__name__}: {e}"
            if failure is None:
                entry["passed"] += 1
            else:
                entry["failed"] += 1
                entry["status"] = "fail"
                entry["counterexample"] = {"case": k, "detail": failure}
                report["status"] = "fail"
                break
        report["axioms"].append(entry)
    return report
