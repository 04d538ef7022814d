"""Group-ring functors on finite abelian groups.

For finite A, the group ring Z[A] is free on the elements of A, with the
augmentation eps([a]) = 1 and the evaluation theta(sum n_i [a_i]) =
sum n_i a_i.  The augmentation ideal I(A) = ker(eps) is free on the elements
[a] - [0] for nonzero a, and I^2(A) = ker(theta restricted to I(A)) is a
finite-index free sublattice.  Neither functor is additive, but both send
zero maps to zero maps, which is all the graded constructions need.

Bases are fixed once and for all: group elements are enumerated in
lexicographic order of their canonical coordinates, and the I^2 basis is the
HNF-canonical basis of the kernel lattice, so every matrix produced here is
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import certify
from .errors import InfiniteGroup, RankCapExceeded
from .abelian import FgAbGroup, GroupHom, free_group, is_isomorphic, mk_group, preimage_lattice
from .intlinalg import IntMatrix, solve


@dataclass
class IGroup:
    """The augmentation ideal I(A), free on [a]-[0] for nonzero a."""

    base: FgAbGroup
    free: FgAbGroup                   # free on the nonzero elements
    nonzero_elements: tuple
    index: dict                       # canonical coords -> basis position
    theta_restricted: GroupHom        # I(A) -> A

    @property
    def rank(self):
        return self.free.ngens


@dataclass
class I2Group:
    """I^2(A) = ker(theta: I(A) -> A) with its basis inside the I basis."""

    ig: IGroup                        # the I(A) it sits in
    free: FgAbGroup
    inclusion_matrix: IntMatrix       # I coordinates of each I^2 basis vector

    @property
    def rank(self):
        return self.free.ngens


def build_I(a, max_rank=None):
    """I(A) with basis {[a]-[0]} over the nonzero elements in lex order; the
    one place the group-ring functors check finiteness and the rank cap."""
    if a.free_rank:
        raise InfiniteGroup("group-ring constructions need a finite group")
    if max_rank is not None and a.order() - 1 > max_rank:
        raise RankCapExceeded(
            f"materialized rank {a.order() - 1} exceeds the cap {max_rank}")
    elements = tuple(a.elements())
    zero = elements[0]
    certify.check(zero == a.zero(), "build_I", "the first element is not zero")
    nonzero = tuple(e for e in elements if e != zero)
    free = free_group(len(nonzero))
    theta = GroupHom(free, a, IntMatrix.from_cols([list(e) for e in nonzero], rows=a.ngens))
    return IGroup(
        base=a,
        free=free,
        nonzero_elements=nonzero,
        index={e: i for i, e in enumerate(nonzero)},
        theta_restricted=theta,
    )


def build_I2(ig):
    """I^2(A) as the canonical kernel lattice of theta on I(A) = ig."""
    a = ig.base
    lat = preimage_lattice(ig.theta_restricted.matrix, a.rel_rows)
    i2 = I2Group(ig=ig, free=free_group(lat.cols), inclusion_matrix=lat)
    # the quotient I/I^2 recovers the group itself
    q = mk_group(ig.rank, lat)
    certify.check(is_isomorphic(q, a), "build_I2", "I/I^2 is not isomorphic to the base group",
                  witness=list(a.invariant_factors))
    return i2


def I_map(f, i_src, i_dst):
    """[a]-[0] -> [f a]-[0] between I(f.src) = i_src and I(f.dst) = i_dst;
    nonadditive on elements but linear on the basis."""
    # the columns of theta are the nonzero elements, so this reduces every
    # image f(a) at once
    images = f.dst.canon_cols(f.matrix @ i_src.theta_restricted.matrix).columns()
    rows = [[0] * i_src.rank for _ in range(i_dst.rank)]
    for j, img in enumerate(images):
        if any(img):
            rows[i_dst.index[img]][j] = 1
    return GroupHom(i_src.free, i_dst.free, IntMatrix(i_dst.rank, i_src.rank, rows))


def I2_map(f, i2_src, i2_dst):
    """Restriction of I(f) to the I^2 lattices, by exact change of basis."""
    im = I_map(f, i2_src.ig, i2_dst.ig)
    m = certify.found(solve(i2_dst.inclusion_matrix, im.matrix @ i2_src.inclusion_matrix),
                      "I2_map", None, "I(f) must carry I^2 into I^2")
    return GroupHom(i2_src.free, i2_dst.free, m)
