"""Finitely generated abelian groups as presentations.

A group is Z^ngens modulo the column lattice of its relation matrix.  Every
element has a unique canonical coordinate vector (reduce against the HNF row
basis of the relation lattice), so equality of elements is literal equality
of canonical forms.  Homomorphisms are matrices on generators.  ``GroupHom``
trusts its matrix to carry every source relation into the target lattice;
``mk_hom``, the entry point for matrices from outside, checks it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from . import certify
from .errors import DimensionMismatch, IllDefined, InfiniteGroup, NotFree
from .intlinalg import (
    IntMatrix,
    blockdiag,
    column_lattice,
    hstack,
    inverse_unimodular,
    kernel_basis,
    reduce_cols_mod_rows,
    row_lattice,
    row_pivots,
    snf,
    solve,
)


class FgAbGroup:
    """Presentation Z^ngens / columnspan(relations).

    ``rel_rows`` is the HNF row basis of the relation lattice, read off the
    cached ``hnf`` of the transpose of relations, the same entry that
    ``solve`` and ``kernel_basis`` of relations read; the free rank is ngens
    minus its length.  The invariant factors come from ``snf(relations)``
    only when some HNF pivot exceeds 1: with unit pivots the quotient is
    free.
    """

    __slots__ = ("ngens", "relations", "rel_rows", "rel_pivots", "invariant_factors",
                 "free_rank", "_free_basis", "_hash")

    def __init__(self, ngens, relations):
        if relations.rows != ngens:
            raise DimensionMismatch(f"relations need {ngens} rows, got {relations.rows}")
        self.ngens = ngens
        self.relations = relations
        self.rel_rows = column_lattice(relations)
        self.rel_pivots = row_pivots(self.rel_rows)
        self.free_rank = ngens - len(self.rel_rows)
        # unit pivots eliminate their coordinates, leaving a free quotient;
        # only a larger pivot can hide torsion, which the SNF then reads off
        if any(row[p] != 1 for row, p in zip(self.rel_rows, self.rel_pivots)):
            self.invariant_factors = tuple(d for d in snf(relations).diagonal if d > 1)
        else:
            self.invariant_factors = ()
        self._free_basis = None
        self._hash = None

    def __eq__(self, other):
        return (
            isinstance(other, FgAbGroup)
            and self.ngens == other.ngens
            and self.rel_rows == other.rel_rows
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ngens, self.rel_rows))
        return self._hash

    def __repr__(self):
        parts = [f"Z/{d}" for d in self.invariant_factors]
        if self.free_rank:
            parts.append("Z" if self.free_rank == 1 else f"Z^{self.free_rank}")
        name = " + ".join(parts) if parts else "0"
        return f"FgAbGroup({self.ngens} gens, {name})"

    def canon(self, v):
        """Canonical coordinates of the element with generator coordinates v:
        the one-column case of ``canon_cols``."""
        return self.canon_cols(IntMatrix(len(v), 1, [(x,) for x in v])).col(0)

    def canon_cols(self, m):
        """m with every column replaced by its canonical coordinates."""
        if m.rows != self.ngens:
            raise DimensionMismatch("element length mismatch")
        return reduce_cols_mod_rows(m, self.rel_rows, self.rel_pivots)

    def first_nonzero(self, m):
        """(j, canonical coordinates) of the first column of m that is nonzero
        in the group, or None when every column is zero."""
        c = self.canon_cols(m)
        if any(map(any, c.data)):
            return next((j, v) for j, v in enumerate(c.columns()) if any(v))
        return None

    def contains_zero(self, v):
        return not any(self.canon(v))

    def is_trivial(self):
        return self.free_rank == 0 and not self.invariant_factors

    def is_finite(self):
        return self.free_rank == 0

    def order(self):
        if self.free_rank:
            raise InfiniteGroup("group has positive free rank")
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def zero(self):
        return (0,) * self.ngens

    def elements(self):
        """All canonical coordinate vectors, lexicographically.  Finite groups only."""
        if self.free_rank:
            raise InfiniteGroup("cannot enumerate an infinite group")
        if self.ngens == 0:
            return [()]
        # finite: the relation HNF is square upper triangular, pivots on the diagonal
        bounds = [None] * self.ngens
        for row, p in zip(self.rel_rows, self.rel_pivots):
            bounds[p] = row[p]
        certify.check(None not in bounds, "elements", "relation HNF is not square triangular")
        return [v for v in itertools.product(*(range(b) for b in bounds))]

    def free_basis(self):
        """(B, C) with C @ B = id and B @ C the identity of the group.

        Columns of B are a basis of a free group; only meaningful when the
        group is free (raises NotFree otherwise).
        """
        if self.invariant_factors:
            raise NotFree(f"{self!r} has torsion")
        if self._free_basis is None:
            res = snf(self.relations)
            idx = list(range(res.rank, self.ngens))
            Uinv = inverse_unimodular(res.U)
            B = Uinv.take_cols(idx)
            C = res.U.take_rows(idx)
            self._free_basis = (B, C)
        return self._free_basis


def mk_group(ngens, relations=None):
    if relations is None:
        relations = IntMatrix.zeros(ngens, 0)
    return FgAbGroup(ngens, relations)


@lru_cache(maxsize=512)
def free_group(rank):
    return mk_group(rank)


def trivial_group():
    return free_group(0)


class GroupHom:
    """Matrix on generators, trusted to be well defined (mk_hom checks it)."""

    __slots__ = ("src", "dst", "matrix")

    def __init__(self, src, dst, matrix):
        if matrix.rows != dst.ngens or matrix.cols != src.ngens:
            raise DimensionMismatch(
                f"hom matrix must be {dst.ngens}x{src.ngens}, got {matrix.rows}x{matrix.cols}")
        self.src = src
        self.dst = dst
        self.matrix = matrix

    def __repr__(self):
        return f"GroupHom({self.src!r} -> {self.dst!r})"

    def __matmul__(self, other):
        if other.dst != self.src:
            raise DimensionMismatch("homs are not composable")
        return GroupHom(other.src, self.dst, self.matrix @ other.matrix)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, GroupHom)
            and self.src == other.src
            and self.dst == other.dst
            and self.dst.first_nonzero(self.matrix - other.matrix) is None
        )

    def __hash__(self):
        return hash((self.src, self.dst))

    def is_zero(self):
        return self.dst.first_nonzero(self.matrix) is None

    def is_injective(self):
        # the preimage of the target relations always contains the source
        # relations, and both bases are canonical HNF rows
        return preimage_lattice(self.matrix, self.dst.rel_rows).columns() == list(self.src.rel_rows)

    def is_surjective(self):
        return cokernel(self)[0].is_trivial()

    def is_iso(self):
        # a finitely generated abelian group is Hopfian: a surjection onto an
        # isomorphic group is injective, so the kernel is never built
        return is_isomorphic(self.src, self.dst) and self.is_surjective()


def identity_hom(g):
    return GroupHom(g, g, IntMatrix.identity(g.ngens))


def zero_hom(src, dst):
    return GroupHom(src, dst, IntMatrix.zeros(dst.ngens, src.ngens))


def mk_hom(src, dst, matrix):
    """The hom with this matrix, checked to be well defined (IllDefined)."""
    if not isinstance(matrix, IntMatrix):
        matrix = IntMatrix.from_rows(matrix, cols=src.ngens)
    h = GroupHom(src, dst, matrix)
    require_well_defined(h)
    return h


def require_well_defined(h, degree=None):
    """IllDefined unless h carries every source relation into the target
    lattice; degree is the one the error names."""
    bad = h.dst.first_nonzero(h.matrix @ h.src.relations)
    if bad is not None:
        raise IllDefined(f"relation {bad[0]} is not carried into the target lattice", degree)


def preimage_lattice(matrix, target_rel_rows):
    """Canonical column basis of {v : matrix @ v lies in the given lattice}."""
    aug = hstack([matrix, IntMatrix.from_cols(target_rel_rows, rows=matrix.rows)])
    K = kernel_basis(aug)
    rows = row_lattice([v[: matrix.cols] for v in K.columns()], matrix.cols)
    return IntMatrix.from_cols(rows, rows=matrix.cols)


def kernel(h):
    """Kernel subgroup with its inclusion hom."""
    P = preimage_lattice(h.matrix, h.dst.rel_rows)
    rels = certify.found(solve(P, h.src.relations), "kernel", None,
                         "source relations must lie in the kernel lattice")
    K = mk_group(P.cols, rels)
    incl = GroupHom(K, h.src, P)
    return K, incl


def cokernel(h):
    """Cokernel with its projection hom: target relations plus the image."""
    Q = mk_group(h.dst.ngens, hstack([h.dst.relations, h.matrix]))
    proj = GroupHom(h.dst, Q, IntMatrix.identity(h.dst.ngens))
    return Q, proj


def is_isomorphic(g, h):
    return g.invariant_factors == h.invariant_factors and g.free_rank == h.free_rank


class DirectSum:
    """Ordered direct sum of presented groups with labelled coordinates."""

    def __init__(self, parts):
        self.parts = list(parts)
        self.offsets = []
        off = 0
        for p in self.parts:
            self.offsets.append(off)
            off += p.ngens
        self.group = mk_group(off, blockdiag([p.relations for p in self.parts]))

    def inclusion(self, i):
        part = self.parts[i]
        off = self.offsets[i]
        rows = [[0] * part.ngens for _ in range(self.group.ngens)]
        for j in range(part.ngens):
            rows[off + j][j] = 1
        return GroupHom(part, self.group, IntMatrix(self.group.ngens, part.ngens, rows))

    def projection(self, i):
        part = self.parts[i]
        off = self.offsets[i]
        rows = [[0] * self.group.ngens for _ in range(part.ngens)]
        for j in range(part.ngens):
            rows[j][off + j] = 1
        return GroupHom(self.group, part, IntMatrix(part.ngens, self.group.ngens, rows))

    def block_matrix(self, source, blocks):
        """Assemble a matrix (self.group <- source.group) from per-part blocks.

        blocks maps (target_index, source_index) to an IntMatrix; missing
        blocks are zero.
        """
        out = [[0] * source.group.ngens for _ in range(self.group.ngens)]
        for (ti, si), m in blocks.items():
            tp, sp = self.parts[ti], source.parts[si]
            if m.rows != tp.ngens or m.cols != sp.ngens:
                raise DimensionMismatch(f"block ({ti},{si}) has wrong shape")
            r0, c0 = self.offsets[ti], source.offsets[si]
            for i in range(m.rows):
                row = out[r0 + i]
                for j in range(m.cols):
                    row[c0 + j] = m.data[i][j]
        return IntMatrix(self.group.ngens, source.group.ngens, out)


def tensor_group(g, h):
    """Tensor product presented on generator pairs (i, j) -> i * h.ngens + j."""
    gg, hh = g.ngens, h.ngens
    cols = []
    for r in g.relations.columns():
        for jh in range(hh):
            col = [0] * (gg * hh)
            for i in range(gg):
                col[i * hh + jh] = r[i]
            cols.append(col)
    h_rels = h.relations.columns()
    for i in range(gg):
        for s in h_rels:
            col = [0] * (gg * hh)
            for jh in range(hh):
                col[i * hh + jh] = s[jh]
            cols.append(col)
    return mk_group(gg * hh, IntMatrix.from_cols(cols, rows=gg * hh))



def preimage(h, targets):
    """Deterministic V with h.matrix @ V equal to targets in h.dst, or None.

    Column j of V is the canonical preimage of column j of targets (a single
    element is a one-column matrix); None when some column has no preimage.
    """
    if targets.rows != h.dst.ngens:
        raise DimensionMismatch("target row mismatch")
    x = solve(hstack([h.matrix, h.dst.relations]), targets)
    if x is None:
        return None
    return x.take_rows(range(h.src.ngens))


def factor_through(incl, h):
    """t with incl o t == h, where the image of h lies in the image of incl;
    well defined because incl is injective."""
    m = preimage(incl, h.matrix)
    if m is None:
        raise IllDefined("map does not factor through the inclusion")
    return GroupHom(h.src, incl.src, m)


def lift_free_hom(q, g):
    """h with q o h == g for a free source, via basis-wise deterministic preimages."""
    B, C = g.src.free_basis()
    P = preimage(q, g.dst.canon_cols(g.matrix @ B))
    if P is None:
        raise IllDefined("map does not lift through the surjection")
    return GroupHom(g.src, q.src, P @ C)

