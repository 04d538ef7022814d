"""Bounded chain complexes of finitely generated abelian groups.

A complex stores groups on a contiguous support window and differentials
d(n): group(n) -> group(n-1); outside the window every group is trivial and
every map is zero.  The ``ChainComplex`` and ``ChainMap`` constructors,
and ``mk_complex`` and ``mk_chain_map``, take every differential and
component as an IntMatrix block and read it on the complexes' own groups,
so derived kernels and cokernels are presented on the complexes' own
relations.  The constructors check only shapes and trust the rest;
``mk_complex`` and ``mk_chain_map`` are the checked entry points for
objects from outside (well-definedness, d o d = 0, commuting squares).
What is built here is correct by construction and built unchecked;
``block_complex`` certifies d o d = 0 and ``induced_map`` that its cycle
solve succeeds.  Homology is returned as a presented subquotient together
with cycle lifts, which is enough to compute induced maps exactly;
``is_acyclic`` needs no homology group and reads one presentation per
degree off a free model instead.
"""

from __future__ import annotations

from functools import wraps

from . import certify
from .errors import DimensionMismatch, NotAChainMap, NotAComplex
from .abelian import (
    DirectSum,
    FgAbGroup,
    GroupHom,
    cokernel,
    factor_through,
    kernel,
    mk_group,
    preimage_lattice,
    require_well_defined,
    tensor_group,
    trivial_group,
    zero_hom,
)
from .intlinalg import IntMatrix, _eliminate, hstack, kron, solve, vstack


class ChainComplex:
    """Z-graded groups with differentials, trivial outside a bounded window.

    diffs maps a degree n to the IntMatrix block of d(n), read on the
    complex's own groups and trusted to be well defined with d o d = 0
    (mk_complex checks them); a missing degree is zero.
    """

    __slots__ = ("support", "_groups", "_diffs", "_homology")

    def __init__(self, groups, diffs, support=None):
        # the support is trimmed to the outermost nonzero groups inside the
        # given window before any degree is stored, however wide the window
        nonzero = [n for n, g in groups.items() if g.ngens
                   and (support is None or support[0] <= n <= support[1])]
        self.support = (min(nonzero), max(nonzero)) if nonzero else None
        self._groups = {n: groups.get(n, trivial_group()) for n in self.degrees()}
        self._diffs = {}
        self._homology = {}
        for n in self.degrees()[1:]:
            d = diffs.get(n)
            src, dst = self.group(n), self.group(n - 1)
            self._diffs[n] = zero_hom(src, dst) if d is None else GroupHom(src, dst, d)

    def degrees(self):
        if self.support is None:
            return range(0)
        return range(self.support[0], self.support[1] + 1)

    def window(self, pad=0):
        if self.support is None:
            return range(0)
        return range(self.support[0] - pad, self.support[1] + 1 + pad)

    def group(self, n) -> FgAbGroup:
        g = self._groups.get(n)
        if g is None:
            g = trivial_group()
        return g

    def diff(self, n) -> GroupHom:
        d = self._diffs.get(n)
        if d is None:
            d = zero_hom(self.group(n), self.group(n - 1))
        return d

    def is_zero(self):
        return all(self.group(n).is_trivial() for n in self.degrees())

    def is_degreewise_free(self):
        return all(not self.group(n).invariant_factors for n in self.degrees())

    def __eq__(self, other):
        if not isinstance(other, ChainComplex):
            return NotImplemented
        return self.support == other.support and self.first_difference(other) is None

    def first_difference(self, other):
        """The least degree where self and other differ in a group or a
        differential, or None when they are equal."""
        if self is other:
            return None
        ends = [n for c in (self, other) if c.support is not None for n in c.support]
        return next((n for n in range(min(ends, default=0), max(ends, default=-1) + 1)
                     if self.group(n) != other.group(n) or self.diff(n) != other.diff(n)),
                    None)

    def __hash__(self):
        return hash(self.support)

    def __repr__(self):
        if self.support is None:
            return "ChainComplex(0)"
        parts = ", ".join(f"{n}:{self.group(n)!r}" for n in self.degrees())
        return f"ChainComplex({parts})"

    def homology(self, n):
        if n not in self._homology:
            self._homology[n] = _homology_at(self, n)
        return self._homology[n]

    def is_acyclic(self):
        """H_n = 0 in every degree, decided without a homology group.

        C_n is Z^{g_n} modulo the columns of B_n, the r_n HNF basis vectors
        of its relations, so B_n is injective.  With d_n B_n = B_{n-1} e_n
        and d_{n-1} d_n = B_{n-2} h_n, the twisted cone T_n = Z^{g_n} +
        Z^{r_{n-1}}, D(x, y) = (d x + B y, -e y - h x), is a complex of free
        groups with H(T) = H(C).  H_n(T) = 0 exactly when coker D_{n+1} is
        torsion-free of free rank equal to rank D_n.
        """
        rank_below = 0  # rank D_n; D_lo maps into T_{lo-1} = 0
        for n in self.degrees():
            q = mk_group(self.group(n).ngens + len(self.group(n - 1).rel_rows),
                         self._twisted_diff(n + 1))
            if q.invariant_factors or q.free_rank != rank_below:
                return False
            rank_below = len(q.rel_rows)
        return True

    def _twisted_diff(self, n):
        """D_n: T_n -> T_{n-1} of the twisted cone (see is_acyclic); h_n and
        e_{n-1} are the quotients of d_{n-1} [d_n | B_{n-1}] by B_{n-2}."""
        top = self.diff(n).matrix
        g = self.group(n - 1)
        if g.rel_rows:
            top = hstack([top, IntMatrix.from_cols(g.rel_rows, rows=g.ngens)])
        below = self.group(n - 2)
        if not below.rel_rows:
            return top
        X = list((self.diff(n - 1).matrix @ top).data)
        he = _eliminate(X, below.rel_rows, below.rel_pivots)
        certify.found(None if any(map(any, X)) else he, "is_acyclic", n,
                      "d o d and d B must land in the relations")
        return vstack([top, -IntMatrix(len(he), top.cols, he)])


def mk_complex(support, groups, diffs):
    """The complex, checked: every differential is well defined (IllDefined)
    and d o d = 0 (NotAComplex).  support may be None for the zero complex."""
    c = ChainComplex(groups, diffs, support)
    for n in c.degrees():
        require_well_defined(c.diff(n), n)
    for n in c.degrees()[2:]:
        if not (c.diff(n - 1) @ c.diff(n)).is_zero():
            raise NotAComplex(f"d o d is nonzero at degree {n}", n)
    return c


def zero_complex():
    return ChainComplex({}, {})


class ChainMap:
    """Degreewise homs commuting with the differentials.  components maps a
    degree n to the IntMatrix block of the component, read on src.group(n)
    and dst.group(n) and trusted to be well defined and to commute
    (mk_chain_map checks them; certify.chain_map certifies solved maps).
    Immutable, so what is derived from the map alone is memoized on it (see
    ``memoized_on_map``)."""

    __slots__ = ("src", "dst", "_components", "_memo")

    def __init__(self, src, dst, components):
        self.src = src
        self.dst = dst
        self._components = {n: GroupHom(src.group(n), dst.group(n), m)
                            for n, m in components.items()}
        self._memo = {}

    def component(self, n) -> GroupHom:
        c = self._components.get(n)
        if c is None:
            c = zero_hom(self.src.group(n), self.dst.group(n))
        return c

    def __matmul__(self, other):
        if other.dst != self.src:
            raise DimensionMismatch("chain maps are not composable")
        degrees = set(other.src.degrees()) | set(self.dst.degrees()) | set(self.src.degrees())
        comps = {n: self.component(n).matrix @ other.component(n).matrix for n in degrees}
        return ChainMap(other.src, self.dst, comps)

    def degrees(self):
        """The degrees of the source and the target, ascending."""
        return sorted(set(self.src.degrees()) | set(self.dst.degrees()))

    def __add__(self, other):
        if self.src != other.src or self.dst != other.dst:
            raise DimensionMismatch("chain map sum shape mismatch")
        return ChainMap(self.src, self.dst,
                        {n: self.component(n).matrix + other.component(n).matrix
                         for n in self.degrees()})

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ChainMap(self.src, self.dst, {n: -c.matrix for n, c in self._components.items()})

    def __eq__(self, other):
        if not isinstance(other, ChainMap):
            return NotImplemented
        if self.src != other.src or self.dst != other.dst:
            return False
        return self.first_difference(other) is None

    def first_difference(self, other):
        """(degree, generator, canonical value) of the least generator on
        which self and other, maps between the same complexes, differ, or
        None when they are equal."""
        for n in self.degrees():
            bad = self.dst.group(n).first_nonzero(
                self.component(n).matrix - other.component(n).matrix)
            if bad is not None:
                return (n, *bad)
        return None

    def __hash__(self):
        return hash((self.src.support, self.dst.support))

    def __repr__(self):
        return f"ChainMap({self.src!r} -> {self.dst!r})"

    def is_zero(self):
        return all(self.component(n).is_zero() for n in self.degrees())


def memoized_on_map(fn):
    """fn(f), computed once per chain map f and kept on f."""
    @wraps(fn)
    def once(f):
        if fn.__name__ not in f._memo:
            f._memo[fn.__name__] = fn(f)
        return f._memo[fn.__name__]
    return once


def mk_chain_map(src, dst, components):
    """The chain map, checked: every component is well defined (IllDefined)
    and every square commutes (NotAChainMap)."""
    f = ChainMap(src, dst, components)
    for n, c in f._components.items():
        require_well_defined(c, n)
    degrees = f.degrees()
    for n in sorted({*degrees, *(d + 1 for d in degrees)}):
        lhs = f.component(n - 1).matrix @ src.diff(n).matrix
        rhs = dst.diff(n).matrix @ f.component(n).matrix
        if dst.group(n - 1).first_nonzero(lhs - rhs) is not None:
            raise NotAChainMap(f"square at degree {n} does not commute", n)
    return f


def identity_chain_map(a):
    return ChainMap(a, a, {n: IntMatrix.identity(a.group(n).ngens) for n in a.degrees()})


def zero_chain_map(src, dst):
    return ChainMap(src, dst, {})


def sphere(n, m):
    """The group m concentrated in degree n."""
    return ChainComplex({n: m}, {}, (n, n))


def disk(n, m):
    """The group m in degrees n+1 and n with the identity differential between them."""
    return ChainComplex({n: m, n + 1: m}, {n + 1: IntMatrix.identity(m.ngens)}, (n, n + 1))


def suspend(a, k):
    """(suspend(a, k))_n = a_{n-k}; the differential picks up the sign (-1)^k."""
    if a.support is None:
        return zero_complex()
    lo, hi = a.support
    groups = {n + k: a.group(n) for n in a.degrees()}
    sign = -1 if k % 2 else 1
    diffs = {}
    for n in range(lo + 1, hi + 1):
        d = a.diff(n).matrix
        diffs[n + k] = d if sign == 1 else -d
    return ChainComplex(groups, diffs, (lo + k, hi + k))


def block_complex(lo, hi, parts, blocks):
    """The graded direct sum with DirectSum(parts(n)) in degrees lo..hi.

    blocks(n) maps (target part, source part) to the blocks of d(n); missing
    blocks are zero.  d o d = 0 is certified.  Returns the complex and the
    layouts, one DirectSum per degree of lo..hi.
    """
    layouts = {n: DirectSum(parts(n)) for n in range(lo, hi + 1)}
    diffs = {n: layouts[n - 1].block_matrix(layouts[n], blocks(n)) for n in range(lo + 1, hi + 1)}
    c = ChainComplex({n: ds.group for n, ds in layouts.items()}, diffs, (lo, hi))
    certify.d_squared(c, "block_complex")
    return c, layouts


def cone(a):
    """Cone a + (shifted a) with d(x, x') = (dx + x', -dx'); always acyclic.

    Returns the cone and the inclusion of a.
    """
    if a.support is None:
        z = zero_complex()
        return z, zero_chain_map(a, z)
    c, layouts = block_complex(
        a.support[0], a.support[1] + 1,
        lambda n: [a.group(n), a.group(n - 1)],
        lambda n: {(0, 0): a.diff(n).matrix,
                   (0, 1): IntMatrix.identity(a.group(n - 1).ngens),
                   (1, 1): -a.diff(n - 1).matrix})
    incl = ChainMap(a, c, {n: layouts[n].inclusion(0).matrix for n in a.degrees()})
    return c, incl


class HomologyClassData:
    """Presentation of ker d_n / im d_{n+1} with explicit cycle lifts."""

    def __init__(self, group: FgAbGroup, cycle_lift: IntMatrix):
        self.group = group
        self.cycle_lift = cycle_lift  # columns: a cycle in the ambient group per generator

    def lift(self, coords):
        """Cycle vector representing the class with the given coordinates."""
        return self.cycle_lift.mul_vec(coords)


def _homology_at(a, n):
    gn = a.group(n)
    if gn.ngens == 0:
        return HomologyClassData(trivial_group(), IntMatrix.zeros(0, 0))
    d_n = a.diff(n)
    d_up = a.diff(n + 1)
    cycles = preimage_lattice(d_n.matrix, a.group(n - 1).rel_rows)
    boundaries = certify.found(solve(cycles, d_up.matrix), "homology", n,
                               "boundaries must be cycles")
    relations = certify.found(solve(cycles, gn.relations), "homology", n,
                              "relations must lie in the cycle lattice")
    h = mk_group(cycles.cols, hstack([boundaries, relations]))
    return HomologyClassData(h, cycles)


def induced_map(f, n):
    """H_n(f), computed through cycle lifts; independent of the lift choices."""
    hs = f.src.homology(n)
    hd = f.dst.homology(n)
    if not hs.group.ngens:  # no classes to carry, so no system to solve
        return zero_hom(hs.group, hd.group)
    x = certify.found(solve(hd.cycle_lift, f.component(n).matrix @ hs.cycle_lift),
                      "induced_map", n, "the map must carry cycles to cycles")
    return GroupHom(hs.group, hd.group, hd.group.canon_cols(x))


def comparison_degrees(f):
    """The degrees, ascending, in which H_n(f) is compared: one past either support."""
    return sorted(set(f.src.window(1)) | set(f.dst.window(1)))


def is_quasi_iso(f):
    """H_n(f) is an isomorphism in every degree, one past either support."""
    return all(induced_map(f, n).is_iso() for n in comparison_degrees(f))


def dsum_complex(parts):
    """Direct sum of complexes with inclusion and projection chain maps."""
    parts = list(parts)
    supports = [p.support for p in parts if p.support is not None]
    if not supports:
        z = zero_complex()
        return z, [zero_chain_map(p, z) for p in parts], [zero_chain_map(z, p) for p in parts]
    lo = min(s[0] for s in supports)
    hi = max(s[1] for s in supports)
    total, layouts = block_complex(
        lo, hi,
        lambda n: [p.group(n) for p in parts],
        lambda n: {(i, i): p.diff(n).matrix for i, p in enumerate(parts)})
    incls = []
    projs = []
    for i, p in enumerate(parts):
        incls.append(ChainMap(p, total, {n: layouts[n].inclusion(i).matrix for n in p.degrees()
                                         if lo <= n <= hi}))
        projs.append(ChainMap(total, p, {n: layouts[n].projection(i).matrix
                                         for n in range(lo, hi + 1)}))
    return total, incls, projs


def dsum_chain_maps(maps):
    """Block-diagonal sum of chain maps between the summed complexes."""
    maps = list(maps)
    src, _, s_projs = dsum_complex([m.src for m in maps])
    dst, d_incls, _ = dsum_complex([m.dst for m in maps])
    total = zero_chain_map(src, dst)
    for k, m in enumerate(maps):
        total = total + (d_incls[k] @ m @ s_projs[k])
    return total


@memoized_on_map
def kernel_complex(f):
    """Degreewise kernels of a chain map, with the inclusion."""
    incls = {n: kernel(f.component(n))[1] for n in f.src.degrees()}
    kc = ChainComplex({n: incl.src for n, incl in incls.items()},
                      {n: factor_through(incls[n - 1], f.src.diff(n) @ incls[n]).matrix
                       for n in f.src.degrees()[1:]}, f.src.support)
    return kc, ChainMap(kc, f.src, {n: incls[n].matrix for n in kc.degrees()})


@memoized_on_map
def cokernel_complex(f):
    """Degreewise cokernels of a chain map, with the projection."""
    pieces = {n: cokernel(f.component(n)) for n in f.dst.degrees()}
    cc = ChainComplex({n: q for n, (q, _) in pieces.items()},
                      {n: f.dst.diff(n).matrix for n in f.dst.degrees()[1:]}, f.dst.support)
    proj = ChainMap(f.dst, cc, {n: p.matrix for n, (_, p) in pieces.items()})
    return cc, proj


def _tensor_layout(a, b, n):
    """Summand indices (p, q) of degree n of a (x) b, p ascending."""
    return [(p, n - p) for p in a.degrees() if b.support[0] <= n - p <= b.support[1]]


def _tensor(a, b):
    """a (x) b with its layouts, the summand a_p (x) b_q of degree n at
    position _tensor_layout(a, b, n).index((p, q))."""
    if a.support is None or b.support is None:
        return zero_complex(), {}

    def blocks(n):
        dst_index = {pq: i for i, pq in enumerate(_tensor_layout(a, b, n - 1))}
        out = {}
        for si, (p, q) in enumerate(_tensor_layout(a, b, n)):
            ti = dst_index.get((p - 1, q))
            if ti is not None:
                out[(ti, si)] = kron(a.diff(p).matrix, IntMatrix.identity(b.group(q).ngens))
            ti = dst_index.get((p, q - 1))
            if ti is not None:
                m = kron(IntMatrix.identity(a.group(p).ngens), b.diff(q).matrix)
                out[(ti, si)] = m if p % 2 == 0 else -m
        return out

    return block_complex(
        a.support[0] + b.support[0], a.support[1] + b.support[1],
        lambda n: [tensor_group(a.group(p), b.group(q)) for p, q in _tensor_layout(a, b, n)],
        blocks)


def tensor(a, b):
    """Graded tensor product with the usual sign: d(x (x) y) uses (-1)^p on the
    second factor in degree p of the first."""
    return _tensor(a, b)[0]


def tensor_map(f, g):
    """f (x) g on the tensor complexes, degreewise Kronecker blocks."""
    return _tensor_map(f, g, _tensor(f.src, g.src), _tensor(f.dst, g.dst))


def _tensor_map(f, g, src_pair, dst_pair):
    """f (x) g between the pairs _tensor(f.src, g.src) and _tensor(f.dst, g.dst)."""
    src, src_layouts = src_pair
    dst, dst_layouts = dst_pair
    comps = {}
    for n in src.degrees():
        if n not in dst_layouts:
            continue  # the target is zero in degree n
        dst_index = {pq: i for i, pq in enumerate(_tensor_layout(f.dst, g.dst, n))}
        blocks = {}
        for si, (p, q) in enumerate(_tensor_layout(f.src, g.src, n)):
            ti = dst_index.get((p, q))
            if ti is not None:
                blocks[(ti, si)] = kron(f.component(p).matrix, g.component(q).matrix)
        comps[n] = dst_layouts[n].block_matrix(src_layouts[n], blocks)
    return ChainMap(src, dst, comps)


def map_from_disk(a, n, v):
    """Chain map disk(n, m) -> a from a hom v: m -> a_{n+1}."""
    return ChainMap(disk(n, v.src), a, {n + 1: v.matrix, n: a.diff(n + 1).matrix @ v.matrix})

