"""The two functorial factorizations and the cofibrant replacement.

Given f: A -> B with B degreewise finite, the first factorization interposes

    W_n = A_n + I(B_n) + I(B_{n+1})
    d(a + b + b') = da + db - (b + db')      (the last summand shifted down)
    j(a) = a,   p(a + b + b') = f(a) + theta(b)

so that f = p o j with j an acyclic cofibration and p a fibration.  The
second interposes

    X_n = A_n + I(A_{n-1}) + I^2(A_{n-2}) + I(B_n) + I^2(B_{n-1})

with the five differential formulas spelled out in ``factor_cof_afb``; there
f = p o i with i a cofibration and p an acyclic fibration.  With A = 0 the
second construction collapses to the cofibrant replacement Gamma(B)_n =
I(B_n) + I^2(B_{n-1}), a degreewise-free complex with a surjective
quasi-isomorphism onto B.

Every factorization is certified at construction through ``zchain.certify``:
d^2 = 0, the composite equals f exactly, and the two pieces classify as
promised.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import certify
from .errors import InfiniteGroup
from .abelian import DirectSum, GroupHom
from .complexes import ChainComplex, ChainMap, zero_chain_map, zero_complex
from .groupring import IGroup, I2Group, I2_map, I_map, build_I, build_I2
from .intlinalg import IntMatrix
from .modelcls import MapClassification, classify


@dataclass
class Factorization:
    """f = right o left through the middle complex, with labelled summands.

    summands maps each degree to a tuple of (kind, source_degree, ngens)
    triples in coordinate order, recording which block of the middle complex
    came from which functor applied to which degree.
    """

    middle: ChainComplex
    left: ChainMap
    right: ChainMap
    summands: dict
    left_classification: MapClassification
    right_classification: MapClassification


class _IData:
    """Per-degree I and I^2 groups of a degreewise finite complex."""

    def __init__(self, c, max_rank=None):
        self.complex = c
        self.max_rank = max_rank
        self._i = {}
        self._i2 = {}
        self._i_maps = {}
        self._i2_maps = {}

    def i(self, n) -> IGroup:
        if n not in self._i:
            self._i[n] = build_I(self.complex.group(n), self.max_rank)
        return self._i[n]

    def i2(self, n) -> I2Group:
        if n not in self._i2:
            self._i2[n] = build_I2(self.complex.group(n), self.max_rank, ig=self.i(n))
        return self._i2[n]

    def i_diff(self, n) -> GroupHom:
        # I applied to d: I(B_n) -> I(B_{n-1})
        if n not in self._i_maps:
            self._i_maps[n] = I_map(self.complex.diff(n), self.i(n), self.i(n - 1))
        return self._i_maps[n]

    def i2_diff(self, n) -> GroupHom:
        if n not in self._i2_maps:
            self._i2_maps[n] = I2_map(
                self.complex.diff(n), self.i2(n), self.i2(n - 1), self.i(n), self.i(n - 1))
        return self._i2_maps[n]


def _check_finite(c, name):
    for n in c.degrees():
        if not c.group(n).is_finite():
            raise InfiniteGroup(f"{name} has an infinite group in degree {n}")


def factor_acf_fib(f: ChainMap, max_rank=None) -> Factorization:
    """f = (fibration) o (acyclic cofibration) through W."""
    a, b = f.src, f.dst
    _check_finite(b, "target")
    ib = _IData(b, max_rank)
    if a.support is None and b.support is None:
        return _trivial_factorization(f)
    los = [a.support[0]] if a.support else []
    his = [a.support[1]] if a.support else []
    if b.support:
        los.append(b.support[0] - 1)
        his.append(b.support[1])
    lo, hi = min(los), max(his)

    layouts = {}
    summands = {}
    groups = {}
    for n in range(lo, hi + 1):
        parts = [
            ("A", n, a.group(n)),
            ("I(B)", n, ib.i(n).free),
            ("I(B)", n + 1, ib.i(n + 1).free),
        ]
        ds = DirectSum([g for (_, _, g) in parts])
        layouts[n] = ds
        groups[n] = ds.group
        summands[n] = tuple((kind, deg, g.ngens) for (kind, deg, g) in parts)
    diffs = {}
    for n in range(lo + 1, hi + 1):
        blocks = {
            (0, 0): a.diff(n).matrix,
            (1, 1): ib.i_diff(n).matrix,
            (2, 1): -IntMatrix.identity(ib.i(n).rank),
            (2, 2): -ib.i_diff(n + 1).matrix,
        }
        diffs[n] = layouts[n - 1].block_matrix(layouts[n], blocks)
    w = ChainComplex(groups, diffs, support=(lo, hi), validate=True)

    j = ChainMap(a, w, {n: layouts[n].inclusion(0).matrix for n in a.degrees()}, validate=True)
    p_comps = {}
    for n in w.degrees():
        src_ds = layouts[n]
        tgt = b.group(n)
        dst_ds = DirectSum([tgt])
        blocks = {(0, 0): f.component(n).matrix, (0, 1): ib.i(n).theta_restricted.matrix}
        p_comps[n] = dst_ds.block_matrix(src_ds, blocks)
    p = ChainMap(w, b, p_comps, validate=True)

    certify.equal_maps(p @ j, f, "factor_acf_fib",
                       "factorization composite does not reproduce the map")
    cls_j = classify(j)
    cls_p = classify(p)
    certify.classified(cls_j, "acyclic_cofibration", "factor_acf_fib", "left piece")
    certify.classified(cls_p, "fibration", "factor_acf_fib", "right piece")
    return Factorization(w, j, p, summands, cls_j, cls_p)


def factor_cof_afb(f: ChainMap, max_rank=None) -> Factorization:
    """f = (acyclic fibration) o (cofibration) through X."""
    a, b = f.src, f.dst
    _check_finite(a, "source")
    _check_finite(b, "target")
    ia = _IData(a, max_rank)
    ib = _IData(b, max_rank)
    if a.support is None and b.support is None:
        return _trivial_factorization(f)
    los = []
    his = []
    if a.support:
        los.append(a.support[0])
        his.append(a.support[1] + 2)
    if b.support:
        los.append(b.support[0])
        his.append(b.support[1] + 1)
    lo, hi = min(los), max(his)

    # I(f) and I^2(f) degreewise
    if_maps = {n: I_map(f.component(n), ia.i(n), ib.i(n)) for n in range(lo - 1, hi + 1)}
    if2_maps = {
        n: I2_map(f.component(n), ia.i2(n), ib.i2(n), ia.i(n), ib.i(n))
        for n in range(lo - 1, hi + 1)
    }

    layouts = {}
    summands = {}
    groups = {}
    for n in range(lo, hi + 1):
        parts = [
            ("A", n, a.group(n)),
            ("I(A)", n - 1, ia.i(n - 1).free),
            ("I2(A)", n - 2, ia.i2(n - 2).free),
            ("I(B)", n, ib.i(n).free),
            ("I2(B)", n - 1, ib.i2(n - 1).free),
        ]
        ds = DirectSum([g for (_, _, g) in parts])
        layouts[n] = ds
        groups[n] = ds.group
        summands[n] = tuple((kind, deg, g.ngens) for (kind, deg, g) in parts)
    diffs = {}
    for n in range(lo + 1, hi + 1):
        # d(a)            = da
        # d(alpha')       = theta(alpha') - d alpha' (shifted) - I(f)(alpha')
        # d(alpha'')      = alpha'' + d alpha'' (shifted) + I^2(f)(alpha'')
        # d(beta)         = d beta
        # d(beta')        = beta' - d beta' (shifted)
        blocks = {
            (0, 0): a.diff(n).matrix,
            (0, 1): ia.i(n - 1).theta_restricted.matrix,
            (1, 1): -ia.i_diff(n - 1).matrix,
            (3, 1): -if_maps[n - 1].matrix,
            (1, 2): ia.i2(n - 2).inclusion_matrix,
            (2, 2): ia.i2_diff(n - 2).matrix,
            (4, 2): if2_maps[n - 2].matrix,
            (3, 3): ib.i_diff(n).matrix,
            (3, 4): ib.i2(n - 1).inclusion_matrix,
            (4, 4): -ib.i2_diff(n - 1).matrix,
        }
        diffs[n] = layouts[n - 1].block_matrix(layouts[n], blocks)
    x = ChainComplex(groups, diffs, support=(lo, hi), validate=True)

    i = ChainMap(a, x, {n: layouts[n].inclusion(0).matrix for n in a.degrees()}, validate=True)
    p_comps = {}
    for n in x.degrees():
        src_ds = layouts[n]
        dst_ds = DirectSum([b.group(n)])
        blocks = {(0, 0): f.component(n).matrix, (0, 3): ib.i(n).theta_restricted.matrix}
        p_comps[n] = dst_ds.block_matrix(src_ds, blocks)
    p = ChainMap(x, b, p_comps, validate=True)

    certify.equal_maps(p @ i, f, "factor_cof_afb",
                       "factorization composite does not reproduce the map")
    cls_i = classify(i)
    cls_p = classify(p)
    certify.classified(cls_i, "cofibration", "factor_cof_afb", "left piece")
    certify.classified(cls_p, "acyclic_fibration", "factor_cof_afb", "right piece")
    return Factorization(x, i, p, summands, cls_i, cls_p)


def gamma(b: ChainComplex, max_rank=None):
    """Cofibrant replacement: Gamma(b)_n = I(b_n) + I^2(b_{n-1}) with
    d(beta + beta') = d beta + beta' - d beta' (second summand shifted) and
    the surjective quasi-isomorphism p(beta + beta') = theta(beta)."""
    _check_finite(b, "complex")
    if b.support is None:
        z = zero_complex()
        return z, zero_chain_map(z, b)
    ib = _IData(b, max_rank)
    lo, hi = b.support[0], b.support[1] + 1
    layouts = {}
    groups = {}
    for n in range(lo, hi + 1):
        ds = DirectSum([ib.i(n).free, ib.i2(n - 1).free])
        layouts[n] = ds
        groups[n] = ds.group
    diffs = {}
    for n in range(lo + 1, hi + 1):
        blocks = {
            (0, 0): ib.i_diff(n).matrix,
            (0, 1): ib.i2(n - 1).inclusion_matrix,
            (1, 1): -ib.i2_diff(n - 1).matrix,
        }
        diffs[n] = layouts[n - 1].block_matrix(layouts[n], blocks)
    g = ChainComplex(groups, diffs, support=(lo, hi), validate=True)
    p_comps = {}
    for n in g.degrees():
        dst_ds = DirectSum([b.group(n)])
        p_comps[n] = dst_ds.block_matrix(layouts[n], {(0, 0): ib.i(n).theta_restricted.matrix})
    p = ChainMap(g, b, p_comps, validate=True)
    certify.check(g.is_degreewise_free(), "gamma", "replacement is not degreewise free")
    certify.classified(classify(p), "acyclic_fibration", "gamma", "replacement projection")
    return g, p


def _trivial_factorization(f):
    cls = classify(f)
    return Factorization(f.src, ChainMap(f.src, f.src, {}, validate=False), f, {}, cls, cls)
