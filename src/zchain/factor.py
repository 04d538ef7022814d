"""The two functorial factorizations and the cofibrant replacement.

Given f: A -> B with B degreewise finite, the first factorization interposes

    W_n = A_n + I(B_n) + I(B_{n+1})
    d(a + b + b') = da + db - (b + db')      (the last summand shifted down)
    j(a) = a,   p(a + b + b') = f(a) + theta(b)

so that f = p o j with j an acyclic cofibration and p a fibration.  The
second interposes

    X_n = A_n + I(A_{n-1}) + I^2(A_{n-2}) + I(B_n) + I^2(B_{n-1})

with the five differential formulas spelled out in ``_cof_afb``; there
f = p o i with i a cofibration and p an acyclic fibration.  Both middles are
graded direct sums built by ``complexes.block_complex``.  With A = 0 the
second construction collapses to the cofibrant replacement Gamma(B)_n =
I(B_n) + I^2(B_{n-1}), a degreewise-free complex with a surjective
quasi-isomorphism onto B, and ``gamma`` computes it exactly so: as the
middle and right map of the second factorization of 0 -> B.

Both constructions are functorial: ``naturality_map`` sends a commuting
square f' o a = b o f to the map of middles that is, summand by summand, the
functor that made the summand applied to a or b.

Every factorization is certified at construction through ``zchain.certify``:
d^2 = 0, the projection is a chain map, the composite equals f exactly, and
the two pieces classify as promised.  The inclusion of A is correct by
construction and built unchecked.
"""

from __future__ import annotations

from . import certify
from .errors import InfiniteGroup, PreconditionFailed
from .abelian import GroupHom
from .complexes import ChainComplex, ChainMap, block_complex, zero_chain_map, zero_complex
from .groupring import IGroup, I2Group, I2_map, I_map, build_I, build_I2
from .intlinalg import IntMatrix, blockdiag, hstack
from .lifting import LiftProblem
from .modelcls import MapClassification, classify


class Factorization:
    """f = right o left through the middle complex, with labelled summands.

    summands maps each degree to a tuple of (kind, source_degree, ngens)
    triples in coordinate order, recording which block of the middle complex
    came from which functor applied to which degree.
    """

    def __init__(self, middle: ChainComplex, left: ChainMap, right: ChainMap, summands: dict,
                 left_classification: MapClassification,
                 right_classification: MapClassification):
        self.middle = middle
        self.left = left
        self.right = right
        self.summands = summands
        self.left_classification = left_classification
        self.right_classification = right_classification


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
            self._i2[n] = build_I2(self.i(n))
        return self._i2[n]

    def i_diff(self, n) -> GroupHom:
        # I applied to d: I(B_n) -> I(B_{n-1})
        if n not in self._i_maps:
            self._i_maps[n] = I_map(self.complex.diff(n), self.i(n), self.i(n - 1))
        return self._i_maps[n]

    def i2_diff(self, n) -> GroupHom:
        if n not in self._i2_maps:
            self._i2_maps[n] = I2_map(self.complex.diff(n), self.i2(n), self.i2(n - 1))
        return self._i2_maps[n]


def _check_finite(c, name):
    for n in c.degrees():
        if not c.group(n).is_finite():
            raise InfiniteGroup(f"{name} has an infinite group in degree {n}")


def _certified(name, f, middle, layouts, p, labels, kinds):
    """f = p o (inclusion of the A summand), certified; labels give each part
    a kind and a degree shift, kinds the promised (left, right) classes."""
    left = ChainMap(f.src, middle, {n: layouts[n].inclusion(0).matrix for n in f.src.degrees()})
    summands = {n: tuple((kind, n + shift, g.ngens) for (kind, shift), g in zip(labels, ds.parts))
                for n, ds in layouts.items()}
    certify.equal_maps(p @ left, f, name, "factorization composite does not reproduce the map")
    certify.classified(left, kinds[0], name, "left piece")
    certify.classified(p, kinds[1], name, "right piece")
    return Factorization(middle, left, p, summands, classify(left), classify(p))


def _projection(name, middle, layouts, f, theta_part, ib):
    """middle -> B: f on the A summand, theta on the I(B_n) summand, zero
    elsewhere; certified as a chain map under the construction name."""
    b = f.dst
    comps = {}
    for n in middle.degrees():
        cols = [IntMatrix.zeros(b.group(n).ngens, g.ngens) for g in layouts[n].parts]
        cols[0] = f.component(n).matrix
        cols[theta_part] = ib.i(n).theta_restricted.matrix
        comps[n] = hstack(cols)
    p = ChainMap(middle, b, comps)
    certify.chain_map(p, name)
    return p


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
    w, layouts = block_complex(
        min(los), max(his),
        lambda n: [a.group(n), ib.i(n).free, ib.i(n + 1).free],
        lambda n: {(0, 0): a.diff(n).matrix,
                   (1, 1): ib.i_diff(n).matrix,
                   (2, 1): -IntMatrix.identity(ib.i(n).rank),
                   (2, 2): -ib.i_diff(n + 1).matrix})
    p = _projection("factor_acf_fib", w, layouts, f, 1, ib)
    return _certified("factor_acf_fib", f, w, layouts, p,
                      (("A", 0), ("I(B)", 0), ("I(B)", 1)), ("acyclic_cofibration", "fibration"))


def _cof_afb(name, f, max_rank):
    """The middle X of the second factorization with its layouts and p: X -> B,
    for f between degreewise finite complexes, not both zero; name is the
    construction that p is certified under."""
    a, b = f.src, f.dst
    ia = _IData(a, max_rank)
    ib = _IData(b, max_rank)
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
    if2_maps = {n: I2_map(f.component(n), ia.i2(n), ib.i2(n)) for n in range(lo - 1, hi + 1)}
    # d(a)            = da
    # d(alpha')       = theta(alpha') - d alpha' (shifted) - I(f)(alpha')
    # d(alpha'')      = alpha'' + d alpha'' (shifted) + I^2(f)(alpha'')
    # d(beta)         = d beta
    # d(beta')        = beta' - d beta' (shifted)
    x, layouts = block_complex(
        lo, hi,
        lambda n: [a.group(n), ia.i(n - 1).free, ia.i2(n - 2).free, ib.i(n).free,
                   ib.i2(n - 1).free],
        lambda n: {(0, 0): a.diff(n).matrix,
                   (0, 1): ia.i(n - 1).theta_restricted.matrix,
                   (1, 1): -ia.i_diff(n - 1).matrix,
                   (3, 1): -if_maps[n - 1].matrix,
                   (1, 2): ia.i2(n - 2).inclusion_matrix,
                   (2, 2): ia.i2_diff(n - 2).matrix,
                   (4, 2): if2_maps[n - 2].matrix,
                   (3, 3): ib.i_diff(n).matrix,
                   (3, 4): ib.i2(n - 1).inclusion_matrix,
                   (4, 4): -ib.i2_diff(n - 1).matrix})
    return x, layouts, _projection(name, x, layouts, f, 3, ib)


def factor_cof_afb(f: ChainMap, max_rank=None) -> Factorization:
    """f = (acyclic fibration) o (cofibration) through X."""
    _check_finite(f.src, "source")
    _check_finite(f.dst, "target")
    if f.src.support is None and f.dst.support is None:
        return _trivial_factorization(f)
    x, layouts, p = _cof_afb("factor_cof_afb", f, max_rank)
    return _certified("factor_cof_afb", f, x, layouts, p,
                      (("A", 0), ("I(A)", -1), ("I2(A)", -2), ("I(B)", 0), ("I2(B)", -1)),
                      ("cofibration", "acyclic_fibration"))


def gamma(b: ChainComplex, max_rank=None):
    """Cofibrant replacement: Gamma(b)_n = I(b_n) + I^2(b_{n-1}) with
    d(beta + beta') = d beta + beta' - d beta' (second summand shifted) and
    the surjective quasi-isomorphism p(beta + beta') = theta(beta); the
    middle and right map of the second factorization of 0 -> b."""
    _check_finite(b, "complex")
    if b.support is None:
        z = zero_complex()
        return z, zero_chain_map(z, b)
    g, _, p = _cof_afb("gamma", zero_chain_map(zero_complex(), b), max_rank)
    certify.check(g.is_degreewise_free(), "gamma", "replacement is not degreewise free")
    certify.classified(p, "acyclic_fibration", "gamma", "replacement projection")
    return g, p


def _trivial_factorization(f):
    cls = classify(f)
    return Factorization(f.src, ChainMap(f.src, f.src, {}), f, {}, cls, cls)


def naturality_map(fact, fact2, a: ChainMap, b: ChainMap) -> ChainMap:
    """The map fact.middle -> fact2.middle that the commuting square
    f' o a = b o f induces, for factorizations fact of f and fact2 of f' of
    one kind.

    In each degree it is the block diagonal over fact.summands: an A summand
    goes by a, an I or I^2 summand by I_map or I2_map of a or b in the
    summand's source degree.  A square whose corners do not meet or that does
    not commute, or factorizations of two kinds, raise PreconditionFailed
    with the least failing degree.  The map is certified as a chain map that
    commutes with both left and both right pieces.
    """
    # the naturality square is a lifting square with top a and bottom b
    LiftProblem(fact.right @ fact.left, fact2.right @ fact2.left, a, b)
    ends = {"A": (a, _IData(a.src), _IData(a.dst)), "B": (b, _IData(b.src), _IData(b.dst))}

    def block(kind, d):
        g, src, dst = ends["B" if kind.endswith("(B)") else "A"]
        if kind.startswith("I2"):
            return I2_map(g.component(d), src.i2(d), dst.i2(d)).matrix
        if kind.startswith("I"):
            return I_map(g.component(d), src.i(d), dst.i(d)).matrix
        return g.component(d).matrix

    comps = {}
    for n, parts in fact.summands.items():
        parts2 = fact2.summands.get(n)
        if parts2 is None:
            continue
        if [p[:2] for p in parts] != [p[:2] for p in parts2]:
            raise PreconditionFailed("factorizations are not of one kind", n)
        comps[n] = blockdiag(block(kind, d) for kind, d, _ in parts)
    m = ChainMap(fact.middle, fact2.middle, comps)
    certify.chain_map(m, "naturality_map")
    certify.equal_maps(m @ fact.left, fact2.left @ a, "naturality_map",
                       "map of middles does not commute with the left pieces")
    certify.equal_maps(fact2.right @ m, b @ fact.right, "naturality_map",
                       "map of middles does not commute with the right pieces")
    return m
