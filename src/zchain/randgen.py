"""Seeded random generators for groups, complexes, chain maps, and squares.

Everything here is a pure function of the random.Random passed in, so a
fixed seed reproduces identical objects; the verification suite derives one
generator per case from (seed, case index).
"""

from __future__ import annotations

import random

from .abelian import free_group, kernel, mk_group, mk_hom, preimage_lattice
from .complexes import (
    ChainComplex,
    disk,
    dsum_chain_maps,
    dsum_complex,
    map_from_disk,
    mk_chain_map,
    mk_complex,
    sphere,
    zero_chain_map,
    zero_complex,
)
from .factor import factor_acf_fib, factor_cof_afb
from .intlinalg import IntMatrix, kernel_basis, snf


def rng_for(seed, case):
    return random.Random(f"{seed}:{case}")


_TORSION = (1, 2, 2, 3, 4, 4, 6, 8)


def random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            m[i][k] += c * m[j][k]
    if n > 1 and rng.random() < 0.5:
        i, j = rng.sample(range(n), 2)
        m[i], m[j] = m[j], m[i]
    return IntMatrix(n, n, m)


def random_finite_group(rng, max_order=8):
    ngens = rng.choice([1, 1, 1, 2])
    ds = []
    budget = max_order
    for _ in range(ngens):
        options = [d for d in _TORSION if d <= budget]
        d = rng.choice(options) if options else 1
        ds.append(d)
        budget //= max(d, 1)
    g = len(ds)
    diag = IntMatrix(g, g, [[ds[i] if i == j else 0 for j in range(g)] for i in range(g)])
    rel = random_unimodular(rng, g) @ diag @ random_unimodular(rng, g)
    return mk_group(g, rel)


class _OrderBudget:
    """Caps the total group order materialized per degree, so that the
    group-ring ranks |G|-1 stay at desk scale even across direct sums."""

    def __init__(self, max_order):
        self.max_order = max_order
        self.left = {}

    def take(self, rng, degree):
        budget = self.left.get(degree, self.max_order)
        g = random_finite_group(rng, budget)
        order = g.order()
        self.left[degree] = max(1, budget // max(order, 1))
        return g


def random_element(rng, g):
    return g.canon(tuple(rng.randrange(-3, 4) for _ in range(g.ngens)))


def random_hom(rng, src, dst):
    """Random well-defined hom, chosen on a basis adapted to the source."""
    res = snf(src.relations)
    cols = []
    n = min(src.relations.rows, src.relations.cols)
    for i in range(src.ngens):
        d = res.D.data[i][i] if i < n else 0
        cols.append(list(_element_of_order(rng, dst, d)))
    images = IntMatrix.from_cols(cols, rows=dst.ngens)
    return mk_hom(src, dst, images @ res.U)


def _element_of_order(rng, g, d):
    """Random x with d*x = 0 in g (any element when d = 0)."""
    if g.ngens == 0:
        return ()
    if d == 0:
        return random_element(rng, g)
    lat = preimage_lattice(IntMatrix.identity(g.ngens).scale(d), g.rel_rows)
    v = [0] * g.ngens
    for j in range(lat.cols):
        c = rng.randrange(-2, 3)
        if c:
            col = lat.col(j)
            v = [a + c * b for a, b in zip(v, col)]
    return g.canon(tuple(v))


class PieceSum:
    """Direct sum of elementary complexes with its inclusion/projection maps.

    pieces records, per summand, a descriptor ("sphere", n, group) or
    ("disk", n, group) when maps out of that summand are easy to build, and
    ("opaque", None, None) otherwise.
    """

    def __init__(self, complex: ChainComplex, pieces: list, incls: list, projs: list):
        self.complex = complex
        self.pieces = pieces
        self.incls = incls
        self.projs = projs


def random_finite_complex(rng, max_order=8, lo=-3, hi=3, max_pieces=3, with_pieces=False):
    npieces = rng.randrange(1, max_pieces + 1)
    budget = _OrderBudget(max_order)
    parts = []
    descr = []
    for _ in range(npieces):
        kind = rng.choice(["sphere", "sphere", "disk", "disk", "two", "tower", "modfree"])
        n = rng.randrange(lo, hi - 2)
        if kind == "sphere":
            m = budget.take(rng, n)
            parts.append(sphere(n, m))
            descr.append(("sphere", n, m))
        elif kind == "disk":
            m = budget.take(rng, n)
            budget.left[n + 1] = max(1, budget.left.get(n + 1, max_order) // max(m.order(), 1))
            parts.append(disk(n, m))
            descr.append(("disk", n, m))
        elif kind == "two":
            m = budget.take(rng, n + 1)
            p = budget.take(rng, n)
            u = random_hom(rng, m, p)
            parts.append(mk_complex((n, n + 1), {n + 1: m, n: p}, {n + 1: u.matrix}))
            descr.append(("opaque", None, None))
        elif kind == "tower":
            m = budget.take(rng, n + 2)
            p = budget.take(rng, n + 1)
            q = budget.take(rng, n)
            b = random_hom(rng, p, q)
            kgrp, incl = kernel(b)
            u = random_hom(rng, m, kgrp)
            a = incl @ u
            parts.append(mk_complex((n, n + 2), {n + 2: m, n + 1: p, n: q},
                                    {n + 2: a.matrix, n + 1: b.matrix}))
            descr.append(("opaque", None, None))
        else:
            f = random_free_complex(rng, max_rank=1, lo=n, length=2)
            mod = rng.choice([2, 3, 4])
            groups = {}
            ok = True
            for k in f.degrees():
                r = f.group(k).ngens
                if mod ** r > budget.left.get(k, max_order):
                    ok = False
                    break
                groups[k] = mk_group(r, IntMatrix.identity(r).scale(mod))
            if not ok:
                continue
            for k in groups:
                budget.left[k] = max(1, budget.left.get(k, max_order)
                                     // max(mod ** groups[k].ngens, 1))
            diffs = {k: f.diff(k).matrix for k in f.degrees() if k > f.support[0]}
            parts.append(mk_complex(f.support, groups, diffs))
            descr.append(("opaque", None, None))
    if not parts:
        parts.append(sphere(lo, random_finite_group(rng, max_order)))
        descr.append(("sphere", lo, parts[0].group(lo)))
    total, incls, projs = dsum_complex(parts)
    ps = PieceSum(total, descr, incls, projs)
    if with_pieces:
        return ps
    return ps.complex


def random_free_complex(rng, max_rank=3, lo=None, length=None):
    """Bounded degreewise-free complex, built downward from a random top map."""
    if lo is None:
        lo = rng.randrange(-3, 1)
    if length is None:
        length = rng.randrange(1, 4)
    ranks = [rng.randrange(0, max_rank + 1) for _ in range(length + 1)]
    groups = {lo + k: free_group(ranks[k]) for k in range(length + 1)}
    diffs = {}
    prev = None
    for k in range(length, 0, -1):
        n = lo + k
        r_src, r_dst = ranks[k], ranks[k - 1]
        if prev is None:
            m = IntMatrix(r_dst, r_src,
                          [[rng.randrange(-2, 3) for _ in range(r_src)] for _ in range(r_dst)])
        else:
            w = kernel_basis(prev.transpose())
            coeff = IntMatrix(r_dst, w.cols,
                              [[rng.randrange(-2, 3) for _ in range(w.cols)] for _ in range(r_dst)])
            m = coeff @ w.transpose()
        prev = m
        diffs[n] = m
    return mk_complex((lo, lo + length), groups, diffs)


def random_map_out(rng, ps, target, max_order=8):
    """Random chain map out of a piece sum, assembled summand by summand."""
    h = zero_chain_map(ps.complex, target)
    for k, (kind, n, m) in enumerate(ps.pieces):
        if kind == "sphere":
            zc, incl = kernel(target.diff(n))
            if zc.ngens == 0:
                continue
            u = random_hom(rng, m, zc)
            piece_map = mk_chain_map(ps.projs[k].dst, target, {n: (incl @ u).matrix})
        elif kind == "disk":
            if target.group(n + 1).ngens == 0:
                continue
            v = random_hom(rng, m, target.group(n + 1))
            piece_map = map_from_disk(target, n, v)
        else:
            continue
        h = h + (piece_map @ ps.projs[k])
    return h


def random_finite_chain_map(rng, max_order=8, lo=-3, hi=3, max_pieces=3,
                            with_structure=False):
    """Random map between degreewise-finite complexes: a block sum of
    elementary maps, optionally enriched by off-diagonal components."""
    npieces = rng.randrange(1, max_pieces + 1)
    src_budget = _OrderBudget(max_order)
    dst_budget = _OrderBudget(max_order)
    srcs = []
    dsts = []
    blocks = []
    src_descr = []
    dst_descr = []
    for _ in range(npieces):
        kind = rng.choice(["sphere", "disk", "incl", "proj", "zero_to", "to_zero"])
        n = rng.randrange(lo, hi - 1)
        m = src_budget.take(rng, n)
        src_budget.left[n + 1] = max(1, src_budget.left.get(n + 1, max_order)
                                     // max(m.order(), 1))
        p = dst_budget.take(rng, n)
        dst_budget.left[n + 1] = max(1, dst_budget.left.get(n + 1, max_order)
                                     // max(p.order(), 1))
        u = random_hom(rng, m, p).matrix
        if kind == "sphere":
            src, dst, comps = sphere(n, m), sphere(n, p), {n: u}
            src_descr.append(("sphere", n, m))
            dst_descr.append(("sphere", n, p))
        elif kind == "disk":
            src, dst, comps = disk(n, m), disk(n, p), {n: u, n + 1: u}
            src_descr.append(("disk", n, m))
            dst_descr.append(("disk", n, p))
        elif kind == "incl":
            src, dst, comps = sphere(n, m), disk(n, p), {n: u}
            src_descr.append(("sphere", n, m))
            dst_descr.append(("disk", n, p))
        elif kind == "proj":
            src, dst, comps = disk(n, m), sphere(n + 1, p), {n + 1: u}
            src_descr.append(("disk", n, m))
            dst_descr.append(("sphere", n + 1, p))
        elif kind == "zero_to":
            src, dst, comps = zero_complex(), sphere(n, p), {}
            src_descr.append(("opaque", None, None))
            dst_descr.append(("sphere", n, p))
        else:
            src, dst, comps = sphere(n, m), zero_complex(), {}
            src_descr.append(("sphere", n, m))
            dst_descr.append(("opaque", None, None))
        srcs.append(src)
        dsts.append(dst)
        blocks.append(mk_chain_map(src, dst, comps))
    a, a_incls, a_projs = dsum_complex(srcs)
    b, b_incls, b_projs = dsum_complex(dsts)
    f = zero_chain_map(a, b)
    for k in range(npieces):
        f = f + (b_incls[k] @ blocks[k] @ a_projs[k])
    # enrich with an off-diagonal elementary component now and then
    if npieces > 1 and rng.random() < 0.6:
        i, j = rng.sample(range(npieces), 2)
        ps = PieceSum(a, src_descr, a_incls, a_projs)
        extra = random_map_out(rng, _single_piece(ps, i), dsts[j], max_order)
        f = f + (b_incls[j] @ extra)
    if with_structure:
        return (f,
                PieceSum(a, src_descr, a_incls, a_projs),
                PieceSum(b, dst_descr, b_incls, b_projs))
    return f


def _single_piece(ps, i):
    return PieceSum(ps.complex, [p if k == i else ("opaque", None, None)
                                 for k, p in enumerate(ps.pieces)],
                    ps.incls, ps.projs)


def random_free_cofibration(rng, acyclic=False, max_rank=2):
    """Injective map with free cokernel: A -> A + U twisted by a nullhomotopic
    shear.  With acyclic=True the cokernel is a sum of disks, so the map is an
    acyclic cofibration."""
    a = random_free_complex(rng, max_rank=max_rank)
    if acyclic:
        parts = []
        for _ in range(rng.randrange(1, 3)):
            n = rng.randrange(-3, 2)
            parts.append(disk(n, free_group(rng.randrange(1, max_rank + 1))))
        u, _, _ = dsum_complex(parts)
    else:
        u = random_free_complex(rng, max_rank=max_rank)
    b, incls, projs = dsum_complex([a, u])
    # nullhomotopic chain map t = d h + h d for random degreewise h: A_n -> U_{n+1}
    hcomp = {n: IntMatrix(u.group(n + 1).ngens, a.group(n).ngens,
                          [[rng.randrange(-1, 2) for _ in range(a.group(n).ngens)]
                           for _ in range(u.group(n + 1).ngens)])
             for n in a.degrees()}

    def hmat(n):
        m = hcomp.get(n)
        if m is None:
            return IntMatrix.zeros(u.group(n + 1).ngens, a.group(n).ngens)
        return m

    tcomps = {}
    for n in a.degrees():
        tcomps[n] = u.diff(n + 1).matrix @ hmat(n) + hmat(n - 1) @ a.diff(n).matrix
    t = mk_chain_map(a, u, tcomps)
    i = incls[0] + (incls[1] @ t)
    return i


def random_acyclic_fibration(rng, max_order=6):
    """Right piece of the cofibration/acyclic-fibration factorization of a
    random map."""
    f = random_finite_chain_map(rng, max_order=max_order, max_pieces=2)
    return factor_cof_afb(f).right


def random_surjective_non_weq(rng, max_order=6):
    """Projection off a nontrivial sphere summand: surjective, never a
    quasi-isomorphism."""
    base = random_finite_complex(rng, max_order=max_order, max_pieces=2)
    n = rng.randrange(-3, 2)
    m = random_finite_group(rng, max_order)
    while m.is_trivial():
        m = random_finite_group(rng, max_order)
    extra = sphere(n, m)
    total, incls, projs = dsum_complex([base, extra])
    return projs[0], n


def random_lift_square(rng, route, max_order=6, depth=0):
    """A commutative square in one of the two liftable configurations.

    route 1: (cofibration, acyclic fibration); route 2: (acyclic cofibration,
    fibration).  Returns (i, q, f, g) with q o f = g o i.
    """
    style = rng.randrange(3) if depth == 0 else rng.randrange(2)
    if style == 2:
        # direct sum of two independent squares stays in the configuration
        s1 = random_lift_square(rng_for_child(rng), route, max_order, depth + 1)
        s2 = random_lift_square(rng_for_child(rng), route, max_order, depth + 1)
        return tuple(dsum_chain_maps([a, b]) for a, b in zip(s1, s2))
    f0 = random_finite_chain_map(rng, max_order=max_order, max_pieces=2)
    fw = factor_acf_fib(f0)
    fx = factor_cof_afb(f0)
    if route == 1:
        if style == 0:
            # mixed square between the two factorizations of the same map
            return fw.left, fx.right, fx.left, fw.right
        return fx.left, fx.right, fx.left, fx.right
    if style == 0:
        return fw.left, fx.right, fx.left, fw.right
    return fw.left, fw.right, fw.left, fw.right


def rng_for_child(rng):
    return random.Random(rng.random())


def random_cycle(rng, x, n):
    """Random cycle vector in degree n."""
    zc, incl = kernel(x.diff(n))
    if zc.ngens == 0:
        return x.group(n).zero()
    v = tuple(rng.randrange(-2, 3) for _ in range(zc.ngens))
    return x.group(n).canon(incl.matrix.mul_vec(v))
