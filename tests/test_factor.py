import random

import pytest

from zchain.abelian import DirectSum, free_group, is_isomorphic, mk_group, mk_hom
from zchain.complexes import (
    identity_chain_map,
    induced_map,
    kernel_complex,
    cokernel_complex,
    mk_chain_map,
    mk_complex,
    zero_chain_map,
    zero_complex,
)
from zchain.documents import complex_to_doc, map_to_doc
from zchain.errors import InfiniteGroup
from zchain.factor import factor_acf_fib, factor_cof_afb, gamma
from zchain.groupring import I2_map, I_map, build_I, build_I2
from zchain.intlinalg import IntMatrix
from zchain.modelcls import classify

from helpers import Zmod, sphere, random_hom
from zchain.randgen import random_finite_complex, random_finite_chain_map


def test_factor_acf_fib_examples():
    s2 = sphere(0, Zmod(2))
    f = zero_chain_map(zero_complex(), s2)
    fact = factor_acf_fib(f)
    w = fact.middle
    assert w.support == (-1, 0)
    assert w.group(0).free_rank == 1 and w.group(-1).free_rank == 1
    assert w.diff(0).matrix == IntMatrix.from_rows([[-1]])
    assert w.is_acyclic()
    assert fact.right_classification.fibration

    fact = factor_acf_fib(identity_chain_map(s2))
    w = fact.middle
    assert w.group(0).ngens == 2  # Z/2 generator plus one free I coordinate
    assert w.homology(0).group.invariant_factors == (2,)
    assert fact.left_classification.quasi_iso

    fact = factor_acf_fib(zero_chain_map(zero_complex(), zero_complex()))
    assert fact.middle.is_zero()


def test_factor_acf_fib_contract():
    rng = random.Random("acf-fib")
    for _ in range(15):
        f = random_finite_chain_map(rng)
        fact = factor_acf_fib(f)
        assert (fact.right @ fact.left) == f
        assert fact.left_classification.acyclic_cofibration
        assert fact.right_classification.fibration


def test_factor_cof_afb_reduces_to_gamma():
    # gamma is computed as this factorization; the documents pin every byte
    rng = random.Random("cof-afb-gamma")
    for _ in range(20):
        b = random_finite_complex(rng)
        fact = factor_cof_afb(zero_chain_map(zero_complex(), b))
        g, p = gamma(b)
        assert complex_to_doc(fact.middle) == complex_to_doc(g)
        assert map_to_doc(fact.right) == map_to_doc(p)


def test_factor_cof_afb_contract():
    rng = random.Random("cof-afb")
    for _ in range(12):
        f = random_finite_chain_map(rng)
        fact = factor_cof_afb(f)
        assert (fact.right @ fact.left) == f
        assert fact.left_classification.cofibration
        assert fact.right_classification.acyclic_fibration


def test_factor_cof_afb_infinite_rejected():
    f = identity_chain_map(sphere(0, free_group(1)))
    with pytest.raises(InfiniteGroup):
        factor_cof_afb(f)


def test_gamma_golden():
    g, p = gamma(sphere(0, Zmod(2)))
    assert g.support == (0, 1)
    assert g.group(0) == free_group(1)
    assert g.group(1) == free_group(1)
    assert g.diff(1).matrix == IntMatrix.from_rows([[2]])
    assert g.homology(0).group.invariant_factors == (2,)
    assert g.homology(1).group.is_trivial()
    assert p.component(0).matrix == IntMatrix.from_rows([[1]])

    gz, pz = gamma(zero_complex())
    assert gz.is_zero()

    g3, p3 = gamma(sphere(0, Zmod(3)))
    assert g3.group(0).free_rank == 2 and g3.group(1).free_rank == 2
    ck, _ = cokernel_complex(mk_chain_map(
        mk_complex((1, 1), {1: g3.group(1)}, {}),
        mk_complex((0, 0), {0: g3.group(0)}, {}),
        {}))
    coker_d = mk_group(2, g3.diff(1).matrix)
    assert coker_d.invariant_factors == (3,)


def test_gamma_contract():
    rng = random.Random("gamma-contract")
    for _ in range(10):
        b = random_finite_complex(rng)
        g, p = gamma(b)
        assert g.is_degreewise_free()
        cls = classify(p)
        assert cls.surjective
        for n in set(g.window(1)) | set(b.window(1)):
            assert induced_map(p, n).is_iso()


def test_double_complex_totalization():
    # the two column maps compose to zero, and totalizing the double complex
    # (with the sign -1 on the middle column) reproduces the cof/afb middle
    # complex coordinate for coordinate
    rng = random.Random("double-complex")
    for _ in range(6):
        f = random_finite_chain_map(rng)
        fact = factor_cof_afb(f)
        x = fact.middle
        a, b = f.src, f.dst
        window = list(range(x.support[0] - 3, x.support[1] + 2))
        ia = {m: build_I(a.group(m)) for m in window}
        i2a = {m: build_I2(ia[m]) for m in window}
        ib = {m: build_I(b.group(m)) for m in window}
        i2b = {m: build_I2(ib[m]) for m in window}

        def imap(m):
            return I_map(f.component(m), ia[m], ib[m]).matrix

        def i2map(m):
            return I2_map(f.component(m), i2a[m], i2b[m]).matrix

        # composites vanish at every degree m:
        # theta o j = 0 (as a hom into A)   and   I(f) o j = j o I^2(f)
        for m in window:
            j_hom = mk_hom(i2a[m].free, ia[m].free, i2a[m].inclusion_matrix)
            assert (ia[m].theta_restricted @ j_hom).is_zero()
            assert (imap(m) @ i2a[m].inclusion_matrix
                    - i2b[m].inclusion_matrix @ i2map(m)).is_zero()

        def ida(m):
            return I_map(a.diff(m), ia[m], ia[m - 1]).matrix

        def idb(m):
            return I_map(b.diff(m), ib[m], ib[m - 1]).matrix

        def i2da(m):
            return I2_map(a.diff(m), i2a[m], i2a[m - 1]).matrix

        def i2db(m):
            return I2_map(b.diff(m), i2b[m], i2b[m - 1]).matrix

        for n in x.degrees():
            if n == x.support[0]:
                continue
            src = DirectSum([a.group(n), ia[n - 1].free, i2a[n - 2].free,
                             ib[n].free, i2b[n - 1].free])
            dst = DirectSum([a.group(n - 1), ia[n - 2].free, i2a[n - 3].free,
                             ib[n - 1].free, i2b[n - 2].free])
            expected = dst.block_matrix(src, {
                (0, 0): a.diff(n).matrix,
                (3, 3): idb(n),
                (1, 1): -ida(n - 1),
                (4, 4): -i2db(n - 1),
                (2, 2): i2da(n - 2),
                (0, 1): ia[n - 1].theta_restricted.matrix,
                (3, 1): -imap(n - 1),
                (1, 2): i2a[n - 2].inclusion_matrix,
                (4, 2): i2map(n - 2),
                (3, 4): i2b[n - 1].inclusion_matrix,
            })
            assert expected == x.diff(n).matrix


def test_filtration_of_projection_kernel():
    # inside the cof/afb middle complex, the canonical subcomplexes
    # Z (both I^2(B) strands) and Y (Z plus both I^2(A) strands) filter the
    # kernel K of the projection; Z, Y/Z and K/Y are all acyclic, hence K is
    rng = random.Random("filtration")
    from zchain.abelian import factor_through

    for _ in range(6):
        f = random_finite_chain_map(rng, max_pieces=2)
        fact = factor_cof_afb(f)
        x = fact.middle
        if x.support is None:
            continue
        a, b = f.src, f.dst
        data = _i_square_data(f, x)
        z_cx, z_in_x = _z_subcomplex(x, b, data)
        y_cx, y_in_x = _y_subcomplex(x, a, b, f, data)
        assert z_cx.is_acyclic()
        k_cx, k_in_x = kernel_complex(fact.right)
        assert k_cx.is_acyclic()
        # factor the inclusions through each other and take quotients
        z_in_y = mk_chain_map(z_cx, y_cx, {
            n: factor_through(y_in_x.component(n), z_in_x.component(n))
            for n in z_cx.degrees()})
        y_in_k = mk_chain_map(y_cx, k_cx, {
            n: factor_through(k_in_x.component(n), y_in_x.component(n))
            for n in y_cx.degrees()})
        y_mod_z, _ = cokernel_complex(z_in_y)
        k_mod_y, _ = cokernel_complex(y_in_k)
        assert y_mod_z.is_acyclic()
        assert k_mod_y.is_acyclic()


def _i_square_data(f, x):
    """I and I^2 groups of both sides over the middle complex window."""
    window = range(x.support[0] - 3, x.support[1] + 2)
    ia = {m: build_I(f.src.group(m)) for m in window}
    ib = {m: build_I(f.dst.group(m)) for m in window}
    return {
        "ia": ia,
        "ib": ib,
        "i2a": {m: build_I2(ia[m]) for m in window},
        "i2b": {m: build_I2(ib[m]) for m in window},
    }


def _z_subcomplex(x, b, data):
    """Both I^2(B) strands: degree n holds I^2(B_n) + I^2(B_{n-1})."""
    i2b = data["i2b"]
    lo, hi = x.support
    layouts = {n: DirectSum([i2b[n].free, i2b[n - 1].free])
               for n in range(lo, hi + 1)}
    groups = {n: layouts[n].group for n in layouts}

    def i2db(m):
        return I2_map(b.diff(m), i2b[m], i2b[m - 1]).matrix

    diffs = {}
    for n in range(lo + 1, hi + 1):
        diffs[n] = layouts[n - 1].block_matrix(layouts[n], {
            (0, 0): i2db(n),
            (0, 1): IntMatrix.identity(i2b[n - 1].rank),
            (1, 1): -i2db(n - 1),
        })
    z_cx = mk_complex((lo, hi), groups, diffs)
    incl = {n: _z_inclusion_matrix(x, b, data, n) for n in z_cx.degrees()}
    z_in_x = mk_chain_map(z_cx, x, incl)
    return z_cx, z_in_x


def _z_inclusion_matrix(x, b, data, n):
    i2b = data["i2b"]
    # ambient coordinates: I^2(B_n) sits inside the I(B_n) slot, and the
    # I^2(B_{n-1}) strand is the fifth slot itself
    a_gens = x.group(n).ngens
    ib_rank = data["ib"][n].rank
    offset_ib = a_gens - ib_rank - i2b[n - 1].rank
    rows = [[0] * (i2b[n].rank + i2b[n - 1].rank) for _ in range(a_gens)]
    inc = i2b[n].inclusion_matrix
    for r in range(inc.rows):
        for c in range(inc.cols):
            rows[offset_ib + r][c] = inc.data[r][c]
    for j in range(i2b[n - 1].rank):
        rows[offset_ib + ib_rank + j][i2b[n].rank + j] = 1
    return IntMatrix(a_gens, i2b[n].rank + i2b[n - 1].rank, rows)


def _y_subcomplex(x, a, b, f, data):
    """Z plus both I^2(A) strands: I^2(A_{n-1}) + I^2(A_{n-2}) + Z_n."""
    ia, i2a = data["ia"], data["i2a"]
    ib, i2b = data["ib"], data["i2b"]
    lo, hi = x.support
    layouts = {n: DirectSum([i2a[n - 1].free, i2a[n - 2].free,
                             i2b[n].free, i2b[n - 1].free])
               for n in range(lo, hi + 1)}
    groups = {n: layouts[n].group for n in layouts}

    def i2da(m):
        return I2_map(a.diff(m), i2a[m], i2a[m - 1]).matrix

    def i2db(m):
        return I2_map(b.diff(m), i2b[m], i2b[m - 1]).matrix

    def i2f(m):
        return I2_map(f.component(m), i2a[m], i2b[m]).matrix

    diffs = {}
    for n in range(lo + 1, hi + 1):
        diffs[n] = layouts[n - 1].block_matrix(layouts[n], {
            # alpha' in I^2(A_{n-1}): theta vanishes, so only the shifted
            # differential and the image inside I^2(B_{n-1}) survive
            (0, 0): -i2da(n - 1),
            (2, 0): -i2f(n - 1),
            # alpha'' in I^2(A_{n-2})
            (0, 1): IntMatrix.identity(i2a[n - 2].rank),
            (1, 1): i2da(n - 2),
            (3, 1): i2f(n - 2),
            # the Z strands, as in the Z subcomplex
            (2, 2): i2db(n),
            (2, 3): IntMatrix.identity(i2b[n - 1].rank),
            (3, 3): -i2db(n - 1),
        })
    y_cx = mk_complex((lo, hi), groups, diffs)
    incl = {}
    for n in y_cx.degrees():
        incl[n] = _y_inclusion_matrix(x, a, b, data, n)
    y_in_x = mk_chain_map(y_cx, x, incl)
    return y_cx, y_in_x


def _y_inclusion_matrix(x, a, b, data, n):
    ia, i2a = data["ia"], data["i2a"]
    ib, i2b = data["ib"], data["i2b"]
    total = x.group(n).ngens
    cols_cnt = (i2a[n - 1].rank + i2a[n - 2].rank + i2b[n].rank + i2b[n - 1].rank)
    rows = [[0] * cols_cnt for _ in range(total)]
    a_gens = a.group(n).ngens
    off_ia = a_gens
    off_i2a = off_ia + ia[n - 1].rank
    off_ib = off_i2a + i2a[n - 2].rank
    off_i2b = off_ib + ib[n].rank
    col = 0
    inc_a = i2a[n - 1].inclusion_matrix
    for c in range(inc_a.cols):
        for r in range(inc_a.rows):
            rows[off_ia + r][col] = inc_a.data[r][c]
        col += 1
    for j in range(i2a[n - 2].rank):
        rows[off_i2a + j][col] = 1
        col += 1
    inc_b = i2b[n].inclusion_matrix
    for c in range(inc_b.cols):
        for r in range(inc_b.rows):
            rows[off_ib + r][col] = inc_b.data[r][c]
        col += 1
    for j in range(i2b[n - 1].rank):
        rows[off_i2b + j][col] = 1
        col += 1
    return IntMatrix(total, cols_cnt, rows)


def test_functorial_on_squares():
    # a commutative square (a, b) between maps induces middle-to-middle
    # comparison maps assembled functorially, commuting with both legs
    from zchain.complexes import identity_chain_map
    from zchain.randgen import random_finite_complex, random_map_out, rng_for

    for case in range(5):
        rng = rng_for("factor-natural", case)
        f, src_ps, dst_ps = random_finite_chain_map(rng, max_pieces=2,
                                                    with_structure=True)
        b_target = random_finite_complex(rng, max_pieces=2)
        b_vert = random_map_out(rng, dst_ps, b_target)
        fprime = b_vert @ f
        a_vert = identity_chain_map(f.src)

        fact = factor_acf_fib(f)
        fact2 = factor_acf_fib(fprime)
        w_nat = _w_naturality_map(f, fprime, a_vert, b_vert, fact, fact2)
        assert (w_nat @ fact.left) == (fact2.left @ a_vert)
        assert (fact2.right @ w_nat) == (b_vert @ fact.right)

        xf = factor_cof_afb(f)
        xf2 = factor_cof_afb(fprime)
        x_nat = _x_naturality_map(f, fprime, a_vert, b_vert, xf, xf2)
        assert (x_nat @ xf.left) == (xf2.left @ a_vert)
        assert (xf2.right @ x_nat) == (b_vert @ xf.right)


def _w_naturality_map(f, fprime, a_vert, b_vert, fact, fact2):
    comps = {}
    for n in set(fact.middle.degrees()) | set(fact2.middle.degrees()):
        src_parts = fact.summands.get(n)
        dst_parts = fact2.summands.get(n)
        ia_n = build_I(f.dst.group(n))
        ia2_n = build_I(fprime.dst.group(n))
        ia_n1 = build_I(f.dst.group(n + 1))
        ia2_n1 = build_I(fprime.dst.group(n + 1))
        blocks = {
            (0, 0): a_vert.component(n).matrix,
            (1, 1): I_map(b_vert.component(n), ia_n, ia2_n).matrix,
            (2, 2): I_map(b_vert.component(n + 1), ia_n1, ia2_n1).matrix,
        }
        comps[n] = _assemble(fact.middle, fact2.middle, f, fprime, n, blocks, kind="w")
    return mk_chain_map(fact.middle, fact2.middle, comps)


def _x_naturality_map(f, fprime, a_vert, b_vert, xf, xf2):
    comps = {}
    for n in set(xf.middle.degrees()) | set(xf2.middle.degrees()):
        ia = {m: build_I(f.src.group(m)) for m in (n - 1, n - 2)}
        ia2 = {m: build_I(fprime.src.group(m)) for m in (n - 1, n - 2)}
        ib = build_I(f.dst.group(n))
        ib2 = build_I(fprime.dst.group(n))
        i2b = build_I2(build_I(f.dst.group(n - 1)))
        i2b2 = build_I2(build_I(fprime.dst.group(n - 1)))
        i2a = build_I2(ia[n - 2])
        i2a2 = build_I2(ia2[n - 2])
        blocks = {
            (0, 0): a_vert.component(n).matrix,
            (1, 1): I_map(a_vert.component(n - 1), ia[n - 1], ia2[n - 1]).matrix,
            (2, 2): I2_map(a_vert.component(n - 2), i2a, i2a2).matrix,
            (3, 3): I_map(b_vert.component(n), ib, ib2).matrix,
            (4, 4): I2_map(b_vert.component(n - 1), i2b, i2b2).matrix,
        }
        comps[n] = _assemble(xf.middle, xf2.middle, f, fprime, n, blocks, kind="x")
    return mk_chain_map(xf.middle, xf2.middle, comps)


def _assemble(src_c, dst_c, f, fprime, n, blocks, kind):
    if kind == "w":
        src_parts = [f.src.group(n), build_I(f.dst.group(n)).free,
                     build_I(f.dst.group(n + 1)).free]
        dst_parts = [fprime.src.group(n), build_I(fprime.dst.group(n)).free,
                     build_I(fprime.dst.group(n + 1)).free]
    else:
        src_parts = [
            f.src.group(n),
            build_I(f.src.group(n - 1)).free,
            build_I2(build_I(f.src.group(n - 2))).free,
            build_I(f.dst.group(n)).free,
            build_I2(build_I(f.dst.group(n - 1))).free,
        ]
        dst_parts = [
            fprime.src.group(n),
            build_I(fprime.src.group(n - 1)).free,
            build_I2(build_I(fprime.src.group(n - 2))).free,
            build_I(fprime.dst.group(n)).free,
            build_I2(build_I(fprime.dst.group(n - 1))).free,
        ]
    src_ds = DirectSum(src_parts)
    dst_ds = DirectSum(dst_parts)
    return dst_ds.block_matrix(src_ds, blocks)
