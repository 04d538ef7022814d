import itertools
import random

import pytest

from zchain.abelian import DirectSum, free_group, is_isomorphic, mk_group, mk_hom
from zchain.complexes import (
    ChainMap,
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
from zchain.errors import InfiniteGroup, PreconditionFailed
from zchain.factor import factor_acf_fib, factor_cof_afb, gamma, naturality_map
from zchain.groupring import I2_map, I_map, build_I, build_I2
from zchain.intlinalg import IntMatrix
from zchain.modelcls import classify
from zchain.monoidal_proper import pushout

from helpers import Zmod, sphere, random_hom
from zchain.randgen import random_finite_chain_map, random_finite_complex, random_map_out, rng_for


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
        i2a, i2b = _i2_groups(f, x)
        z_cx, z_in_x = _z_subcomplex(fact, b, i2b)
        y_cx, y_in_x = _y_subcomplex(fact, a, b, f, i2a, i2b)
        assert z_cx.is_acyclic()
        k_cx, k_in_x = kernel_complex(fact.right)
        assert k_cx.is_acyclic()
        # factor the inclusions through each other and take quotients
        z_in_y = mk_chain_map(z_cx, y_cx, {
            n: factor_through(y_in_x.component(n), z_in_x.component(n)).matrix
            for n in z_cx.degrees()})
        y_in_k = mk_chain_map(y_cx, k_cx, {
            n: factor_through(k_in_x.component(n), y_in_x.component(n)).matrix
            for n in y_cx.degrees()})
        y_mod_z, _ = cokernel_complex(z_in_y)
        k_mod_y, _ = cokernel_complex(y_in_k)
        assert y_mod_z.is_acyclic()
        assert k_mod_y.is_acyclic()


def _i2_groups(f, x):
    """The I^2 groups of both sides over the middle complex window."""
    window = range(x.support[0] - 3, x.support[1] + 2)
    return ({m: build_I2(build_I(f.src.group(m))) for m in window},
            {m: build_I2(build_I(f.dst.group(m))) for m in window})


def _middle_layout(fact, n):
    """Degree n of the middle as free parts of the sizes fact.summands
    records; block_matrix reads only the sizes."""
    return DirectSum([free_group(k) for _, _, k in fact.summands[n]])


def _z_subcomplex(fact, b, i2b):
    """Both I^2(B) strands: degree n holds I^2(B_n) + I^2(B_{n-1})."""
    x = fact.middle
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
    # I^2(B_n) sits inside the I(B_n) summand, and the I^2(B_{n-1}) strand
    # is the last summand itself
    incl = {n: _middle_layout(fact, n).block_matrix(layouts[n], {
        (3, 0): i2b[n].inclusion_matrix,
        (4, 1): IntMatrix.identity(i2b[n - 1].rank),
    }) for n in z_cx.degrees()}
    z_in_x = mk_chain_map(z_cx, x, incl)
    return z_cx, z_in_x


def _y_subcomplex(fact, a, b, f, i2a, i2b):
    """Z plus both I^2(A) strands: I^2(A_{n-1}) + I^2(A_{n-2}) + Z_n."""
    x = fact.middle
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
    incl = {n: _middle_layout(fact, n).block_matrix(layouts[n], {
        (1, 0): i2a[n - 1].inclusion_matrix,
        (2, 1): IntMatrix.identity(i2a[n - 2].rank),
        (3, 2): i2b[n].inclusion_matrix,
        (4, 3): IntMatrix.identity(i2b[n - 1].rank),
    }) for n in y_cx.degrees()}
    y_in_x = mk_chain_map(y_cx, x, incl)
    return y_cx, y_in_x


def _squares():
    """Commuting squares f' o a = b o f as (f, f', a, b): five with a the
    identity and b a map out of the target, then twelve pushout squares
    whose a is an endomorphism of the source or a map out of it, neither
    zero nor the identity, and whose f' and b are the legs of pushout(f, a)."""
    for case in range(5):
        rng = rng_for("factor-natural", case)
        f, _, dst_ps = random_finite_chain_map(rng, max_pieces=2, with_structure=True)
        b = random_map_out(rng, dst_ps, random_finite_complex(rng, max_pieces=2))
        yield f, b @ f, identity_chain_map(f.src), b
    found = 0
    for case in itertools.count():
        rng = rng_for("factor-natural-pushout", case)
        f, src_ps, _ = random_finite_chain_map(rng, max_pieces=2, with_structure=True)
        target = f.src if case % 2 else random_finite_complex(rng, max_pieces=2)
        a = random_map_out(rng, src_ps, target)
        if a.is_zero() or a == identity_chain_map(f.src):
            continue
        po = pushout(f, a)
        yield f, po.from_second, a, po.from_first
        found += 1
        if found == 12:
            return


def test_functorial_on_squares():
    # naturality_map certifies itself; the squares against both legs are
    # checked again here, and the identity square must give the identity
    for f, fprime, a, b in _squares():
        for factor in (factor_acf_fib, factor_cof_afb):
            fact, fact2 = factor(f), factor(fprime)
            m = naturality_map(fact, fact2, a, b)
            assert (m @ fact.left) == (fact2.left @ a)
            assert (fact2.right @ m) == (b @ fact.right)
            ident = naturality_map(fact, fact, identity_chain_map(f.src),
                                   identity_chain_map(f.dst))
            assert ident == identity_chain_map(fact.middle)


@pytest.mark.parametrize("factor", [factor_acf_fib, factor_cof_afb])
def test_naturality_map_of_the_trivial_factorization(factor):
    z = zero_complex()
    fact = factor(zero_chain_map(z, z))
    m = naturality_map(fact, fact, zero_chain_map(z, z), zero_chain_map(z, z))
    assert m.src.is_zero() and m.dst.is_zero() and m.is_zero()


def test_naturality_map_refuses_bad_squares():
    # on Z/2 in degrees 1 and 2 with d = 0: f' o a = b o f fails in degree 2,
    # a's source misses f's source in degree 2, and a W middle and an X middle
    # first meet in degree 1
    z2 = Zmod(2)
    s = mk_complex((1, 2), {1: z2, 2: z2}, {})
    ident = identity_chain_map(s)
    fact = factor_acf_fib(ident)
    low = ChainMap(s, s, {1: ident.component(1).matrix})
    wrong = identity_chain_map(sphere(1, z2))
    for fact2, a, b, degree in [(fact, ident, low, 2), (fact, wrong, ident, 2),
                                (factor_cof_afb(ident), ident, ident, 1)]:
        with pytest.raises(PreconditionFailed) as e:
            naturality_map(fact, fact2, a, b)
        assert e.value.degree == degree
