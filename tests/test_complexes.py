import random

import pytest

from zchain.abelian import (
    free_group,
    identity_hom,
    is_isomorphic,
    kernel,
    mk_group,
    mk_hom,
    trivial_group,
    zero_hom,
)
from zchain.complexes import (
    ChainComplex,
    ChainMap,
    block_complex,
    cone,
    disk,
    dsum_complex,
    identity_chain_map,
    induced_map,
    is_quasi_iso,
    kernel_complex,
    cokernel_complex,
    map_from_disk,
    mk_chain_map,
    mk_complex,
    sphere,
    suspend,
    tensor,
    tensor_map,
    zero_chain_map,
    zero_complex,
)
from zchain.errors import CertificateFailed, IllDefined, NotAChainMap, NotAComplex
from zchain.intlinalg import IntMatrix, blockdiag, hstack, vstack
from zchain.randgen import random_finite_chain_map, rng_for

from oracles import complex_first_difference, map_first_difference

from helpers import (
    Zmod,
    class_of,
    map_from_sphere,
    map_to_disk,
    map_to_sphere,
    r2_complex,
    random_hom,
)


Z = free_group(1)


def test_mk_complex_examples():
    r2 = r2_complex()
    assert r2.support == (0, 1)

    with pytest.raises(NotAComplex):
        mk_complex((0, 2), {0: Z, 1: Z, 2: Z},
                   {1: IntMatrix.from_rows([[2]]), 2: IntMatrix.from_rows([[2]])})

    assert mk_complex(None, {}, {}).is_zero()
    assert zero_complex().support is None


def test_test_objects():
    s = sphere(0, Z)
    assert s.support == (0, 0) and s.group(0) == Z

    d = disk(0, Z)
    assert d.support == (0, 1)
    assert d.diff(1) == identity_hom(Z)

    s5 = sphere(3, Zmod(5))
    assert s5.group(3).invariant_factors == (5,)


def test_suspend():
    s = sphere(0, Z)
    assert suspend(s, 1) == sphere(1, Z)
    r2 = r2_complex()
    assert suspend(r2, 0) == r2
    sr2 = suspend(r2, 1)
    assert sr2.support == (1, 2)
    assert sr2.diff(2).matrix == IntMatrix.from_rows([[-2]])
    assert sr2.homology(1).group.invariant_factors == (2,)
    assert sr2.homology(2).group.is_trivial()


def test_cone_examples():
    c, incl = cone(sphere(0, Z))
    assert c == disk(0, Z)
    assert incl.component(0).matrix == IntMatrix.from_rows([[1]])

    cz, _ = cone(zero_complex())
    assert cz.is_zero()

    c2, _ = cone(sphere(0, Zmod(2)))
    assert c2.diff(1) == identity_hom(Zmod(2))
    assert c2.is_acyclic()


def test_block_complex_checks_d_squared():
    # Z + Z/4 with d = 0 + 2: d o d = 4 vanishes in Z/4
    c, layouts = block_complex(0, 2, lambda n: [Z, Zmod(4)],
                               lambda n: {(1, 1): IntMatrix.from_rows([[2]])})
    assert c.support == (0, 2) and sorted(layouts) == [0, 1, 2]
    assert c.group(1) == layouts[1].group
    assert c.diff(2).matrix == IntMatrix.from_rows([[0, 0], [0, 2]])
    with pytest.raises(CertificateFailed) as e:
        block_complex(0, 2, lambda n: [Z], lambda n: {(0, 0): IntMatrix.from_rows([[1]])})
    assert e.value.details == {"construction": "block_complex", "degree": 2,
                               "witness": {"generator": 0, "value": [1]}}


def test_cone_always_acyclic():
    rng = random.Random("cone-acyclic")
    for _ in range(20):
        n = rng.randrange(-2, 2)
        m = mk_group(2, IntMatrix.from_rows([[rng.randrange(1, 5), 0], [0, rng.randrange(0, 3)]]))
        a = rng.choice([sphere, disk])(n, m)
        c, incl = cone(a)
        assert c.is_acyclic()


def test_homology_examples():
    r2 = r2_complex()
    assert r2.homology(0).group.invariant_factors == (2,)
    assert r2.homology(1).group.is_trivial()

    d = disk(0, Z)
    assert all(d.homology(n).group.is_trivial() for n in range(-1, 3))

    s = sphere(3, Zmod(5))
    assert s.homology(3).group.invariant_factors == (5,)


def test_homology_cycle_lifts():
    r2 = r2_complex()
    h = r2.homology(0)
    for j in range(h.group.ngens):
        v = h.cycle_lift.col(j)
        assert r2.group(-1).canon(r2.diff(0).matrix.mul_vec(v)) == r2.group(-1).zero()
    # class_of inverts lift
    for coords in [(0,), (1,)]:
        c = h.group.canon(coords)
        assert class_of(h, h.lift(c)) == c


def test_induced_map_examples():
    r2 = r2_complex()
    idm = induced_map(identity_chain_map(r2), 0)
    assert idm.is_iso()

    s = sphere(0, Z)
    f = mk_chain_map(s, s, {0: IntMatrix.from_rows([[2]])})
    m = induced_map(f, 0)
    assert m.is_injective() and not m.is_surjective()
    assert not is_quasi_iso(f)


def test_composition_functorial_on_homology():
    rng = random.Random("hfunctor")
    for _ in range(25):
        m1 = Zmod(rng.choice([2, 4, 6]))
        m2 = Zmod(rng.choice([2, 4, 6]))
        m3 = Zmod(rng.choice([2, 4, 6]))
        n = rng.randrange(-1, 2)
        f = map_sphere_hom(n, m1, m2, rng)
        g = map_sphere_hom(n, m2, m3, rng)
        comp = g @ f
        hm = induced_map(comp, n)
        assert hm == induced_map(g, n) @ induced_map(f, n)


def map_sphere_hom(n, m1, m2, rng):
    u = random_hom(rng, m1, m2)
    s1 = sphere(n, m1)
    s2 = sphere(n, m2)
    return mk_chain_map(s1, s2, {n: u.matrix})


def test_tensor_examples():
    assert tensor(sphere(0, Zmod(2)), sphere(0, Zmod(3))).is_zero()

    r2 = r2_complex()
    unit = sphere(0, Z)
    assert tensor(r2, unit) == r2

    t = tensor(r2, sphere(0, Zmod(2)))
    assert t.support == (0, 1)
    assert t.diff(1).is_zero()
    assert t.homology(0).group.invariant_factors == (2,)
    assert t.homology(1).group.invariant_factors == (2,)


def test_tensor_symmetry_on_homology():
    rng = random.Random("tensor-sym")
    for _ in range(10):
        a = rng.choice([sphere, disk])(rng.randrange(-1, 2), Zmod(rng.choice([2, 4])))
        b = r2_complex() if rng.random() < 0.5 else sphere(0, Zmod(3))
        ab = tensor(a, b)
        ba = tensor(b, a)
        for n in set(ab.window(1)):
            assert is_isomorphic(ab.homology(n).group, ba.homology(n).group)


def test_tensor_map_square():
    r2 = r2_complex()
    f = mk_chain_map(r2, r2, {0: IntMatrix.from_rows([[3]]), 1: IntMatrix.from_rows([[3]])})
    g = identity_chain_map(sphere(0, Zmod(2)))
    tm = tensor_map(f, g)
    assert tm.src == tensor(r2, g.src)
    assert not tm.is_zero()
    # a factor with empty support on either side gives the zero map
    for h in (zero_chain_map(zero_complex(), r2), zero_chain_map(r2, zero_complex())):
        tz = tensor_map(h, g)
        assert tz.src == tensor(h.src, g.src) and tz.dst == tensor(h.dst, g.dst)
        assert tz.is_zero()
        assert tz.src.is_zero() != tz.dst.is_zero()


def test_adjunction_disk_round_trip():
    rng = random.Random("adjoint-disk")
    r2 = r2_complex()
    for n in [0, 1]:
        for _ in range(10):
            m = Zmod(rng.choice([2, 3, 4, 6]))
            u = random_hom(rng, r2.group(n), m)
            f = map_to_disk(r2, n, u)
            assert f.component(n) == u  # the bijection recovers u
            v = random_hom(rng, m, r2.group(n + 1))
            g = map_from_disk(r2, n, v)
            assert g.component(n + 1) == v


def test_adjunction_sphere_round_trip():
    rng = random.Random("adjoint-sphere")
    r2 = r2_complex()
    # maps r2 -> sphere(n, m) = homs on the cokernel of d_{n+1}
    for _ in range(10):
        m = Zmod(4)
        coker, proj = cokernel_complex(identity_chain_map(r2) - identity_chain_map(r2)), None
        u = random_hom(rng, r2.group(0), m)
        # u descends iff it kills boundaries; build one that does: compose with x2
        # boundaries in degree 0 are 2Z, so any u works mod 4 only if u(2) = 0
        u2 = mk_hom(r2.group(0), m, u.matrix.scale(2))
        f = map_to_sphere(r2, 0, u2)
        assert f.component(0) == u2


def test_adjunction_from_sphere():
    # maps out of a sphere = homs into the cycle subgroup
    rng = random.Random("adjoint-sphere-out")
    r2 = r2_complex()
    zc, incl = kernel(r2.diff(0))
    for _ in range(8):
        m = Zmod(rng.choice([2, 3, 4]))
        v = random_hom(rng, m, zc)
        f = map_from_sphere(r2, 0, v, incl)
        assert f.component(0) == (incl @ v)
        # and the degree-0 image really consists of cycles
        img = r2.diff(0).matrix @ f.component(0).matrix
        assert all(r2.group(-1).contains_zero(img.col(j)) for j in range(img.cols))


def test_suspension_shifts_homology():
    rng = random.Random("suspend-shift")
    for _ in range(10):
        a = rng.choice([r2_complex(), disk(-1, Zmod(4)),
                        sphere(2, Zmod(6))])
        k = rng.randrange(-2, 3)
        sa = suspend(a, k)
        for n in a.window(1):
            assert is_isomorphic(sa.homology(n + k).group, a.homology(n).group)


def test_cycles_subgroup():
    r2 = r2_complex()
    zc, incl = kernel(r2.diff(1))
    assert zc.is_trivial()
    zc0, incl0 = kernel(r2.diff(0))
    assert zc0.free_rank == 1


def test_kernel_cokernel_complexes():
    r2 = r2_complex()
    s = sphere(0, Zmod(2))
    p = mk_chain_map(r2, s, {0: IntMatrix.from_rows([[1]])})
    kc, incl = kernel_complex(p)
    # kernel of Z -> Z/2 in degree 0 is 2Z, with d: Z -> 2Z the inclusion image
    assert kc.group(0).free_rank == 1
    assert kc.is_acyclic()
    cc, proj = cokernel_complex(p)
    assert cc.is_zero()


def _z2_twice():
    """Z/2 presented by the relation column (2) and, as an equal group, by
    the columns (2, 4).  A block computed against the second is read on a
    complex's own Z/2, so kernels and cokernels keep its relation (2); a
    block that is no hom between the complex's groups, such as 1: Z/2 -> Z,
    is refused by mk_chain_map and mk_complex."""
    z2 = mk_group(1, IntMatrix.from_rows([[2]]))
    z2_other = mk_group(1, IntMatrix.from_rows([[2, 4]]))
    assert z2_other == z2 and z2_other is not z2
    return z2, z2_other


def test_cokernel_complex_is_presented_on_the_target_groups():
    z2, z2_other = _z2_twice()
    src, dst = sphere(0, free_group(1)), sphere(0, z2)
    f = mk_chain_map(src, dst, {0: zero_hom(free_group(1), z2_other).matrix})
    assert f.component(0).dst is dst.group(0)
    cc, proj = cokernel_complex(f)
    assert cc.group(0).relations == IntMatrix.from_rows([[2, 0]])
    assert proj.component(0).src is dst.group(0)


def test_chain_map_endpoint_is_pinned_to_the_complex_groups():
    z2, z2_other = _z2_twice()
    src, dst = sphere(0, z2), sphere(0, free_group(1))
    f = mk_chain_map(src, dst, {0: zero_hom(z2_other, free_group(1)).matrix})
    assert f.component(0).src is src.group(0)
    kc, incl = kernel_complex(f)
    assert kc.group(0).relations == IntMatrix.from_rows([[2]])
    assert incl.component(0).dst is src.group(0)
    with pytest.raises(IllDefined):
        mk_chain_map(src, dst, {0: IntMatrix.from_rows([[1]])})


def test_differential_endpoint_is_pinned_to_the_complex_groups():
    z2, z2_other = _z2_twice()
    c = mk_complex((0, 1), {0: z2, 1: z2}, {1: zero_hom(z2_other, z2).matrix})
    assert c.diff(1).src is c.group(1)
    cycles, incl = kernel(c.diff(1))
    assert cycles.relations == IntMatrix.from_rows([[2]])
    assert incl.dst is c.group(1)
    with pytest.raises(IllDefined):
        mk_complex((0, 1), {0: free_group(1), 1: z2}, {1: IntMatrix.from_rows([[1]])})


def test_dsum_complex():
    r2 = r2_complex()
    d = disk(2, Zmod(3))
    total, incls, projs = dsum_complex([r2, d])
    assert total.support == (0, 3)
    assert (projs[0] @ incls[0]) == identity_chain_map(r2)
    assert (projs[1] @ incls[1]) == identity_chain_map(d)
    for n in total.degrees():
        assert is_isomorphic(
            total.homology(n).group,
            dsum_of(r2.homology(n).group, d.homology(n).group),
        )


def dsum_of(a, b):
    from zchain.abelian import DirectSum

    return DirectSum([a, b]).group


def test_chain_map_validation():
    r2 = r2_complex()
    s1 = sphere(1, Z)
    with pytest.raises(NotAChainMap):
        # the degree-1 generator of r2 is not a cycle, so this cannot commute
        mk_chain_map(s1, r2, {1: IntMatrix.from_rows([[1]])})


def test_mapping_cone_detects_quasi_iso():
    # cross-check: f quasi-iso iff cone-of-f (pushout style) is acyclic;
    # here assembled directly as the two-column total complex
    rng = random.Random("cone-criterion")
    for _ in range(30):
        m1 = Zmod(rng.choice([2, 3, 4]))
        m2 = Zmod(rng.choice([2, 3, 4]))
        n = 0
        f = map_sphere_hom(n, m1, m2, rng)
        cf = mapping_cone(f)
        assert is_quasi_iso(f) == cf.is_acyclic()


def mapping_cone(f):
    """Direct two-column construction: (cone f)_n = src_{n-1} + dst_n."""
    from zchain.abelian import DirectSum

    a, b = f.src, f.dst
    los = [s[0] for s in (a.support, b.support) if s]
    his = [s[1] for s in (a.support, b.support) if s]
    if not los:
        return zero_complex()
    lo, hi = min(los), max(his + [h + 1 for h in his[:1]])
    hi = max(hi, (a.support[1] + 1) if a.support else hi)
    layouts = {n: DirectSum([a.group(n - 1), b.group(n)]) for n in range(lo, hi + 1)}
    diffs = {}
    for n in range(lo + 1, hi + 1):
        blocks = {
            (0, 0): -a.diff(n - 1).matrix,
            (1, 0): f.component(n - 1).matrix,
            (1, 1): b.diff(n).matrix,
        }
        diffs[n] = layouts[n - 1].block_matrix(layouts[n], blocks)
    return mk_complex((lo, hi), {n: layouts[n].group for n in range(lo, hi + 1)}, diffs)


def _changed_in_one_degree(rng, a, n):
    """a changed in degree n only: its differential doubled, or one more
    generator, trivial or free, in its group."""
    groups = {m: a.group(m) for m in a.degrees()}
    diffs = {m: a.diff(m).matrix for m in a.degrees()}
    if n in groups and rng.random() < 0.5:
        diffs[n] = diffs[n].scale(2)
    else:
        g = a.group(n)
        relation = IntMatrix.from_rows([[rng.choice([0, 1])]])
        groups[n] = mk_group(g.ngens + 1, blockdiag([g.relations, relation]))
        down, up = a.diff(n).matrix, a.diff(n + 1).matrix
        diffs[n] = hstack([down, IntMatrix.zeros(down.rows, 1)])
        diffs[n + 1] = vstack([up, IntMatrix.zeros(1, up.cols)])
    return ChainComplex(groups, diffs)


def _entries(rng, rows, cols):
    return IntMatrix(rows, cols, [[rng.randrange(-2, 3) for _ in range(cols)] for _ in range(rows)])


def test_first_difference_agrees_with_reference_loop():
    assert zero_complex().first_difference(zero_complex()) is None
    assert zero_complex().first_difference(sphere(2, Z)) == 2
    rng = random.Random("first-difference")
    seen = set()
    for case in range(120):
        f = random_finite_chain_map(rng_for("first-difference", case))
        a = rng.choice([f.src, f.dst])
        b = _changed_in_one_degree(rng, a, rng.randrange(-5, 6))
        least = complex_first_difference(a, b)
        assert a.first_difference(b) == b.first_difference(a) == least
        assert (a == b) == (least is None)
        seen.add(("complex", least is None))
        if not f.degrees():
            continue
        # a map changed in one degree or two, by elements of the target or by
        # combinations of its relations, which are zero there
        deltas = {}
        for n in rng.sample(f.degrees(), min(len(f.degrees()), rng.choice([1, 1, 2]))):
            comp, rels = f.component(n).matrix, f.dst.group(n).relations
            deltas[n] = (rels @ _entries(rng, rels.cols, comp.cols) if rng.random() < 0.3
                         else _entries(rng, comp.rows, comp.cols))
        comps = {m: f.component(m).matrix for m in f.degrees()}
        comps.update({n: comps[n] + delta for n, delta in deltas.items()})
        g = ChainMap(f.src, f.dst, comps)
        bad = f.first_difference(g)
        assert (None if bad is None else bad[:2]) == map_first_difference(f, g)
        assert (f == g) == (bad is None)
        if bad is not None:
            n, j, value = bad
            assert value == f.dst.group(n).canon(tuple(-x for x in deltas[n].col(j))) and any(value)
        seen.add(("map", bad is None))
    assert len(seen) == 4
