import random
import sys

import pytest

from zchain import complexes
from zchain.abelian import free_group, is_isomorphic, mk_hom
from zchain.complexes import (
    cone,
    dsum_complex,
    identity_chain_map,
    is_quasi_iso,
    mk_chain_map,
    tensor,
    zero_chain_map,
    zero_complex,
)
from zchain.errors import NotCofibration, PreconditionFailed
from zchain.factor import factor_acf_fib, factor_cof_afb, gamma
from zchain.intlinalg import IntMatrix
from zchain.modelcls import classify
from zchain.monoidal_proper import check_proper, pullback, pushout, pushout_product
from zchain.randgen import (
    random_finite_chain_map,
    random_finite_complex,
    random_free_cofibration,
    random_map_out,
    rng_for,
)

from helpers import Zmod, disk, sphere


Z = free_group(1)


def test_pushout_examples():
    b = sphere(0, Z)
    c = disk(1, Zmod(2))
    z = zero_complex()
    po = pushout(zero_chain_map(z, b), zero_chain_map(z, c))
    total, _, _ = dsum_complex([b, c])
    for n in po.complex.degrees():
        assert is_isomorphic(po.complex.group(n), total.group(n))

    s = sphere(0, Zmod(3))
    f = mk_chain_map(s, s, {0: IntMatrix.from_rows([[2]])})
    po2 = pushout(f, identity_chain_map(s))
    # pushout along the identity recovers the target
    for n in po2.complex.degrees():
        assert is_isomorphic(po2.complex.group(n), s.group(n))

    # pushout of the cone inclusion along the resolution projection is the
    # mapping cone of a quasi-isomorphism, hence acyclic
    s2 = sphere(0, Zmod(2))
    g, p = gamma(s2)
    c_g, incl = cone(g)
    po3 = pushout(incl, p)
    assert po3.complex.is_acyclic()


def test_pushout_universal_property():
    rng = rng_for("pushout-universal", 0)
    for case in range(10):
        rng = rng_for("pushout-universal", case)
        a = random_finite_complex(rng, max_pieces=2, with_pieces=True)
        b = random_finite_complex(rng, max_pieces=2)
        c = random_finite_complex(rng, max_pieces=2)
        i = random_map_out(rng, a, b)
        f = random_map_out(rng, a, c)
        po = pushout(i, f)
        assert (po.from_first @ i) == (po.from_second @ f)
        # the cocone of the legs themselves factors through the identity
        w = po.induce(po.from_first, po.from_second)
        assert w == identity_chain_map(po.complex)
        # and the zero cocone factors through zero
        q = random_finite_complex(rng, max_pieces=2)
        w0 = po.induce(zero_chain_map(b, q), zero_chain_map(c, q))
        assert w0.is_zero()


def test_pushout_of_cofibration_is_cofibration():
    for case in range(8):
        rng = rng_for("pushout-cof", case)
        sq = random_free_cofibration(rng)
        target = random_finite_complex(rng, max_pieces=2)
        # need a map out of the cofibration source; free complexes admit
        # maps built degreewise from nullhomotopic data, use zero for shape
        f = zero_chain_map(sq.src, target)
        po = pushout(sq, f)
        j = po.from_second
        cls = classify(j)
        assert cls.cofibration
        # cokernels of the two parallel maps agree
        from zchain.complexes import cokernel_complex

        ci, _ = cokernel_complex(sq)
        cj, _ = cokernel_complex(j)
        for n in set(ci.degrees()) | set(cj.degrees()):
            assert is_isomorphic(ci.homology(n).group, cj.homology(n).group)


def test_pullback_examples():
    b = sphere(0, Z)
    k = disk(0, Zmod(2))
    total, incls, projs = dsum_complex([b, k])
    pb = pullback(projs[0], identity_chain_map(b))
    # pulling a projection back along the identity recovers the total space
    for n in total.degrees():
        assert is_isomorphic(pb.complex.group(n), total.group(n))
    # the square over the cospan commutes, and the cone of the two legs
    # factors through the pullback as the identity
    assert (projs[0] @ pb.to_first) == (identity_chain_map(b) @ pb.to_second)
    w = pb.induce(pb.to_first, pb.to_second)
    assert w == identity_chain_map(pb.complex)


def test_pushout_product_examples():
    z = zero_complex()
    s = sphere(0, Z)
    i = zero_chain_map(z, s)
    cert = pushout_product(i, i)
    assert cert.classification.cofibration
    assert not cert.classification.acyclic_cofibration
    for n in cert.coker_k.degrees():
        assert is_isomorphic(cert.coker_k.group(n), s.group(n))

    d = disk(0, Z)
    i0 = zero_chain_map(z, d)
    cert2 = pushout_product(i0, i)
    assert cert2.classification.acyclic_cofibration

    j0 = mk_chain_map(s, d, {0: IntMatrix.from_rows([[1]])})
    cert3 = pushout_product(j0, j0)
    assert cert3.classification.cofibration
    assert not cert3.classification.quasi_iso
    # cokernel concentrates in degree 2 with one free generator
    ck = cert3.coker_k
    hs = {n: ck.homology(n).group for n in ck.window(1)}
    assert hs[2].free_rank == 1
    assert all(g.is_trivial() for n, g in hs.items() if n != 2)


def test_pushout_product_random_cofibrations():
    for case in range(6):
        rng = rng_for("pp-random", case)
        i = random_free_cofibration(rng, max_rank=1)
        j = random_free_cofibration(rng, max_rank=1)
        cert = pushout_product(i, j)
        assert cert.classification.cofibration
        for n in set(cert.coker_k.degrees()) | set(cert.m.dst.degrees()):
            assert cert.m.component(n).is_iso()


def test_pushout_product_acyclic_factor():
    for case in range(4):
        rng = rng_for("pp-acyclic", case)
        i = random_free_cofibration(rng, acyclic=True, max_rank=1)
        j = random_free_cofibration(rng, max_rank=1)
        cert = pushout_product(i, j)
        assert cert.classification.acyclic_cofibration


def test_pushout_product_builds_each_tensor_complex_once(monkeypatch):
    # A (x) C, B (x) C, A (x) D, B (x) D and coker i (x) coker j, one build each
    real = complexes._tensor
    built = []

    def counting(a, b):
        built.append((a, b))
        return real(a, b)

    for mod in [m for name, m in sys.modules.items() if name.startswith("zchain.")]:
        if getattr(mod, "_tensor", None) is real:
            monkeypatch.setattr(mod, "_tensor", counting)
    for case in range(3):
        rng = rng_for("pp-tensor-builds", case)
        i = random_free_cofibration(rng, acyclic=case == 2, max_rank=1)
        j = random_free_cofibration(rng, max_rank=1)
        built.clear()
        pushout_product(i, j)
        assert len(built) == 5


def test_pushout_product_rejects_non_cofibrations():
    s = sphere(0, Z)
    times2 = mk_chain_map(s, s, {0: IntMatrix.from_rows([[2]])})
    with pytest.raises(NotCofibration):
        pushout_product(times2, times2)


def test_check_proper_examples():
    s2 = sphere(0, Zmod(2))
    g, p = gamma(s2)
    cg, incl = cone(g)
    report = check_proper("pushout", incl, p)
    assert report.certified
    assert report.kind == "pushout"

    # trivial cofibration side: identity
    report2 = check_proper("pushout", identity_chain_map(g), p)
    assert report2.certified

    # dual: pull a weak equivalence back along a projection fibration
    total, incls, projs = dsum_complex([s2, disk(1, Z)])
    report3 = check_proper("pullback", projs[0], p)
    assert report3.certified
    assert report3.kind == "pullback"

    # drop-a-disk weak equivalence pulled back along a non-equivalence surjection
    s = sphere(0, Z)
    we_src, _, we_projs = dsum_complex([s, disk(0, Z)])
    we = we_projs[0]
    fib_src, _, fib_projs = dsum_complex([s, sphere(1, Zmod(3))])
    fib = fib_projs[0]
    report4 = check_proper("pullback", fib, we)
    assert report4.certified


def test_check_proper_random():
    for case in range(5):
        rng = rng_for("proper", case)
        a = random_finite_complex(rng, max_pieces=2, with_pieces=True)
        b = random_finite_complex(rng, max_pieces=2)
        c = random_finite_complex(rng, max_pieces=2)
        f1 = random_map_out(rng, a, b)
        f2 = random_map_out(rng, a, c)
        i = factor_cof_afb(f1).left
        w = factor_acf_fib(f2).left
        report = check_proper("pushout", i, w)
        assert report.certified


def test_check_proper_preconditions():
    s = sphere(0, Z)
    times2 = mk_chain_map(s, s, {0: IntMatrix.from_rows([[2]])})
    with pytest.raises(PreconditionFailed):
        check_proper("pushout", times2, identity_chain_map(s))


@pytest.mark.parametrize("kind, first, second, error, message", [
    ("pushout", "times2", "identity", PreconditionFailed, "first map must be a cofibration"),
    ("pullback", "times2", "identity", PreconditionFailed, "first map must be a fibration"),
    ("pushout", "identity", "zero", PreconditionFailed, "second map must be a weak equivalence"),
    ("pullback", "identity", "zero", PreconditionFailed, "second map must be a weak equivalence"),
    ("pushforward", "identity", "identity", ValueError, "unknown square kind: pushforward"),
])
def test_check_proper_refusals_name_the_failing_map(kind, first, second, error, message):
    # times 2 on Z is injective with torsion cokernel and not surjective, so
    # it is neither a cofibration nor a fibration; the zero map is no weak
    # equivalence of S^0(Z)
    s = sphere(0, Z)
    maps = {"times2": mk_chain_map(s, s, {0: IntMatrix.from_rows([[2]])}),
            "identity": identity_chain_map(s),
            "zero": zero_chain_map(s, s)}
    with pytest.raises(error) as info:
        check_proper(kind, maps[first], maps[second])
    assert str(info.value) == message
