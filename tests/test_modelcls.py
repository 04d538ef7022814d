import random

import pytest

from zchain import abelian, complexes
from zchain.abelian import GroupHom, free_group, identity_hom, mk_hom
from zchain.complexes import (
    cokernel_complex,
    cone,
    dsum_complex,
    identity_chain_map,
    is_quasi_iso,
    kernel_complex,
    mk_chain_map,
    mk_complex,
    zero_chain_map,
)
from zchain.errors import NotFree
from zchain.factor import factor_acf_fib, factor_cof_afb
from zchain.intlinalg import IntMatrix
from zchain.lifting import LiftProblem, build_T
from zchain.modelcls import MapClassification, classify, is_contractible, split_free_complex
from zchain.randgen import (
    random_acyclic_fibration,
    random_finite_chain_map,
    random_finite_complex,
    random_free_cofibration,
    random_free_complex,
    random_lift_square,
    random_surjective_non_weq,
    rng_for,
)

from helpers import Zmod, disk, r2_complex, sphere
from oracles import dprime_invertible


Z = free_group(1)


def test_map_classification_is_an_immutable_value():
    flags = {"injective": True, "surjective": False, "coker_degreewise_free": True,
             "quasi_iso": True, "kernel_acyclic": True, "coker_acyclic": True}
    cls = MapClassification(**flags)
    same = MapClassification(*flags.values())
    assert same is not cls and same == cls and hash(same) == hash(cls)
    assert MapClassification(**{**flags, "quasi_iso": False}) != cls
    with pytest.raises(AttributeError):
        cls.injective = False
    assert cls.as_dict() == {**flags, "labels": ["cofibration", "weak_equivalence",
                                                 "acyclic_cofibration"]}
    assert list(cls.as_dict()) == [*flags, "labels"]


def test_classify_examples():
    s = sphere(0, Z)
    times2 = mk_chain_map(s, s, {0: IntMatrix.from_rows([[2]])})
    cls = classify(times2)
    assert cls.injective and not cls.surjective
    assert not cls.coker_degreewise_free
    assert cls.labels == ()

    d = disk(0, Z)
    i0 = zero_chain_map(mk_complex(None, {}, {}), d)
    cls = classify(i0)
    assert "acyclic_cofibration" in cls.labels and "cofibration" in cls.labels

    # surjective quasi-iso onto a torsion sphere
    g = sphere(0, Zmod(2))
    cover = mk_complex((0, 1), {0: Z, 1: Z}, {1: IntMatrix.from_rows([[2]])})
    p = mk_chain_map(cover, g, {0: IntMatrix.from_rows([[1]])})
    cls = classify(p)
    assert "fibration" in cls.labels and "weak_equivalence" in cls.labels
    assert "acyclic_fibration" in cls.labels


def test_classification_consistency():
    rng = random.Random("cls-consistency")
    for f in _classification_zoo(rng):
        cls = classify(f)
        assert cls.acyclic_fibration == (cls.fibration and cls.weak_equivalence)
        assert cls.acyclic_cofibration == (
            cls.injective and cls.coker_degreewise_free and cls.coker_acyclic
        )


def _classification_zoo(rng):
    s = sphere(0, Z)
    d = disk(0, Z)
    r2 = r2_complex()
    zero = mk_complex(None, {}, {})
    out = [
        identity_chain_map(r2),
        zero_chain_map(zero, d),
        zero_chain_map(zero, s),
        zero_chain_map(s, zero),
        mk_chain_map(s, s, {0: IntMatrix.from_rows([[rng.randrange(1, 5)]])}),
        mk_chain_map(s, d, {0: IntMatrix.from_rows([[1]])}),
    ]
    p = mk_chain_map(r2, sphere(0, Zmod(2)), {0: IntMatrix.from_rows([[1]])})
    out.append(p)
    total, incls, projs = dsum_complex([s, d])
    out.extend(incls + projs)
    return out


def _kind(cls):
    return "injective" if cls.injective else "surjective" if cls.surjective else "neither"


def test_quasi_iso_agrees_with_induced_maps():
    # classify reads quasi_iso off the kernel or cokernel when it can; the
    # induced maps on homology must give the same answer on every map
    maps = _classification_zoo(random.Random("qi-agreement"))
    for k in range(6):
        rng = rng_for("qi-agreement", k)
        maps.append(random_free_cofibration(rng, acyclic=k % 2 == 0))
        maps.append(random_acyclic_fibration(rng, max_order=4))
        maps.append(random_surjective_non_weq(rng, max_order=4)[0])
        f = random_finite_chain_map(rng, max_order=4, max_pieces=2)
        for fact in (factor_cof_afb(f), factor_acf_fib(f)):
            maps.extend([fact.left, fact.right])
    # about one random map in twelve is a quasi-isomorphism that is neither
    # injective nor surjective
    maps.extend(random_finite_chain_map(rng_for("qi-agreement-map", k), max_order=4,
                                        max_pieces=2) for k in range(60))
    seen = set()
    for f in maps:
        cls = classify(f)
        assert cls.quasi_iso == is_quasi_iso(f)
        seen.add((_kind(cls), cls.quasi_iso))
    assert seen == {(kind, qi) for kind in ("injective", "surjective", "neither")
                    for qi in (True, False)}


def test_classify_calls_is_quasi_iso_only_for_maps_neither_injective_nor_surjective(
        monkeypatch):
    calls = []
    monkeypatch.setattr("zchain.modelcls.is_quasi_iso",
                        lambda f: calls.append(f) or is_quasi_iso(f))
    s = sphere(0, Z)
    s2 = sphere(0, free_group(2))
    maps = {
        "injective": mk_chain_map(s, disk(0, Z), {0: IntMatrix.from_rows([[1]])}),
        "surjective": mk_chain_map(r2_complex(), sphere(0, Zmod(2)),
                                   {0: IntMatrix.from_rows([[1]])}),
        "neither": mk_chain_map(s2, s2, {0: IntMatrix.from_rows([[2, 0], [0, 0]])}),
    }
    for kind, f in maps.items():
        calls.clear()
        assert _kind(classify(f)) == kind
        assert len(calls) == (kind == "neither")


def test_retract_inherits_labels():
    rng = random.Random("retracts")
    s = sphere(0, Z)
    d = disk(0, Z)
    base_maps = [
        mk_chain_map(s, d, {0: IntMatrix.from_rows([[1]])}),  # j_0, a cofibration
        identity_chain_map(r2_complex()),
        mk_chain_map(r2_complex(), sphere(0, Zmod(2)), {0: IntMatrix.from_rows([[1]])}),
    ]
    pads = [disk(2, Zmod(3)), sphere(-1, Z), disk(0, Z)]
    for f in base_maps:
        for pad in pads:
            src_total, src_incls, src_projs = dsum_complex([f.src, pad])
            dst_total, dst_incls, dst_projs = dsum_complex([f.dst, pad])
            g = mk_chain_map(src_total, dst_total, {
                n: dst_ds_block(f, pad, n) for n in src_total.degrees()
            })
            # f is a retract of g along the canonical inclusions/projections
            assert (dst_projs[0] @ g @ src_incls[0]) == f
            labels_g = set(classify(g).labels)
            labels_f = set(classify(f).labels)
            assert labels_g <= labels_f


def dst_ds_block(f, pad, n):
    from zchain.abelian import DirectSum

    src_ds = DirectSum([f.src.group(n), pad.group(n)])
    dst_ds = DirectSum([f.dst.group(n), pad.group(n)])
    return dst_ds.block_matrix(src_ds, {
        (0, 0): f.component(n).matrix,
        (1, 1): IntMatrix.identity(pad.group(n).ngens),
    })


def test_two_out_of_three():
    rng = random.Random("2of3")
    s2 = sphere(0, Zmod(2))
    cover = r2_complex()
    p = mk_chain_map(cover, s2, {0: IntMatrix.from_rows([[1]])})  # w.e.
    idm = identity_chain_map(s2)
    comp = idm @ p
    fs = [p, idm, comp]
    weq = [classify(f).weak_equivalence for f in fs]
    assert sum(weq) != 2  # two imply the third


def test_split_free_complex_examples():
    d = disk(0, Z)
    sp = split_free_complex(d)
    assert sp.y_rank(1) == 1 and sp.z_rank(0) == 1
    assert sp.dprime(1) == IntMatrix.identity(1)

    s = sphere(0, Z)
    sp = split_free_complex(s)
    assert sp.y_rank(0) == 0 and sp.z_rank(0) == 1

    a = mk_complex((0, 1), {0: Z, 1: Z}, {1: IntMatrix.zeros(1, 1)})
    sp = split_free_complex(a)
    assert sp.y_rank(0) == 0 and sp.y_rank(1) == 0
    assert is_contractible(sp) is None


def test_split_free_complex_rejects_torsion():
    with pytest.raises(NotFree):
        split_free_complex(sphere(0, Zmod(2)))


def test_splitting_structure():
    rng = random.Random("split-structure")
    for _ in range(20):
        a = _random_free_complex(rng)
        sp = split_free_complex(a)
        for n in a.degrees():
            sd = sp.degrees[n]
            g = a.group(n)
            # A_n = Y + Z: the combined columns are a basis of free coordinates
            assert sd.y_amb.cols + sd.z_amb.cols == g.free_rank
            # d(y + z) = d'(y): differential kills the Z part
            dz = a.diff(n).matrix @ sd.z_amb
            assert all(a.group(n - 1).contains_zero(dz.col(j)) for j in range(dz.cols))


def test_contractibility_matches_acyclicity():
    rng = random.Random("contract-acyclic")
    for _ in range(30):
        a = _random_free_complex(rng)
        s = is_contractible(split_free_complex(a))
        assert (s is not None) == a.is_acyclic()
        if s is not None:
            for n in a.degrees():
                g = a.group(n)
                m = a.diff(n + 1).matrix @ s.component(n) + s.component(n - 1) @ a.diff(n).matrix
                delta = m - IntMatrix.identity(g.ngens)
                assert all(g.contains_zero(delta.col(j)) for j in range(g.ngens))


def test_is_contractible_agrees_with_dprime_inverse_oracle():
    # every d' is invertible over Z exactly when every d' is the identity:
    # the image of d and the cycles both carry their canonical HNF bases
    complexes_ = []
    for case in range(40):
        a = random_free_complex(rng_for("contract-oracle", case), max_rank=3)
        complexes_ += [a, cone(a)[0]]
    for case in range(6):
        square = random_lift_square(rng_for("contract-oracle-route2", case), route=2)
        complexes_.append(build_T(LiftProblem(*square)).C)
    seen = set()
    for a in complexes_:
        split = split_free_complex(a)
        contractible = is_contractible(split) is not None
        assert contractible == dprime_invertible(split)
        with_y = [n for n in a.degrees() if split.y_rank(n)]
        if contractible:
            assert all(split.dprime(n) == IntMatrix.identity(split.y_rank(n)) for n in with_y)
        seen.add((contractible, bool(with_y)))
    assert seen == {(True, True), (False, True), (False, False), (True, False)}


def test_dprime_agrees_with_solve_oracle():
    # d'_n read off z_coords is the solution x of z_amb x = d y_amb in A_{n-1}
    complexes_ = []
    for case in range(20):
        a = random_free_complex(rng_for("dprime-oracle", case), max_rank=3)
        complexes_ += [a, cone(a)[0]]
    for case in range(4):
        square = random_lift_square(rng_for("dprime-oracle-route2", case), route=2)
        complexes_.append(build_T(LiftProblem(*square)).C)
    checked = 0
    for a in complexes_:
        split = split_free_complex(a)
        for n in a.degrees():
            if not split.y_rank(n):
                continue
            below = split.degrees[n - 1]
            z_incl = GroupHom(free_group(below.z_amb.cols), a.group(n - 1), below.z_amb)
            solved = abelian.preimage(z_incl, a.diff(n).matrix @ split.degrees[n].y_amb)
            assert split.dprime(n) == solved
            checked += 1
    assert checked > 20


def test_contractible_examples():
    assert is_contractible(split_free_complex(disk(0, Z))) is not None
    assert is_contractible(split_free_complex(sphere(0, Z))) is None
    total, _, _ = dsum_complex([disk(0, Z), disk(2, Z)])
    s = is_contractible(split_free_complex(total))
    assert s is not None


def _random_free_complex(rng):
    """Bounded free complex built downward from a random top differential."""
    from zchain.intlinalg import kernel_basis

    lo = rng.randrange(-2, 1)
    length = rng.randrange(1, 4)
    ranks = [rng.randrange(0, 3) for _ in range(length + 1)]
    groups = {}
    diffs = {}
    prev_d = None
    for k in range(length, -1, -1):
        n = lo + k
        groups[n] = free_group(ranks[k])
    for k in range(length, 0, -1):
        n = lo + k
        r_src, r_dst = ranks[k], ranks[k - 1]
        if prev_d is None:
            m = IntMatrix(r_dst, r_src,
                          [[rng.randrange(-2, 3) for _ in range(r_src)] for _ in range(r_dst)])
        else:
            # rows must annihilate the columns of the previous differential
            w = kernel_basis(prev_d.transpose())
            coeff = IntMatrix(r_dst, w.cols,
                              [[rng.randrange(-2, 3) for _ in range(w.cols)] for _ in range(r_dst)])
            m = coeff @ w.transpose()
        prev_d = m
        diffs[n] = m
    return mk_complex((lo, lo + length), groups, diffs)


def _homology_acyclic(c):
    return all(c.homology(n).group.is_trivial() for n in c.degrees())


def _acyclicity_cases():
    """Complexes whose acyclicity classify decides: the kernel and cokernel
    complexes of the zoo and of both factorizations, and random complexes
    with torsion."""
    maps = _classification_zoo(random.Random("acyclic-agreement"))
    for k in range(8):
        f = random_finite_chain_map(rng_for("acyclic-agreement", k), max_order=4, max_pieces=2)
        for fact in (factor_cof_afb(f), factor_acf_fib(f)):
            maps.extend([fact.left, fact.right])
    out = [derive(f)[0] for f in maps for derive in (kernel_complex, cokernel_complex)]
    for k in range(40):
        rng = rng_for("acyclic-agreement-complex", k)
        out.append(random_finite_complex(rng, max_order=6))
        out.append(random_free_complex(rng))
    # a torsion relation that the differential reaches only modulo relations
    z4 = Zmod(4)
    out.append(mk_complex((0, 2), {0: Zmod(2), 1: z4, 2: z4},
                          {1: IntMatrix.from_rows([[1]]), 2: IntMatrix.from_rows([[2]])}))
    return out


def test_is_acyclic_agrees_with_homology():
    seen = set()
    for c in _acyclicity_cases():
        assert c.is_acyclic() == _homology_acyclic(c), c
        seen.add((c.is_acyclic(), c.is_degreewise_free()))
    assert seen == {(acyclic, free) for acyclic in (True, False) for free in (True, False)}


def test_is_acyclic_builds_no_homology(monkeypatch):
    cases = _acyclicity_cases()
    calls = []

    def counted(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(name) or fn(*args))

    counted(complexes, "_homology_at")
    counted(complexes, "preimage_lattice")
    counted(abelian, "preimage_lattice")
    for c in cases:
        c.is_acyclic()
    assert calls == []
    for c in cases:  # the counters do see the homology path
        _homology_acyclic(c)
    assert {"_homology_at", "preimage_lattice"} <= set(calls)
