"""Acceptance suite: one test per exit criterion, at full advertised scale.

Each test prints a single PASS line when its criterion holds; any failure is
a hard assert.  All randomness is derived from fixed string seeds, so the
suite is reproducible run to run.
"""

import json

from zchain.abelian import free_group
from zchain.cli import main as cli_main
from zchain.complexes import cone, induced_map, is_quasi_iso, sphere
from zchain.factor import factor_acf_fib, factor_cof_afb, gamma
from zchain.intlinalg import IntMatrix, hnf, kernel_basis, snf
from zchain.lifting import LiftProblem, rlp_instance, solve_lift
from zchain.modelcls import classify, is_contractible, split_free_complex
from zchain.monoidal_proper import check_proper, pushout, pushout_product
from zchain.randgen import (
    random_acyclic_fibration,
    random_cycle,
    random_element,
    random_finite_chain_map,
    random_finite_complex,
    random_free_cofibration,
    random_free_complex,
    random_lift_square,
    random_map_out,
    random_surjective_non_weq,
    rng_for,
)
from zchain.verify import _failing_instance

from helpers import Zmod
from oracles import det_bareiss


def report(number, name, cases):
    print(f"ACCEPTANCE {number} {name}: PASS ({cases} cases)")


def test_criterion_1_snf_hnf_suite():
    cases = 1000
    for case in range(cases):
        rng = rng_for("acceptance-1", case)
        m = rng.randrange(0, 9)
        n = rng.randrange(0, 9)
        mat = IntMatrix(m, n, [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)])
        res = snf(mat)
        assert res.U @ mat @ res.V == res.D
        assert abs(det_bareiss(res.U.data)) == 1
        assert abs(det_bareiss(res.V.data)) == 1
        assert res.D.is_diagonal()
        diag = [d for d in res.diagonal if d]
        assert all(d > 0 for d in diag)
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
        h, u = hnf(mat)
        assert u @ mat == h
        assert abs(det_bareiss(u.data)) == 1
        k = kernel_basis(mat)
        assert k.cols == mat.cols - res.rank
        for j in range(k.cols):
            assert mat.mul_vec(k.col(j)) == (0,) * m
        if k.cols:
            # saturation: the basis spans the full kernel lattice
            assert all(d == 1 for d in snf(k).diagonal[: k.cols])
    report(1, "SNF/HNF suite", cases)


def test_criterion_2_factorization_axiom():
    cases = 200
    for case in range(cases):
        rng = rng_for("acceptance-2", case)
        max_order = 16 if case % 10 == 0 else 8
        f = random_finite_chain_map(rng, max_order=max_order, lo=-3, hi=4)
        fa = factor_acf_fib(f)
        assert (fa.right @ fa.left) == f
        assert fa.left_classification.acyclic_cofibration
        assert fa.right_classification.fibration
        fc = factor_cof_afb(f)
        assert (fc.right @ fc.left) == f
        assert fc.left_classification.cofibration
        assert fc.right_classification.acyclic_fibration
        if case % 8 == 0:
            # re-derive the certificates from scratch on a sample
            assert classify(fa.left).acyclic_cofibration
            assert classify(fc.right).acyclic_fibration
    report(2, "factorization axiom", cases)


def test_criterion_3_replacement_correctness():
    g, p = gamma(sphere(0, Zmod(2)))
    assert g.diff(1).matrix == IntMatrix.from_rows([[2]])
    cases = 100
    for case in range(cases):
        rng = rng_for("acceptance-3", case)
        max_order = 16 if case % 10 == 0 else 8
        b = random_finite_complex(rng, max_order=max_order, lo=-3, hi=4)
        g, p = gamma(b)
        assert g.is_degreewise_free()
        cls = classify(p)
        assert cls.surjective
        for n in set(g.window(1)) | set(b.window(1)):
            assert induced_map(p, n).is_iso()
    report(3, "cofibrant replacement", cases + 1)


def test_criterion_4_lifting_axiom():
    per_route = 100
    for route in (1, 2):
        for case in range(per_route):
            rng = rng_for(f"acceptance-4-{route}", case)
            i, q, f, g = random_lift_square(rng, route=route)
            h = solve_lift(LiftProblem(i=i, q=q, f=f, g=g))
            assert (q @ h) == g
            assert (h @ i) == f
    report(4, "lifting axiom", 2 * per_route)


def test_criterion_5_cofibrant_generation():
    fib_cases = 50
    for case in range(fib_cases):
        rng = rng_for("acceptance-5a", case)
        q = random_acyclic_fibration(rng)
        a, b = q.src, q.dst
        for n in sorted(set(a.window(0)) | set(b.window(0))):
            bp = random_element(rng, b.group(n + 1))
            assert rlp_instance(q, "disk", n, bprime=bp) is not None
            a0 = random_element(rng, a.group(n + 1))
            cyc = a.group(n).canon(a.diff(n + 1).matrix.mul_vec(a0))
            bp2 = b.group(n + 1).canon(q.component(n + 1).matrix.mul_vec(a0))
            z = random_cycle(rng, b, n + 1)
            bp2 = b.group(n + 1).canon(tuple(x + y for x, y in zip(bp2, z)))
            assert rlp_instance(q, "sphere", n, a=cyc, bprime=bp2) is not None
    non_weq_cases = 20
    for case in range(non_weq_cases):
        rng = rng_for("acceptance-5b", case)
        proj, _ = random_surjective_non_weq(rng)
        witness = _failing_instance(proj)
        assert witness is not None, "failed to exhibit a counterexample instance"
        n, cyc, bp = witness
        assert rlp_instance(proj, "sphere", n, a=cyc, bprime=bp) is None
    report(5, "cofibrant generation", fib_cases + non_weq_cases)


def test_criterion_6_properness():
    cases = 50
    for case in range(cases):
        rng = rng_for("acceptance-6a", case)
        ps = random_finite_complex(rng, with_pieces=True)
        b = random_finite_complex(rng)
        c = random_finite_complex(rng)
        i = factor_cof_afb(random_map_out(rng, ps, b)).left
        w = factor_acf_fib(random_map_out(rng, ps, c)).left
        assert check_proper("pushout", i, w).certified
    for case in range(cases):
        rng = rng_for("acceptance-6b", case)
        m = random_finite_complex(rng)
        ps = random_finite_complex(rng, with_pieces=True)
        q = factor_acf_fib(random_map_out(rng, ps, m)).right
        g, p = gamma(m)
        assert check_proper("pullback", q, p).certified
    report(6, "properness", 2 * cases)


def test_criterion_7_monoidal_axiom():
    plain_cases = 50
    for case in range(plain_cases):
        rng = rng_for("acceptance-7a", case)
        i = random_free_cofibration(rng, max_rank=3)
        j = random_free_cofibration(rng, max_rank=3)
        cert = pushout_product(i, j)
        assert cert.classification.cofibration
        for n in set(cert.coker_k.degrees()) | set(cert.m.dst.degrees()):
            assert cert.m.component(n).is_iso()
    acyclic_cases = 25
    for case in range(acyclic_cases):
        rng = rng_for("acceptance-7b", case)
        i = random_free_cofibration(rng, acyclic=True, max_rank=3)
        j = random_free_cofibration(rng, max_rank=3)
        cert = pushout_product(i, j)
        assert cert.classification.acyclic_cofibration
    report(7, "monoidal axiom", plain_cases + acyclic_cases)


def test_criterion_8_oracle_crosschecks():
    qiso_cases = 300
    for case in range(qiso_cases):
        rng = rng_for("acceptance-8a", case)
        f = random_finite_chain_map(rng)
        c, incl = cone(f.src)
        po = pushout(incl, f)
        assert is_quasi_iso(f) == po.complex.is_acyclic()
    contract_cases = 100
    for case in range(contract_cases):
        rng = rng_for("acceptance-8b", case)
        a = random_free_complex(rng, max_rank=3)
        split = split_free_complex(a)
        contraction = is_contractible(a, split)
        acyclic = a.is_acyclic()
        dprime_iso = _all_dprime_iso(a, split)
        assert (contraction is not None) == acyclic == dprime_iso
    report(8, "oracle cross-checks", qiso_cases + contract_cases)


def _all_dprime_iso(a, split):
    from zchain.intlinalg import inverse_unimodular

    if a.support is None:
        return True
    lo, hi = a.support
    for n in range(lo, hi + 2):
        sd = split.degrees.get(n)
        ky = sd.y_cols.cols if sd else 0
        prev = split.degrees.get(n - 1)
        kz = prev.z_cols.cols if prev else 0
        if ky == 0 and kz == 0:
            continue
        h = split.dprime.get(n)
        m = h.matrix if h else IntMatrix.zeros(kz, ky)
        if m.rows != m.cols:
            return False
        try:
            inverse_unimodular(m)
        except ValueError:
            return False
    return True


def test_criterion_9_determinism(capsys):
    code1 = cli_main(["verify", "--seed", "1"])
    out1 = capsys.readouterr().out
    code2 = cli_main(["verify", "--seed", "1"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()
    payload = json.loads(out1)
    assert payload["status"] == "pass"
    report(9, "determinism", 2)
