"""Acceptance suite: one test per exit criterion, at full advertised scale.

Criteria 1-8 draw their own instances and run `zchain verify`'s check for
the axiom on each; a few test-only oracles cross-check them.  Each test
prints a single PASS line when its criterion holds; any failure is a hard
assert.  All randomness is derived from fixed string seeds, so the suite is
reproducible run to run.
"""

import json

from zchain.cli import main as cli_main
from zchain.documents import doc_to_map, map_to_doc
from zchain.factor import factor_acf_fib, factor_cof_afb, gamma
from zchain.intlinalg import IntMatrix, hnf, snf
from zchain.modelcls import classify, split_free_complex
from zchain.randgen import (
    random_acyclic_fibration,
    random_finite_chain_map,
    random_finite_complex,
    random_free_complex,
    random_lift_square,
    random_surjective_non_weq,
    rng_for,
)
from zchain.verify import (
    check_cone,
    check_contraction,
    check_factorization,
    check_failing_instance,
    check_generating_instances,
    check_lifting,
    check_monoidal,
    check_properness,
    check_replacement,
    check_snf_hnf,
    draw_cofibrations,
    draw_matrix,
    draw_pullback_square,
    draw_pushout_square,
)

from helpers import Zmod, sphere
from oracles import det_bareiss, dprime_invertible


def report(number, name, cases):
    print(f"ACCEPTANCE {number} {name}: PASS ({cases} cases)")


def test_criterion_1_snf_hnf_suite():
    cases = 1000
    for case in range(cases):
        mat = draw_matrix(rng_for("acceptance-1", case))
        assert check_snf_hnf(mat) is None
        # unimodularity by an independent determinant
        res = snf(mat)
        for t in (res.U, res.V, hnf(mat)[1]):
            assert abs(det_bareiss(t.data)) == 1
    report(1, "SNF/HNF suite", cases)


def test_criterion_2_factorization_axiom():
    cases = 200
    for case in range(cases):
        rng = rng_for("acceptance-2", case)
        max_order = 16 if case % 10 == 0 else 8
        f = random_finite_chain_map(rng, max_order=max_order, lo=-3, hi=4)
        assert check_factorization(f) is None
        if case % 8 == 0:
            # re-derive the certificates from scratch on fresh copies of a
            # sample: a factor's own classification is memoized on it
            assert classify(_fresh(factor_acf_fib(f).left)).acyclic_cofibration
            assert classify(_fresh(factor_cof_afb(f).right)).acyclic_fibration
    report(2, "factorization axiom", cases)


def _fresh(f):
    return doc_to_map(map_to_doc(f))


def test_criterion_3_replacement_correctness():
    g, p = gamma(sphere(0, Zmod(2)))
    assert g.diff(1).matrix == IntMatrix.from_rows([[2]])
    cases = 100
    for case in range(cases):
        rng = rng_for("acceptance-3", case)
        max_order = 16 if case % 10 == 0 else 8
        b = random_finite_complex(rng, max_order=max_order, lo=-3, hi=4)
        assert check_replacement(b) is None
    report(3, "cofibrant replacement", cases + 1)


def test_criterion_4_lifting_axiom():
    per_route = 100
    for route in (1, 2):
        for case in range(per_route):
            rng = rng_for(f"acceptance-4-{route}", case)
            assert check_lifting(*random_lift_square(rng, route=route)) is None
    report(4, "lifting axiom", 2 * per_route)


def test_criterion_5_cofibrant_generation():
    fib_cases = 50
    for case in range(fib_cases):
        rng = rng_for("acceptance-5a", case)
        assert check_generating_instances(rng, random_acyclic_fibration(rng)) is None
    non_weq_cases = 20
    for case in range(non_weq_cases):
        proj, _ = random_surjective_non_weq(rng_for("acceptance-5b", case))
        assert check_failing_instance(proj) is None
    report(5, "cofibrant generation", fib_cases + non_weq_cases)


def test_criterion_6_properness():
    cases = 50
    for draw, label in ((draw_pushout_square, "a"), (draw_pullback_square, "b")):
        for case in range(cases):
            square = draw(rng_for(f"acceptance-6{label}", case), 8, -3, 3)
            assert check_properness(*square) is None
    report(6, "properness", 2 * cases)


def test_criterion_7_monoidal_axiom():
    plain_cases = 50
    for case in range(plain_cases):
        i, j = draw_cofibrations(rng_for("acceptance-7a", case), acyclic=False, max_rank=3)
        assert check_monoidal(i, j) is None
    acyclic_cases = 25
    for case in range(acyclic_cases):
        i, j = draw_cofibrations(rng_for("acceptance-7b", case), acyclic=True, max_rank=3)
        assert classify(i).acyclic_cofibration  # the draw, not the axiom
        assert check_monoidal(i, j) is None
    report(7, "monoidal axiom", plain_cases + acyclic_cases)


def test_criterion_8_oracle_crosschecks():
    qiso_cases = 300
    for case in range(qiso_cases):
        assert check_cone(random_finite_chain_map(rng_for("acceptance-8a", case))) is None
    contract_cases = 100
    for case in range(contract_cases):
        a = random_free_complex(rng_for("acceptance-8b", case), max_rank=3)
        assert check_contraction(a) is None
        assert dprime_invertible(split_free_complex(a)) == a.is_acyclic()
    report(8, "oracle cross-checks", qiso_cases + contract_cases)


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
