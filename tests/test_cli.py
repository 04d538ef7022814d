import hashlib
import json
import resource
import subprocess
import sys

import pytest

import zchain.complexes
from zchain.cli import main
from zchain.documents import (
    complex_to_doc,
    doc_to_complex,
    doc_to_map,
    map_to_doc,
)
from zchain.errors import DocumentError
from zchain.factor import gamma
from zchain.intlinalg import IntMatrix, SnfResult, snf
from zchain.modelcls import MapClassification
from zchain.randgen import random_finite_chain_map, random_finite_complex, rng_for

from helpers import Zmod, sphere


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return str(p)


def s2_doc():
    return {
        "schema_version": "1",
        "support": [0, 0],
        "groups": {"0": {"generators": 1, "relations": [["2"]]}},
        "differentials": {},
    }


def x2_map_doc():
    free = {
        "schema_version": "1",
        "support": [0, 0],
        "groups": {"0": {"generators": 1, "relations": []}},
        "differentials": {},
    }
    return {
        "schema_version": "1",
        "source": free,
        "target": free,
        "components": {"0": [["2"]]},
    }


def test_round_trip_documents():
    for case in range(12):
        rng = rng_for("roundtrip-docs", case)
        c = random_finite_complex(rng, max_pieces=2)
        doc = complex_to_doc(c)
        again = doc_to_complex(json.loads(json.dumps(doc)))
        assert again == c
        assert complex_to_doc(again) == doc
        f = random_finite_chain_map(rng, max_pieces=2)
        mdoc = map_to_doc(f)
        fagain = doc_to_map(json.loads(json.dumps(mdoc)))
        assert fagain == f
        assert map_to_doc(fagain) == mdoc


def test_classify_command(capsys, tmp_path):
    path = write(tmp_path, "x2.json", x2_map_doc())
    code, out = run_cli(capsys, ["classify", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["injective"] is True
    assert payload["surjective"] is False
    assert payload["labels"] == []


def test_resolve_command_golden(capsys, tmp_path):
    path = write(tmp_path, "s2.json", s2_doc())
    code, out = run_cli(capsys, ["resolve", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["resolution"]["differentials"] == {"1": [["2"]]}
    assert "acyclic_fibration" in payload["classification"]["labels"]


def test_snf_command(capsys, tmp_path):
    path = write(tmp_path, "m.json", {"matrix": [["2", "0"], ["0", "3"]]})
    code, out = run_cli(capsys, ["snf", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == [["1", "0"], ["0", "6"]]
    assert payload["rank"] == 2


def test_homology_command(capsys, tmp_path):
    path = write(tmp_path, "s2.json", s2_doc())
    code, out = run_cli(capsys, ["homology", path, "--degree", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["homology"] == [
        {"degree": 0, "invariant_factors": ["2"], "free_rank": 0}
    ]


def test_factorize_command(capsys, tmp_path):
    doc = {
        "schema_version": "1",
        "source": s2_doc(),
        "target": s2_doc(),
        "components": {"0": [["1"]]},
    }
    path = write(tmp_path, "id2.json", doc)
    for mode, left_label, right_label in [
        ("acf-fib", "acyclic_cofibration", "fibration"),
        ("cof-acf", "cofibration", "acyclic_fibration"),
    ]:
        code, out = run_cli(capsys, ["factorize", path, "--mode", mode])
        assert code == 0
        payload = json.loads(out)
        assert left_label in payload["left_classification"]["labels"]
        assert right_label in payload["right_classification"]["labels"]


def test_certificate_failure_exit_1(capsys, tmp_path, monkeypatch):
    doc = {"schema_version": "1", "source": s2_doc(), "target": s2_doc(),
           "components": {"0": [["1"]]}}
    map_path = write(tmp_path, "id2.json", doc)
    complex_path = write(tmp_path, "s2.json", s2_doc())
    cases = [
        # every classification comes back empty: the factor pieces fail
        # (certify.classified reads classify from zchain.modelcls)
        ("zchain.modelcls.classify", lambda f: MapClassification(*[False] * 6),
         ["factorize", map_path, "--mode", "acf-fib"], "factor_acf_fib", None),
        # cycle coordinates that must exist come back missing
        ("zchain.complexes.solve", lambda *args: None,
         ["homology", complex_path], "homology", 0),
    ]
    for target, fake, argv, construction, degree in cases:
        with monkeypatch.context() as m:
            m.setattr(target, fake)
            code, out = run_cli(capsys, argv)
        assert code == 1
        error = json.loads(out)["error"]
        assert set(error) == {"type", "message", "construction", "degree", "witness"}
        assert error["type"] == "CertificateFailed"
        assert error["construction"] == construction
        assert error["degree"] == degree
    assert error["witness"] is None


def test_induced_map_certificate_exit_1(capsys, tmp_path, monkeypatch):
    # H_0 of diag(2, 0) on Z^2, a map neither injective nor surjective, so
    # classify tests it through induced_map: no class has an image cycle when
    # every solve made by induced_map comes back empty
    free2 = {**x2_map_doc()["source"], "groups": {"0": {"generators": 2, "relations": []}}}
    doc = {**x2_map_doc(), "source": free2, "target": free2,
           "components": {"0": [["2", "0"], ["0", "0"]]}}
    path = write(tmp_path, "neither.json", doc)
    solve = zchain.complexes.solve

    def no_solution_in_induced_map(m, targets):
        return None if sys._getframe(1).f_code.co_name == "induced_map" else solve(m, targets)

    monkeypatch.setattr("zchain.complexes.solve", no_solution_in_induced_map)
    code, out = run_cli(capsys, ["classify", path])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "CertificateFailed"
    assert error["construction"] == "induced_map"
    assert error["degree"] == 0


def test_internal_error_exit_3(capsys, tmp_path, monkeypatch):
    def broken(args, cap):
        raise RuntimeError("something broke")

    monkeypatch.setattr("zchain.cli._cmd_homology", broken)
    assert main(["homology", write(tmp_path, "s2.json", s2_doc())]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"error": {"type": "InternalError",
                                                  "exception": "RuntimeError",
                                                  "message": "something broke"}}
    assert captured.err.rstrip().endswith("RuntimeError: something broke")


def test_factorize_infinite_groups_exit_2(capsys, tmp_path):
    path = write(tmp_path, "x2.json", x2_map_doc())
    for mode in ["acf-fib", "cof-acf"]:
        code, out = run_cli(capsys, ["factorize", path, "--mode", mode])
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InfiniteGroup"


def test_lift_command(capsys, tmp_path):
    s2 = s2_doc()
    g, p = gamma(doc_to_complex(s2))
    free = {
        "schema_version": "1",
        "support": [0, 0],
        "groups": {"0": {"generators": 1, "relations": []}},
        "differentials": {},
    }
    zero = {"schema_version": "1", "support": None, "groups": {}, "differentials": {}}
    problem = {
        "i": {"schema_version": "1", "source": zero, "target": free, "components": {}},
        "q": map_to_doc(p),
        "f": {"schema_version": "1", "source": zero, "target": complex_to_doc(g),
              "components": {}},
        "g": {"schema_version": "1", "source": free, "target": s2,
              "components": {"0": [["1"]]}},
    }
    path = write(tmp_path, "lift.json", problem)
    code, out = run_cli(capsys, ["lift", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["lift"]["components"]["0"] == [["1"]]


def _map_on_z(k, support=(0, 0)):
    """Multiplication by k on Z, in every degree of the support, differentials zero."""
    lo, hi = support
    z = {"schema_version": "1", "support": [lo, hi],
         "groups": {str(n): {"generators": 1, "relations": []} for n in range(lo, hi + 1)},
         "differentials": {}}
    return {"schema_version": "1", "source": z, "target": z,
            "components": {str(n): [[str(k)]] for n in range(lo, hi + 1)}}


@pytest.mark.parametrize("maps, degree", [
    ({"f": _map_on_z(2), "i": _map_on_z(1), "q": _map_on_z(1), "g": _map_on_z(1)}, 0),
    ({"f": _map_on_z(2, (0, 1)), "i": _map_on_z(1, (0, 1)), "q": _map_on_z(1, (0, 1)),
      "g": {**_map_on_z(1, (0, 1)), "components": {"0": [["1"]], "1": [["3"]]}}}, 0),
    ({"f": _map_on_z(1, (0, 1)), "i": _map_on_z(1, (0, 1)), "q": _map_on_z(1, (0, 1)),
      "g": {**_map_on_z(1, (0, 1)), "components": {"0": [["1"]], "1": [["3"]]}}}, 1),
    ({"f": _map_on_z(1), "i": _map_on_z(1), "q": _map_on_z(1, (0, 1)),
      "g": _map_on_z(1, (0, 1))}, 1),
], ids=["times-2", "first-of-two", "second-degree", "corner"])
def test_lift_square_that_fails_names_its_degree(capsys, tmp_path, maps, degree):
    # an f that misses q's source, or a square that does not commute, is a
    # malformed lift document: exit 2 with a code and the failing degree
    code, out = run_cli(capsys, ["lift", write(tmp_path, "lift.json", maps)])
    error = json.loads(out)["error"]
    assert (code, error["code"], error["degree"]) == (2, "bad_square", degree)


def test_tensor_command(capsys, tmp_path):
    p1 = write(tmp_path, "a.json", s2_doc())
    doc3 = {
        "schema_version": "1",
        "support": [0, 0],
        "groups": {"0": {"generators": 1, "relations": [["3"]]}},
        "differentials": {},
    }
    p2 = write(tmp_path, "b.json", doc3)
    code, out = run_cli(capsys, ["tensor", p1, p2])
    assert code == 0
    payload = json.loads(out)
    # coprime torsion tensors to the zero complex
    assert doc_to_complex(payload["tensor"]).is_zero()


def test_invalid_document_exit_2(capsys, tmp_path):
    bad = {
        "schema_version": "1",
        "support": [0, 2],
        "groups": {
            "0": {"generators": 1, "relations": []},
            "1": {"generators": 1, "relations": []},
            "2": {"generators": 1, "relations": []},
        },
        "differentials": {"1": [["2"]], "2": [["2"]]},
    }
    path = write(tmp_path, "bad.json", bad)
    code, out = run_cli(capsys, ["homology", path])
    assert code == 2
    payload = json.loads(out)
    assert payload["error"]["code"] == "not_a_complex"


def complex_doc(support, groups, diffs):
    """A complex document; groups maps a degree to its relation rows."""
    return {
        "schema_version": "1",
        "support": support,
        "groups": {str(n): {"generators": len(rel) or 1, "relations": rel}
                   for n, rel in groups.items()},
        "differentials": {str(n): m for n, m in diffs.items()},
    }


DISK_1 = complex_doc([0, 1], {0: [], 1: []}, {1: [["1"]]})

BAD_DOCUMENTS = [
    # Z/2 --1--> Z/4: the relation 2 goes to 2, which is not 0 in Z/4
    ("homology", complex_doc([0, 1], {0: [["4"]], 1: [["2"]]}, {1: [["1"]]}),
     "ill_defined", 1),
    # Z --2--> Z --2--> Z: d o d = 4 at degree 2
    ("homology", complex_doc([0, 2], {0: [], 1: [], 2: []}, {1: [["2"]], 2: [["2"]]}),
     "not_a_complex", 2),
    # Z/2 --1--> Z in degree 3
    ("classify", {"schema_version": "1",
                  "source": complex_doc([3, 3], {3: [["2"]]}, {}),
                  "target": complex_doc([3, 3], {3: []}, {}),
                  "components": {"3": [["1"]]}},
     "ill_defined", 3),
    # the identity of the disk in degree 0 but zero in degree 1
    ("classify", {"schema_version": "1", "source": DISK_1, "target": DISK_1,
                  "components": {"0": [["1"]], "1": [["0"]]}},
     "not_a_chain_map", 1),
]


@pytest.mark.parametrize("command, doc, code, degree", BAD_DOCUMENTS,
                         ids=[f"{c}-{d}" for _, _, c, d in BAD_DOCUMENTS])
def test_document_errors_name_the_degree(capsys, tmp_path, command, doc, code, degree):
    path = write(tmp_path, "bad.json", doc)
    exit_code, out = run_cli(capsys, [command, path])
    assert exit_code == 2
    error = json.loads(out)["error"]
    assert (error["code"], error["degree"]) == (code, degree)


def test_rank_cap_exit_2(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ZCHAIN_MAX_RANK", "2")
    doc = {
        "schema_version": "1",
        "support": [0, 0],
        "groups": {"0": {"generators": 3, "relations": []}},
        "differentials": {},
    }
    path = write(tmp_path, "big.json", doc)
    code, out = run_cli(capsys, ["homology", path])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "RankCapExceeded"


def test_rank_cap_on_materialization(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ZCHAIN_MAX_RANK", "4")
    doc = {
        "schema_version": "1",
        "support": [0, 0],
        "groups": {"0": {"generators": 1, "relations": [["8"]]}},
        "differentials": {},
    }
    path = write(tmp_path, "z8.json", doc)
    code, out = run_cli(capsys, ["resolve", path])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "RankCapExceeded"


def test_verify_command_deterministic(capsys):
    code1, out1 = run_cli(capsys, ["verify", "--seed", "1", "--cases", "2"])
    code2, out2 = run_cli(capsys, ["verify", "--seed", "1", "--cases", "2"])
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["status"] == "pass"
    assert {a["name"] for a in payload["axioms"]} == {
        "snf_hnf", "factorization", "cofibrant_replacement", "lifting",
        "cofibrant_generation", "properness", "monoidal", "oracle_crosschecks",
    }


def test_verify_negative_degree_window(capsys):
    # a leading minus in the window must not be mistaken for a flag
    code, out = run_cli(capsys, ["verify", "--seed", "w", "--cases", "1",
                                 "--degrees", "-3..1"])
    assert code == 0
    assert json.loads(out)["degrees"] == [-3, 1]


def test_verify_seed_changes_report(capsys):
    _, out1 = run_cli(capsys, ["verify", "--seed", "1", "--cases", "2"])
    _, out2 = run_cli(capsys, ["verify", "--seed", "2", "--cases", "2"])
    assert json.loads(out1)["seed"] != json.loads(out2)["seed"]


def test_text_format(capsys, tmp_path):
    path = write(tmp_path, "m.json", {"matrix": [["2"]]})
    code, out = run_cli(capsys, ["--format", "text", "snf", path])
    assert code == 0
    assert "rank: 1" in out


def test_entry_point_subprocess(tmp_path):
    path = write(tmp_path, "m.json", {"matrix": [["4"]]})
    proc = subprocess.run(
        [sys.executable, "-m", "zchain.cli", "snf", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["d"] == [["4"]]


def test_stdin_input(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "zchain.cli", "snf", "-"],
        input=json.dumps({"matrix": [["6", "0"], ["0", "4"]]}),
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["d"] == [["2", "0"], ["0", "12"]]


def error_code(capsys, argv):
    code, out = run_cli(capsys, argv)
    return code, json.loads(out)["error"]["code"]


@pytest.mark.parametrize("matrix", [
    [[2.7, 1], [True, 3]],
    [[2.0]],
    [[False]],
    [["2.0"]],
    [[" 1"]],
    [["1_0"]],
    [5],
])
def test_snf_rejects_non_integer_entries(capsys, tmp_path, matrix):
    path = write(tmp_path, "m.json", matrix)
    assert error_code(capsys, ["snf", path]) == (2, "bad_matrix")


def test_snf_accepts_ints_and_signed_decimal_strings(capsys, tmp_path):
    path = write(tmp_path, "m.json", {"matrix": [["+4", 0], [0, "-6"]]})
    code, out = run_cli(capsys, ["snf", path])
    assert code == 0
    assert json.loads(out)["d"] == [["2", "0"], ["0", "12"]]


def test_complex_document_rejects_floats_and_bools(capsys, tmp_path):
    float_relation = s2_doc()
    float_relation["groups"]["0"]["relations"] = [[2.0]]
    bool_support = s2_doc()
    bool_support["support"] = [False, False]
    bool_generators = s2_doc()
    bool_generators["groups"]["0"]["generators"] = True
    for doc, expected in [(float_relation, "bad_matrix"), (bool_support, "bad_support"),
                          (bool_generators, "bad_group")]:
        path = write(tmp_path, "c.json", doc)
        assert error_code(capsys, ["homology", path]) == (2, expected)


def test_map_source_must_be_inline(capsys, tmp_path):
    complex_path = write(tmp_path, "s2.json", s2_doc())
    doc = {"schema_version": "1", "source": complex_path, "target": s2_doc(),
           "components": {"0": [["1"]]}}
    path = write(tmp_path, "map.json", doc)
    assert error_code(capsys, ["classify", path]) == (2, "bad_document")


VERIFY = ["verify", "--seed", "1", "--cases", "1"]


@pytest.mark.parametrize("flags", [
    [*VERIFY, "--degrees", "0..2"],
    [*VERIFY, "--degrees", "3..1"],
    [*VERIFY, "--max-order", "1"],
    [*VERIFY, "--max-order", "0"],
    [*VERIFY, "--cases", "0"],
    [*VERIFY, "--cases", "-1"],
    # integer flags that are not decimal integers at all
    [*VERIFY, "--cases", "abc"],
    [*VERIFY, "--cases", "-x"],
    [*VERIFY, "--cases", "9" * 5000],
    [*VERIFY, "--max-order", "2.5"],
    ["homology", "--degree", "x", "never-read.json"],
])
def test_verify_rejects_flags_below_their_minimum(flags):
    # a subprocess with a timeout, so that a flag that hangs fails the test
    proc = subprocess.run([sys.executable, "-m", "zchain.cli", *flags],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout)["error"]["code"] == "bad_flag"


@pytest.mark.parametrize("argv", [
    ["factorize", "never-read.json"],
    ["proper-check", "never-read.json", "never-read.json"],
    ["verify", "--bogus", "1"],
    ["--format", "xml", "snf", "never-read.json"],
    ["nosuch"],
], ids=["missing-mode", "missing-kind", "unknown-flag", "bad-format", "unknown-command"])
def test_malformed_command_lines_exit_2_with_json(argv):
    # argparse's own errors: no usage text, the JSON every other bad flag gets
    proc = subprocess.run([sys.executable, "-m", "zchain.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout)["error"]["code"] == "bad_flag"
    assert "Traceback" not in proc.stderr


def test_help_exits_0_with_usage_on_stdout():
    proc = subprocess.run([sys.executable, "-m", "zchain.cli", "factorize", "--help"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: zchain factorize")


@pytest.mark.parametrize("cap, window, reaches", [
    (None, "-2000..2000", False),
    (None, "0..63", True),
    (None, "-32..32", False),
    ("8", "-4..3", True),
    ("8", "-4..4", False),
])
def test_verify_degree_window_is_capped(capsys, monkeypatch, cap, window, reaches):
    # run_verify is a stub, so no window, however wide, runs the suite
    calls = []
    monkeypatch.setattr("zchain.verify.run_verify", lambda *args, degrees, **kwargs:
                        calls.append(degrees) or {"status": "pass"})
    if cap is None:
        monkeypatch.delenv("ZCHAIN_MAX_RANK", raising=False)
    else:
        monkeypatch.setenv("ZCHAIN_MAX_RANK", cap)
    code, out = run_cli(capsys, ["verify", "--degrees", window])
    if reaches:
        assert code == 0
        assert calls == [tuple(int(b) for b in window.split(".."))]
    else:
        assert code == 2
        assert json.loads(out)["error"]["code"] == "bad_flag"
        assert calls == []


@pytest.mark.parametrize("cap, order, reaches", [
    (None, "65", True),
    (None, "66", False),
    (None, "4096", False),
    ("8", "9", True),
    ("8", "10", False),
])
def test_verify_max_order_is_capped(capsys, monkeypatch, cap, order, reaches):
    # every group verify draws has order at most --max-order, and I(A) has
    # rank |A| - 1, so the cap bounds the order by cap + 1
    calls = []
    monkeypatch.setattr("zchain.verify.run_verify", lambda *args, max_order, **kwargs:
                        calls.append(max_order) or {"status": "pass"})
    if cap is None:
        monkeypatch.delenv("ZCHAIN_MAX_RANK", raising=False)
    else:
        monkeypatch.setenv("ZCHAIN_MAX_RANK", cap)
    code, out = run_cli(capsys, ["verify", "--max-order", order])
    if reaches:
        assert (code, calls) == (0, [int(order)])
    else:
        assert code == 2
        assert json.loads(out)["error"]["code"] == "bad_flag"
        assert calls == []


@pytest.mark.parametrize("env, flags, code", [
    (None, ["--degrees", "1_0..1_5"], "bad_flag"),
    (None, ["--degrees", "\u0660..\u0663"], "bad_flag"),
    (None, ["--degrees", " 0..3 "], "bad_flag"),
    (None, ["--cases", "1_0"], "bad_flag"),
    (None, ["--max-order", " 6"], "bad_flag"),
    (" 6_4 ", [], "bad_env"),
    ("\u0666\u0664", [], "bad_env"),
    (None, ["--degrees", "+0..3", "--cases", "+1", "--max-order", "02"], None),
    ("+64", [], None),
], ids=["degrees-underscore", "degrees-non-ascii", "degrees-spaces", "cases-underscore",
        "max-order-space", "env-underscore-spaces", "env-non-ascii", "signed-and-leading-zero",
        "env-signed"])
def test_integer_spellings_follow_the_decimal_rule(capsys, monkeypatch, env, flags, code):
    # flag bounds and ZCHAIN_MAX_RANK read integers as degree keys do: an
    # optional sign and ASCII digits
    calls = []
    monkeypatch.setattr("zchain.verify.run_verify", lambda *args, **kwargs:
                        calls.append(args) or {"status": "pass"})
    if env is None:
        monkeypatch.delenv("ZCHAIN_MAX_RANK", raising=False)
    else:
        monkeypatch.setenv("ZCHAIN_MAX_RANK", env)
    status, out = run_cli(capsys, ["verify", *flags])
    if code is None:
        assert (status, calls) == (0, [("0", 1 if flags else 10)])
    else:
        assert (status, json.loads(out)["error"]["code"], calls) == (2, code, [])


def test_non_unimodular_transform_exit_1(capsys, monkeypatch):
    # U = 2I on an m x 0 matrix still satisfies U A V = D; seed 1 draws a
    # 5 x 0 matrix in snf_hnf case 37
    def snf_with_doubled_u(m):
        res = snf(m)
        if m.cols or not m.rows:
            return res
        return SnfResult(res.D, IntMatrix.identity(m.rows).scale(2), res.V, res.rank)

    monkeypatch.setattr("zchain.verify.snf", snf_with_doubled_u)
    code, out = run_cli(capsys, ["verify", "--seed", "1"])
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert payload["axioms"][0]["counterexample"] == {"case": 37,
                                                      "detail": "transform is not unimodular"}


def test_verify_smallest_degree_window(capsys):
    code, out = run_cli(capsys, ["verify", "--seed", "1", "--cases", "1", "--degrees", "0..3"])
    assert code == 0
    assert json.loads(out)["degrees"] == [0, 3]


def _complex(**fields):
    return {**s2_doc(), **fields}


def _group(key, support):
    return _complex(support=support, groups={key: {"generators": 1, "relations": [["2"]]}})


@pytest.mark.parametrize("command, doc, expected", [
    ("homology", _complex(groups={"0": "x"}), "bad_group"),
    ("homology", _complex(groups={"0": {"generators": 1, "relations": [5]}}), "bad_group"),
    ("homology", _complex(groups={"0": {"generators": 1, "relations": 5}}), "bad_group"),
    ("homology", _complex(groups="x"), "bad_document"),
    ("homology", _complex(groups=[], support=None), "bad_document"),
    ("homology", _complex(differentials=[]), "bad_document"),
    ("homology", {"differentials": {"1": [["5"]]}}, "support_mismatch"),
    ("homology", _complex(groups={}, differentials={"1": [["5"]]}, support=None),
     "support_mismatch"),
    ("homology", _complex(groups={}, differentials={"x": [["5"]]}, support=None),
     "support_mismatch"),
    ("classify", {**x2_map_doc(), "components": [["2"]]}, "bad_document"),
    ("homology", _group("0 ", [0, 0]), "bad_degree"),
    ("homology", _group("1_0", [0, 10]), "bad_degree"),
    ("homology", _group("٠", [0, 0]), "bad_degree"),
    ("homology", _group("9" * 5000, [0, 0]), "bad_degree"),
    ("homology", _complex(differentials={"1 ": [[]]}, support=[0, 1]), "bad_degree"),
    ("classify", {**x2_map_doc(), "components": {" 0": [["2"]]}}, "bad_degree"),
    ("lift", [x2_map_doc()] * 4, "bad_document"),
    ("lift", {key: x2_map_doc() for key in "ifg"}, "bad_document"),
    ("snf", {"matrix": 5}, "bad_document"),
    ("snf", 5, "bad_document"),
], ids=["group-string", "relation-row-int", "relations-int", "groups-string", "groups-list",
        "differentials-list", "differentials-no-support", "differentials-null-support",
        "differentials-null-support-bad-key", "components-list", "degree-space", "degree-underscore",
        "degree-non-ascii", "degree-past-digit-limit", "differential-degree-space",
        "component-degree-space", "lift-not-object", "lift-missing-q", "snf-matrix-int",
        "snf-bare-int"])
def test_malformed_document_shapes_exit_2(capsys, tmp_path, command, doc, expected):
    path = write(tmp_path, "doc.json", doc)
    assert error_code(capsys, [command, path]) == (2, expected)


_Z = {"generators": 1, "relations": []}


@pytest.mark.parametrize("command, doc, degree", [
    ("homology", _complex(support=[0, 1], groups={"0": _Z, "1": _Z},
                          differentials={"1": [["1"]], "+1": [["2"]]}), 1),
    ("homology", _complex(groups={"0": _Z, "00": {"generators": 1, "relations": [["2"]]}}), 0),
    ("classify", {**x2_map_doc(), "components": {"0": [["2"]], "-0": [["3"]]}}, 0),
], ids=["differentials-1-and-+1", "groups-0-and-00", "components-0-and--0"])
def test_duplicate_degree_keys_exit_2(capsys, tmp_path, command, doc, degree):
    # two spellings of one degree: the later key must not silently replace the earlier
    code, out = run_cli(capsys, [command, write(tmp_path, "doc.json", doc)])
    error = json.loads(out)["error"]
    assert (code, error["code"], error["degree"]) == (2, "bad_degree", degree)


def test_repeated_json_key_exits_2(capsys, tmp_path):
    # json.dumps cannot write a repeated key, so the text is spelled out
    p = tmp_path / "doc.json"
    p.write_text('{"matrix": [["1"]], "matrix": [["2"]]}', encoding="utf-8")
    assert error_code(capsys, ["snf", str(p)]) == (2, "bad_json")
    p.write_text(json.dumps(s2_doc())[:-1] + ', "groups": {}}', encoding="utf-8")
    assert error_code(capsys, ["homology", str(p)]) == (2, "bad_json")


@pytest.mark.parametrize("text", [
    '{"matrix": [[' + "9" * 5000 + "]]}",   # an integer literal past Python's digit limit
    "[" * 100000 + "]" * 100000,            # nesting past the recursion limit
    b"\xff",                                # not UTF-8
], ids=["long-integer", "deep-nesting", "not-utf8"])
def test_unreadable_json_exits_2(capsys, tmp_path, text):
    p = tmp_path / "m.json"
    if isinstance(text, bytes):
        p.write_bytes(text)
    else:
        p.write_text(text, encoding="utf-8")
    assert error_code(capsys, ["snf", str(p)]) == (2, "bad_json")


@pytest.mark.parametrize("flags, digest", [
    (["--seed", "1"], "bdd1ff58690ceee9d971c127f794daa55bc47f87b9bcf082147b9d5da693338a"),
    (["--seed", "7", "--cases", "20"],
     "878e1078d6936b110cac8e2861ebe57d1cb09910d36c2d2fa012e4c933461509"),
])
def test_verify_stdout_is_pinned(flags, digest):
    # the report bytes of a fresh process; a change here changes some answer
    proc = subprocess.run([sys.executable, "-m", "zchain.cli", "verify", *flags],
                          capture_output=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_results_past_the_digit_limit_print_exactly(capsys, tmp_path):
    # 10^2999 (10^2999 + 1) = 10^5998 + 10^2999 has 5,999 digits, more than
    # Python converts to a string by default
    big = "1" + "0" * 2999
    product = "1" + "0" * 2998 + "1" + "0" * 2999
    matrix = [[big, "0"], ["0", big[:-1] + "1"]]
    code, out = run_cli(capsys, ["snf", write(tmp_path, "m.json", {"matrix": matrix})])
    assert code == 0
    assert json.loads(out)["d"] == [["1", "0"], ["0", product]]
    doc = _complex(groups={"0": {"generators": 2, "relations": matrix}})
    code, out = run_cli(capsys, ["homology", write(tmp_path, "c.json", doc)])
    assert code == 0
    assert json.loads(out)["homology"][1]["invariant_factors"] == [product]
    # the limit still guards the input
    path = write(tmp_path, "long.json", {"matrix": [["9" * 5000]]})
    assert error_code(capsys, ["snf", path]) == (2, "bad_matrix")


def _cofibration_from_zero(rank):
    """0 -> Z^rank in degree 0."""
    target = _complex(groups={"0": {"generators": rank, "relations": []}})
    return {"schema_version": "1", "source": {"schema_version": "1", "support": None},
            "target": target}


@pytest.mark.parametrize("ranks, code", [((2, 3), 0), ((48, 48), 2)])
def test_pushout_product_rank_cap(tmp_path, ranks, code):
    # a subprocess with a timeout: without the cap the Z^48 pair runs for minutes
    paths = [write(tmp_path, f"i{k}.json", _cofibration_from_zero(r)) for k, r in enumerate(ranks)]
    proc = subprocess.run([sys.executable, "-m", "zchain.cli", "pushout-product", *paths],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    payload = json.loads(proc.stdout)
    if code:
        assert payload["error"]["type"] == "RankCapExceeded"
    else:
        assert "cofibration" in payload["classification"]["labels"]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("groups, code", [
    ({"0": {"generators": 1}}, 0),
    ({"0": {"generators": 1}, str(10**12): {"generators": 1}}, 2),
])
def test_wide_support_window_is_not_filled(tmp_path, groups, code):
    # in a subprocess with 1 GiB of address space and a timeout: filling the
    # window degree by degree would exhaust either
    path = write(tmp_path, "wide.json", _complex(support=[0, 10**12], groups=groups))
    proc = subprocess.run([sys.executable, "-m", "zchain.cli", "homology", path],
                          capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory)
    assert proc.returncode == code, proc.stderr
    payload = json.loads(proc.stdout)
    if code:
        assert payload["error"]["type"] == "RankCapExceeded"
    else:
        assert [h["degree"] for h in payload["homology"]] == [-1, 0, 1]


def _relation_columns(k):
    """Z^1 modulo k relation columns 2, 4, ..., 2k: the group Z/2."""
    return _complex(groups={"0": {"generators": 1, "relations": [[2 * j for j in range(1, k + 1)]]}})


@pytest.mark.parametrize("k, code", [(64, 0), (65, 2)])
def test_relation_columns_are_capped(capsys, tmp_path, monkeypatch, k, code):
    monkeypatch.delenv("ZCHAIN_MAX_RANK", raising=False)
    exit_code, out = run_cli(capsys, ["homology", write(tmp_path, "c.json", _relation_columns(k))])
    assert exit_code == code
    payload = json.loads(out)
    if code:
        assert payload["error"]["type"] == "RankCapExceeded"
    else:
        assert payload["homology"][1]["invariant_factors"] == ["2"]


def test_many_relation_columns_are_refused_in_bounded_memory(tmp_path):
    # in a subprocess with 1 GiB of address space and a timeout: presenting
    # the group would take the HNF of a 4000 x 1 matrix with a 4000 x 4000
    # transform
    path = write(tmp_path, "wide.json", _relation_columns(4000))
    proc = subprocess.run([sys.executable, "-m", "zchain.cli", "homology", path],
                          capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory)
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout)["error"]["type"] == "RankCapExceeded"


def _identity_map_doc():
    doc = x2_map_doc()
    doc["components"]["0"] = [["1"]]
    return doc


@pytest.mark.parametrize("argv, docs, cap, code", [
    (["proper-check", "--kind", "pushout"], [x2_map_doc(), _identity_map_doc()], None,
     "precondition_failed"),
    (["factorize", "--mode", "acf-fib"], [x2_map_doc()], None, "infinite_group"),
    (["homology"], [s2_doc()], "0", "bad_env"),
    (["homology"], [{**s2_doc(), "groups": {"0": {"generators": 3, "relations": []}}}], "2",
     "rank_cap_exceeded"),
], ids=["not-a-cofibration", "infinite-group", "own-code-kept", "over-cap"])
def test_every_input_error_names_a_code(capsys, tmp_path, monkeypatch, argv, docs, cap, code):
    if cap is not None:
        monkeypatch.setenv("ZCHAIN_MAX_RANK", cap)
    paths = [write(tmp_path, f"doc{k}.json", doc) for k, doc in enumerate(docs)]
    status, out = run_cli(capsys, argv + paths)
    assert status == 2
    assert json.loads(out)["error"]["code"] == code
