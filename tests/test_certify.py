"""The certificate layer: one module raises CertificateFailed, no check is an
assert statement (so all of them survive ``python -O``), failures name the
construction, the degree and a witness, and the per-map memo of kernel,
cokernel and classification returns what the first computation built."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import zchain
from zchain import certify
from zchain.complexes import cokernel_complex, identity_chain_map, kernel_complex, zero_chain_map
from zchain.documents import doc_to_map, map_to_doc
from zchain.errors import CertificateFailed
from zchain.modelcls import classify
from zchain.randgen import random_finite_chain_map, rng_for
from zchain.verify import run_verify

from helpers import Zmod, sphere

PACKAGE = pathlib.Path(zchain.__file__).parent


def test_no_assert_and_certify_is_the_only_raiser():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            assert not isinstance(node, ast.Assert), where
            assert not (isinstance(node, ast.Name) and node.id == "AssertionError"), where
            assert not (isinstance(node, ast.arg) and node.arg == "kernel_data"), where
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CertificateFailed":
                assert path.name == "certify.py", where


def test_certificates_run_under_python_O():
    # Homology solves for cycle coordinates that must exist; make every solve
    # come back empty and the certificate has to fire, asserts or not.
    code = "\n".join([
        "import sys",
        "import zchain.complexes as c",
        "from zchain.abelian import mk_group",
        "from zchain.errors import CertificateFailed",
        "from zchain.intlinalg import IntMatrix",
        "c.solve = lambda *args: None",
        "z2 = mk_group(1, IntMatrix.from_rows([[2]]))",
        "try:",
        "    c.sphere(0, z2).homology(0)",
        "except CertificateFailed as e:",
        "    print(sys.flags.optimize, e.details['construction'], e.details['degree'])",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "homology", "0"]


def test_failure_names_construction_degree_and_witness():
    a = sphere(1, Zmod(3))
    with pytest.raises(CertificateFailed) as info:
        certify.equal_maps(zero_chain_map(a, a), identity_chain_map(a), "example", "maps differ")
    assert info.value.details == {"construction": "example", "degree": 1,
                                  "witness": {"generator": 0, "value": [2]}}
    assert str(info.value) == "maps differ [example, degree 1]"


def test_verify_counterexample_names_construction_and_degree(monkeypatch):
    monkeypatch.setattr("zchain.complexes.solve", lambda *args: None)
    report = run_verify("certify", 1)
    entry = next(e for e in report["axioms"] if e["name"] == "factorization")
    assert entry["status"] == "fail"
    detail = entry["counterexample"]["detail"]
    assert detail.startswith("CertificateFailed: ")
    assert "[homology, degree " in detail


def test_memo_on_chain_map():
    for case in range(6):
        f = random_finite_chain_map(rng_for("certify-memo", case), max_pieces=2)
        g = doc_to_map(map_to_doc(f))
        assert g is not f and g == f
        assert classify(f) is classify(f)
        assert classify(g) == classify(f)
        for derive in (kernel_complex, cokernel_complex):
            first = derive(f)
            assert derive(f) is first
            rebuilt = derive(g)
            assert rebuilt[0] == first[0] and rebuilt[1] == first[1]
