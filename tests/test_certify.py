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
from zchain.abelian import free_group
from zchain.complexes import (cokernel_complex, identity_chain_map, kernel_complex, zero_chain_map,
                              zero_complex)
from zchain.documents import doc_to_map, map_to_doc
from zchain.errors import CertificateFailed
from zchain.modelcls import classify, is_contractible, split_free_complex
from zchain.randgen import random_finite_chain_map, rng_for
from zchain.verify import run_verify

from zchain.intlinalg import IntMatrix

from helpers import Zmod, disk, mk_chain_map, sphere

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


CLASS_NAMES = {"cofibration", "fibration", "weak_equivalence", "acyclic_cofibration",
               "acyclic_fibration"}


def test_documents_and_model_classes_have_one_owner():
    # the command line reads every document through zchain.documents
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert not names & {"json_to_matrix", "LiftProblem", "IntMatrix"}
    # the five classes are mapped to their booleans in one table, and no
    # class is a hand-written function
    tables = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Dict) and any(
                    isinstance(key, ast.Constant) and key.value in CLASS_NAMES for key in node.keys):
                tables.append(path.name)
            assert not (isinstance(node, ast.FunctionDef) and node.name in CLASS_NAMES), where
    assert tables == ["modelcls.py"]


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


def test_classification_certificate_names_the_failing_degree():
    Z = free_group(1)
    for n in (0, 2):
        a = sphere(n, Z)
        times2 = mk_chain_map(a, a, {n: IntMatrix.from_rows([[2]])})   # Z --2--> Z
        to_zero = zero_chain_map(a, zero_complex())                    # Z --> 0
        cases = [
            (times2, "cofibration"),          # cokernel Z/2 has torsion
            (times2, "fibration"),            # cokernel Z/2 is nonzero
            (times2, "weak_equivalence"),     # H_n(f) is multiplication by 2
            (times2, "acyclic_fibration"),    # not surjective
            (to_zero, "cofibration"),         # kernel Z is nonzero
            (to_zero, "acyclic_fibration"),   # surjective, but H_n(kernel) = Z
        ]
        for f, prop in cases:
            with pytest.raises(CertificateFailed) as info:
                certify.classified(f, prop, "example", "map")
            assert info.value.details["degree"] == n, (n, prop)
            assert info.value.details["witness"] == classify(f).as_dict()
        ident = identity_chain_map(a)
        certify.classified(ident, "acyclic_cofibration", "example", "map")


def test_corrupted_contraction_fails_the_homotopy_identity():
    # twice the Z coordinates give d s + s d = 2 on the disk Z --1--> Z; d'
    # read off those coordinates would be 2, so it is pinned to the identity
    a = disk(0, free_group(1))
    split = split_free_complex(a)
    split.degrees[0].z_coords = split.degrees[0].z_coords.scale(2)
    split.dprime = lambda n: IntMatrix.identity(split.y_rank(n))
    with pytest.raises(CertificateFailed) as info:
        is_contractible(split)
    assert info.value.details == {"construction": "is_contractible", "degree": 0,
                                  "witness": {"generator": 0, "value": [1]}}


def test_verify_counterexample_names_construction_and_degree(monkeypatch):
    monkeypatch.setattr("zchain.complexes.solve", lambda *args: None)
    report = run_verify("certify", 1)
    entry = next(e for e in report["axioms"] if e["name"] == "cofibrant_replacement")
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
