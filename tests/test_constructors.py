"""One constructor per type, three kinds of check.

``GroupHom``, ``ChainComplex`` and ``ChainMap`` check only shapes.
``ChainComplex`` and ``ChainMap`` take IntMatrix blocks and read each one on
the complexes' own groups, so there are no endpoints to compare.  Objects
correct by construction are built unchecked (kind 1); values that come out
of a solve are certified by ``certify.chain_map`` and fail with
CertificateFailed (kind 2); ``mk_hom``, ``mk_complex`` and ``mk_chain_map``
check what comes from outside (kind 3).
"""

import ast
import json
import pathlib
import sys
from collections import Counter

import pytest

import zchain
from zchain.abelian import GroupHom, free_group, mk_hom
from zchain.cli import main
from zchain.complexes import (
    ChainComplex,
    ChainMap,
    cone,
    mk_chain_map,
    mk_complex,
    tensor,
    tensor_map,
)
from zchain.documents import map_to_doc
from zchain.errors import CertificateFailed, IllDefined, NotAChainMap, NotAComplex
from zchain.factor import factor_acf_fib, factor_cof_afb, gamma
from zchain.intlinalg import IntMatrix
from zchain.lifting import LiftProblem, build_T, lift_from_splitting, solve_lift, split_ses
from zchain.monoidal_proper import check_proper, pushout, pushout_product
from zchain.randgen import (
    random_finite_chain_map,
    random_finite_complex,
    random_free_cofibration,
    random_lift_square,
    random_map_out,
    rng_for,
)

from helpers import Zmod, sphere

PACKAGE = pathlib.Path(zchain.__file__).parent


def test_no_function_takes_or_passes_a_check_flag():
    flags = {"validate", "_checked"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.arg) and node.arg in flags:
                found.append((path.name, node.lineno, node.arg))
            elif isinstance(node, ast.keyword) and node.arg in flags:
                found.append((path.name, node.value.lineno, node.arg))
    assert found == []


def test_constructors_trust_and_mk_functions_check():
    z, z2, z4 = free_group(1), Zmod(2), Zmod(4)
    one = IntMatrix.from_rows([[1]])
    # Z/2 -> Z/4 by 1 is ill defined, Z --2--> Z --2--> Z has d o d = 4,
    # and 1 on Z/2 in degree 0 does not commute with the Z/4 differential
    assert GroupHom(z2, z4, one).matrix == one
    with pytest.raises(IllDefined):
        mk_hom(z2, z4, one)
    groups, diffs = {0: z, 1: z, 2: z}, {1: one.scale(2), 2: one.scale(2)}
    assert ChainComplex(groups, diffs, (0, 2)).support == (0, 2)
    with pytest.raises(NotAComplex):
        mk_complex((0, 2), groups, diffs)
    with pytest.raises(IllDefined):
        mk_complex((0, 1), {0: z4, 1: z2}, {1: one})
    src = ChainComplex({0: z, 1: z}, {1: one}, (0, 1))
    assert ChainMap(src, sphere(0, z), {0: one}).component(0).matrix == one
    with pytest.raises(NotAChainMap):
        mk_chain_map(src, sphere(0, z), {0: one})
    with pytest.raises(IllDefined):
        mk_chain_map(sphere(0, z2), sphere(0, z4), {0: one})


@pytest.fixture
def checked_constructors(monkeypatch):
    """While active, every GroupHom, ChainComplex and ChainMap is rebuilt
    through mk_hom, mk_complex or mk_chain_map right after construction, so
    an object that fails the full check raises where it was made.  Objects
    built by the check itself are not checked again.  Returns the counts."""
    counts = Counter()
    busy = []

    def hook(cls, check):
        init = cls.__init__

        def checked_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if busy:
                return
            busy.append(cls)
            try:
                check(self)
            finally:
                busy.pop()
            counts[cls.__name__] += 1

        monkeypatch.setattr(cls, "__init__", checked_init)

    def degrees(f):
        return set(f.src.degrees()) | set(f.dst.degrees())

    hook(GroupHom, lambda h: mk_hom(h.src, h.dst, h.matrix))
    hook(ChainComplex, lambda c: mk_complex(
        c.support, {n: c.group(n) for n in c.degrees()},
        {n: c.diff(n).matrix for n in c.degrees()}))
    hook(ChainMap, lambda f: mk_chain_map(
        f.src, f.dst, {n: f.component(n).matrix for n in degrees(f)}))
    return counts


def test_correct_by_construction_passes_the_full_check(checked_constructors):
    for case in range(2):
        rng = rng_for("trusted-constructors", case)
        f = random_finite_chain_map(rng, max_pieces=2)
        factor_acf_fib(f)
        factor_cof_afb(f)
        for route in (1, 2):
            i, q, top, bottom = random_lift_square(rng, route=route)
            solve_lift(LiftProblem(i=i, q=q, f=top, g=bottom))
        ps = random_finite_complex(rng, with_pieces=True, max_pieces=2)
        b = random_finite_complex(rng, max_pieces=2)
        c = random_finite_complex(rng, max_pieces=2)
        cof = factor_cof_afb(random_map_out(rng, ps, b)).left
        weq = factor_acf_fib(random_map_out(rng, ps, c)).left
        assert check_proper("pushout", cof, weq).certified
        m = random_finite_complex(rng, max_pieces=2)
        ps = random_finite_complex(rng, with_pieces=True, max_pieces=2)
        fib = factor_acf_fib(random_map_out(rng, ps, m)).right
        _, p = gamma(m)
        assert check_proper("pullback", fib, p).certified
        for acyclic in (False, True):
            pushout_product(random_free_cofibration(rng, acyclic=acyclic, max_rank=2),
                            random_free_cofibration(rng, max_rank=2))
        a = random_finite_complex(rng, max_pieces=2)
        cone(a)
        tensor(a, b)
        tensor_map(f, random_finite_chain_map(rng, max_pieces=2))
    assert min(checked_constructors[name] for name in ("GroupHom", "ChainComplex", "ChainMap")) > 100


def _corrupt(m):
    """m with 1 added to its top left entry (m itself when it is empty)."""
    if not (m.rows and m.cols):
        return m
    rows = [list(r) for r in m.data]
    rows[0][0] += 1
    return IntMatrix(m.rows, m.cols, rows)


def _route_1_extension():
    i, q, f, g = random_lift_square(rng_for("corrupt-lift", 0), route=1)
    ext = build_T(LiftProblem(i=i, q=q, f=f, g=g))
    return ext, split_ses(ext.r)


def test_corrupted_pullback_lift_fails_its_certificate(monkeypatch):
    ext, section = _route_1_extension()
    assert lift_from_splitting(ext, section) is not None
    solved = zchain.lifting.preimage
    monkeypatch.setattr("zchain.lifting.preimage",
                        lambda h, targets: _corrupt(solved(h, targets)))
    with pytest.raises(CertificateFailed) as info:
        lift_from_splitting(ext, section)
    details = info.value.details
    assert details["construction"] == "lift_from_splitting"
    assert isinstance(details["degree"], int)
    assert details["witness"] is not None
    assert str(info.value).startswith(("square does not commute", "component is not well defined"))


def test_corrupted_pushout_induction_fails_its_certificate(monkeypatch):
    i = random_free_cofibration(rng_for("corrupt-pushout", 0), max_rank=2)
    po = pushout(i, i)
    ident = po.from_first  # u = v = the first leg: it equalizes the span
    assert po.induce(ident, ident) is not None
    stack = zchain.monoidal_proper.hstack
    monkeypatch.setattr("zchain.monoidal_proper.hstack", lambda ms: _corrupt(stack(ms)))
    with pytest.raises(CertificateFailed) as info:
        po.induce(ident, ident)
    details = info.value.details
    assert details["construction"] == "PushoutData.induce"
    assert isinstance(details["degree"], int)
    assert details["witness"] is not None


def test_corrupted_lift_exits_1_through_the_cli(capsys, tmp_path, monkeypatch):
    i, q, f, g = random_lift_square(rng_for("corrupt-lift", 0), route=1)
    path = tmp_path / "lift.json"
    path.write_text(json.dumps({k: map_to_doc(m) for k, m in zip("iqfg", (i, q, f, g))}),
                    encoding="utf-8")
    solved = zchain.lifting.preimage

    def corrupt_in_lift_from_splitting(h, targets):
        x = solved(h, targets)
        return _corrupt(x) if sys._getframe(1).f_code.co_name == "lift_from_splitting" else x

    monkeypatch.setattr("zchain.lifting.preimage", corrupt_in_lift_from_splitting)
    assert main(["lift", str(path)]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "CertificateFailed"
    assert error["construction"] == "lift_from_splitting"
    assert isinstance(error["degree"], int) and error["witness"] is not None
