"""Fuzzed documents and flags at the boundary that owns every check.

Whatever its documents hold, every document command exits 0, 1 or 2 with
JSON on stdout: never an uncaught exception, and never the internal-error
code 3.  The documents are small random ones, mostly not complexes or chain
maps, and valid documents with one to three mutations (an entry changed, a
node replaced by arbitrary JSON, a key or item deleted).  A command that
reads several documents starts from a valid tuple (a commuting square, a
cofibration pair) and mutates or replaces one or more of its documents.
The flags of `verify` are fuzzed the same way, against a stub suite.
"""

import contextlib
import copy
import io
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from zchain.cli import main
from zchain.documents import complex_to_doc, map_to_doc
from zchain.factor import factor_acf_fib, factor_cof_afb
from zchain.randgen import (random_finite_chain_map, random_finite_complex,
                            random_free_cofibration, rng_for)

COMPLEXES = [complex_to_doc(random_finite_complex(rng_for("fuzz-complex", k), max_pieces=2))
             for k in range(4)]
MAPS = [map_to_doc(random_finite_chain_map(rng_for("fuzz-map", k), max_pieces=2))
        for k in range(4)]

ENTRIES = st.integers(-3, 3).map(str)
SCALARS = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2)
           | st.sampled_from(["0", "-1", "2", "", "x", " 1", "1.0", "1_0"]))
KEYS = st.sampled_from(["0", "1", "-1", "support", "groups", "generators", "relations", "x"])
VALUES = st.recursive(
    SCALARS, lambda kids: st.lists(kids, max_size=3) | st.dictionaries(KEYS, kids, max_size=3),
    max_leaves=6)


@st.composite
def matrices(draw, rows, cols):
    return [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)]


@st.composite
def complex_docs(draw):
    lo = draw(st.integers(-1, 1))
    hi = lo + draw(st.integers(0, 2))
    ngens = {n: draw(st.integers(0, 2)) for n in range(lo, hi + 1)}
    groups = {}
    for n, k in ngens.items():
        rels = draw(st.integers(0, 2)) if k else 0
        groups[str(n)] = {"generators": k, "relations": draw(matrices(k, rels)) if rels else []}
    diffs = {str(n): draw(matrices(ngens[n - 1], ngens[n])) for n in range(lo + 1, hi + 1)}
    return {"schema_version": "1", "support": [lo, hi], "groups": groups,
            "differentials": diffs}


@st.composite
def matrix_docs(draw):
    """An snf document: a bare matrix or {"matrix": ...}."""
    m = draw(matrices(draw(st.integers(0, 3)), draw(st.integers(0, 3))))
    return m if draw(st.booleans()) else {"matrix": m}


@st.composite
def map_docs(draw):
    src, dst = draw(complex_docs()), draw(complex_docs())

    def ngens(doc, n):
        return doc["groups"].get(str(n), {}).get("generators", 0)

    degrees = set(range(src["support"][0], src["support"][1] + 1))
    degrees |= set(range(dst["support"][0], dst["support"][1] + 1))
    comps = {str(n): draw(matrices(ngens(dst, n), ngens(src, n))) for n in sorted(degrees)}
    return {"schema_version": "1", "source": src, "target": dst, "components": comps}


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _paths(value, prefix + (k,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def mutated(draw, bases):
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        kind = draw(st.sampled_from(["entry", "entry", "value", "delete"]))
        if kind == "entry":
            leaves = [p for p in paths if p and not isinstance(_at(doc, p), (dict, list))]
            paths = leaves or paths
        path = draw(st.sampled_from(paths))
        value = draw(ENTRIES if kind == "entry" else VALUES)
        if not path:
            doc = doc if kind == "delete" else value
            continue
        parent = _at(doc, path[:-1])
        if kind == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    return [folder / "first.json", folder / "second.json"]


def _exits_cleanly(argv, docs, paths):
    for doc, path in zip(docs, paths):
        path.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, *map(str, paths[:len(docs)])])
    assert code in (0, 1, 2)
    payload = json.loads(out.getvalue())
    assert ("error" in payload) == (code != 0)


@settings(max_examples=250, deadline=None)
@given(doc=complex_docs() | mutated(COMPLEXES))
def test_homology_of_any_document_exits_cleanly(paths, doc):
    _exits_cleanly(["homology"], [doc], paths)


@settings(max_examples=250, deadline=None)
@given(doc=map_docs() | mutated(MAPS))
def test_classify_of_any_document_exits_cleanly(paths, doc):
    _exits_cleanly(["classify"], [doc], paths)


def _squares(k):
    """Both factorizations of one small map, arranged as the squares and
    pairs that lift and proper-check accept."""
    f = random_finite_chain_map(rng_for("fuzz-square", k), max_order=3, lo=0, hi=2,
                                max_pieces=1)
    fw, fx = factor_acf_fib(f), factor_cof_afb(f)
    return {"lift": [map_to_doc(g) for g in (fx.left, fx.right, fx.left, fx.right)],
            "pushout": [map_to_doc(fx.left), map_to_doc(fw.left)],
            "pullback": [map_to_doc(fw.right), map_to_doc(fx.right)]}


SQUARES = [_squares(k) for k in range(3)]
COFIBRATION_PAIRS = [
    [map_to_doc(random_free_cofibration(rng_for("fuzz-cofibration", (k, side)),
                                        acyclic=k % 2 == side, max_rank=1)) for side in (0, 1)]
    for k in range(4)]
LIFTS = st.fixed_dictionaries({key: map_docs() for key in "iqfg"})

MATRICES = [[["2", "4"], ["6", "-8"]], {"matrix": [["0", "3", "9"]]}, {"matrix": []}, [[]]]

# argv prefix, valid document tuples, and a strategy for fresh random documents
COMMANDS = {
    "snf": (["snf"], [[m] for m in MATRICES], matrix_docs()),
    "lift": (["lift"], [[dict(zip("iqfg", sq["lift"]))] for sq in SQUARES], LIFTS),
    "tensor": (["tensor"], [COMPLEXES[k:k + 2] for k in range(3)], complex_docs()),
    "pushout-product": (["pushout-product"], COFIBRATION_PAIRS, map_docs()),
    "proper-check-pushout": (["proper-check", "--kind", "pushout"],
                             [sq["pushout"] for sq in SQUARES], map_docs()),
    "proper-check-pullback": (["proper-check", "--kind", "pullback"],
                              [sq["pullback"] for sq in SQUARES], map_docs()),
    "resolve": (["resolve"], [[c] for c in COMPLEXES], complex_docs()),
    "factorize-cof-acf": (["factorize", "--mode", "cof-acf"], [[m] for m in MAPS], map_docs()),
    "factorize-acf-fib": (["factorize", "--mode", "acf-fib"], [[m] for m in MAPS], map_docs()),
}


@st.composite
def arguments(draw, bases, fresh):
    """The documents of one command line: a valid tuple from bases with one
    or more of its documents mutated or replaced by a fresh random one."""
    docs = list(draw(st.sampled_from(bases)))
    for k in draw(st.sets(st.sampled_from(range(len(docs))), min_size=1)):
        docs[k] = draw(fresh | mutated([docs[k]]))
    return docs


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_document_commands_exit_cleanly(paths, command):
    argv, bases, fresh = COMMANDS[command]

    @settings(max_examples=100, deadline=None)
    @given(docs=arguments(bases, fresh))
    def run(docs):
        _exits_cleanly(argv, docs, paths)

    run()


CAP = 16
DECIMAL = re.compile(r"[+-]?[0-9]+")
# spellings int() would take but the decimal rule rejects
LENIENT = st.sampled_from(["1_0", " 5", "5 ", "\u0665", "+\u0666", "1\n"])
INTEGER_FLAGS = (st.integers(-3, 3) | st.integers() | st.sampled_from([10**30, -10**30])
                 | LENIENT | st.text(max_size=8))
BOUNDS = st.integers(-CAP - 4, CAP + 4) | st.integers() | st.sampled_from([10**30, -10**30])
DEGREES = (
    st.builds(lambda lo, hi: f"{lo}..{hi}", BOUNDS, BOUNDS)
    | st.builds(lambda lo, width: f"{lo}..{lo + width}", BOUNDS, st.integers(-2, CAP + 2))
    | st.builds(lambda lo, hi, sep: f"{lo}{sep}{hi}", BOUNDS, BOUNDS,
                st.sampled_from(["", ".", "...", "..-", " .. ", "-", ":"]))
    | st.sampled_from(["", "..", "1..", "..4", "9" * 5000 + "..0", "0..4..8", "a..b",
                       "1_0..1_5", "\u0660..\u0663", " 0..4", "0..4 ", "0.. 4", "0..+\u0664"])
    | st.builds(lambda lo, hi: f"{lo}..{hi}", LENIENT, BOUNDS)
    | st.text(max_size=12))


def test_verify_flags_exit_cleanly(monkeypatch):
    # the suite itself is a stub, so no window or case count, however large,
    # runs anything slow
    calls = []
    monkeypatch.setattr("zchain.cli.run_verify",
                        lambda seed, cases, max_order, degrees:
                        calls.append((cases, max_order, degrees)) or {"status": "pass"})
    monkeypatch.setenv("ZCHAIN_MAX_RANK", str(CAP))

    @settings(max_examples=300, deadline=None)
    @given(cases=INTEGER_FLAGS, max_order=INTEGER_FLAGS, degrees=DEGREES)
    def run(cases, max_order, degrees):
        calls.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify", f"--cases={cases}", f"--max-order={max_order}",
                         f"--degrees={degrees}"])
        payload = json.loads(out.getvalue())
        if code == 0:
            assert payload == {"status": "pass"}
            [(n, order, (lo, hi))] = calls
            assert n >= 1 and 2 <= order <= CAP + 1 and 4 <= hi - lo + 1 <= CAP
            assert all(DECIMAL.fullmatch(str(x)) for x in (cases, max_order, *degrees.split("..")))
        else:
            assert code == 2
            assert payload["error"]["code"] == "bad_flag"
            assert calls == []

    run()
