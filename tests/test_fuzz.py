"""Fuzzed documents at the boundary that owns every check.

Whatever a complex or map document holds, ``zchain homology`` and ``zchain
classify`` exit 0, 1 or 2 with JSON on stdout: never an uncaught exception,
and never the internal-error code 3.  The documents are small random ones,
mostly not complexes or chain maps, and valid documents with one to three
mutations (an entry changed, a node replaced by arbitrary JSON, a key or
item deleted).
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from zchain.cli import main
from zchain.documents import complex_to_doc, map_to_doc
from zchain.randgen import random_finite_chain_map, random_finite_complex, rng_for

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
def document(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


def _exits_cleanly(command, doc, path):
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, str(path)])
    assert code in (0, 1, 2)
    payload = json.loads(out.getvalue())
    assert ("error" in payload) == (code != 0)


@settings(max_examples=250, deadline=None)
@given(doc=complex_docs() | mutated(COMPLEXES))
def test_homology_of_any_document_exits_cleanly(document, doc):
    _exits_cleanly("homology", doc, document)


@settings(max_examples=250, deadline=None)
@given(doc=map_docs() | mutated(MAPS))
def test_classify_of_any_document_exits_cleanly(document, doc):
    _exits_cleanly("classify", doc, document)
