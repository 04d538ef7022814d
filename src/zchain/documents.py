"""JSON interchange: every input document (complex, map, snf matrix, lift
problem) in, complexes and maps out.

Matrices travel as row-major arrays of decimal strings so that arbitrary
precision survives any consumer.  On input an entry may also be a JSON
integer, but not a float, a boolean or any other string; this module is the
one place where untyped values become matrix entries.  Degree keys are
decimal strings, and no two keys of one object may name the same degree.
Parse failures raise DocumentError with enough structure (degree, code) for
a machine-readable report; an input above the rank cap (generators,
relation columns, degrees spanned, matrix sides) raises RankCapExceeded.
"""

from __future__ import annotations

import re
import sys

from .errors import (
    DocumentError,
    IllDefined,
    NotAChainMap,
    NotAComplex,
    PreconditionFailed,
    RankCapExceeded,
)
from .abelian import mk_group
from .complexes import ChainComplex, ChainMap, mk_chain_map, mk_complex
from .intlinalg import IntMatrix
from .lifting import LiftProblem

SCHEMA_VERSION = "1"

_DECIMAL = re.compile(r"[+-]?[0-9]+")


def decimal_string(x):
    """Every decimal digit of the int x.  Python's int/str digit limit is
    lifted for this conversion only; it still guards the JSON input."""
    try:
        return str(x)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(x)
        finally:
            sys.set_int_max_str_digits(limit)


def matrix_to_json(m):
    return [[decimal_string(x) for x in row] for row in m.data]


def parse_decimal(text):
    """The int that a string of decimal digits with an optional sign spells:
    no spaces, underscores or non-ASCII digits.  ValueError otherwise,
    including past Python's int/str digit limit."""
    if isinstance(text, str) and _DECIMAL.fullmatch(text):
        return int(text)
    raise ValueError(f"not an integer: {text!r}")


def _entry(x):
    """A JSON int, or a string of decimal digits with an optional sign."""
    return x if type(x) is int else parse_decimal(x)


def json_to_matrix(data, rows, cols, where):
    if not isinstance(data, list):
        raise DocumentError(f"{where}: matrix must be a list of rows", code="bad_matrix")
    if len(data) != rows:
        raise DocumentError(
            f"{where}: expected {rows} rows, found {len(data)}", code="bad_matrix")
    out = []
    for r in data:
        if not isinstance(r, list) or len(r) != cols:
            raise DocumentError(
                f"{where}: expected rows of length {cols}", code="bad_matrix")
        try:
            out.append([_entry(x) for x in r])
        except ValueError:
            raise DocumentError(
                f"{where}: entries must be integers or decimal strings",
                code="bad_matrix") from None
    return IntMatrix(rows, cols, out)


def complex_to_doc(c: ChainComplex):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "support": list(c.support) if c.support else None,
        "groups": {},
        "differentials": {},
    }
    for n in c.degrees():
        g = c.group(n)
        doc["groups"][str(n)] = {
            "generators": g.ngens,
            "relations": matrix_to_json(g.relations),
        }
    if c.support:
        lo, hi = c.support
        for n in range(lo + 1, hi + 1):
            doc["differentials"][str(n)] = matrix_to_json(c.diff(n).matrix)
    return doc


def _parse_degree(key, where, seen):
    """The degree that key names; seen holds the degrees of the keys read
    before it, and two keys that name one degree ("1" and "+1") are refused."""
    try:
        n = parse_decimal(key)
    except ValueError:
        raise DocumentError(f"{where}: degree keys must be integers, got {key!r}",
                            code="bad_degree") from None
    if n in seen:
        raise DocumentError(f"{where}: two keys name degree {n}", code="bad_degree", degree=n)
    return n


def _object(value, what):
    if not isinstance(value, dict):
        raise DocumentError(f"{what} must be an object", code="bad_document")
    return value


def _cap(size, max_rank, what):
    """Refuse an input size above the rank cap; max_rank None sets no cap."""
    if max_rank is not None and size > max_rank:
        raise RankCapExceeded(f"{what}: {size} exceeds the cap {max_rank}")


def doc_to_matrix(doc, max_rank):
    """The matrix of an snf document: {"matrix": [[...]]} or a bare matrix."""
    data = doc.get("matrix") if isinstance(doc, dict) else doc
    if not isinstance(data, list):
        raise DocumentError("expected {\"matrix\": [[...]]} or a bare matrix",
                            code="bad_document")
    rows = len(data)
    cols = len(data[0]) if rows and isinstance(data[0], list) else 0
    _cap(max(rows, cols), max_rank, "matrix side")
    return json_to_matrix(data, rows, cols, "matrix")


def _doc_to_group(gd, n, max_rank):
    """The group of degree n: generators, and one relation per column of
    ngens rows; "relations": [] means ngens empty rows."""
    if not isinstance(gd, dict):
        raise DocumentError(f"degree {n}: a group must be an object",
                            code="bad_group", degree=n)
    ngens = gd.get("generators")
    if type(ngens) is not int or ngens < 0:
        raise DocumentError(f"degree {n}: generators must be a nonnegative integer",
                            code="bad_group", degree=n)
    _cap(ngens, max_rank, f"degree {n} generators")
    rel_data = gd.get("relations", [])
    if rel_data == []:
        rel_data = [[]] * ngens
    if (not isinstance(rel_data, list) or len(rel_data) != ngens
            or not all(isinstance(row, list) for row in rel_data)):
        raise DocumentError(f"degree {n}: relations need {ngens} rows",
                            code="bad_group", degree=n)
    ncols = len(rel_data[0]) if ngens else 0
    _cap(ncols, max_rank, f"degree {n} relation columns")
    return mk_group(ngens, json_to_matrix(rel_data, ngens, ncols, f"degree {n} relations"))


def doc_to_complex(doc, max_rank=None):
    if not isinstance(doc, dict):
        raise DocumentError("complex document must be an object", code="bad_document")
    support = doc.get("support")
    groups_doc = _object(doc.get("groups", {}), "groups")
    diffs_doc = _object(doc.get("differentials", {}), "differentials")
    if support is None:
        for what, given in (("groups", groups_doc), ("differentials", diffs_doc)):
            if given:
                raise DocumentError(f"{what} given without a support window",
                                    code="support_mismatch")
        return mk_complex(None, {}, {})
    if (not isinstance(support, list) or len(support) != 2
            or not all(type(x) is int for x in support)):
        raise DocumentError("support must be [lo, hi]", code="bad_support")
    lo, hi = support
    if lo > hi:
        raise DocumentError("support window is empty but groups were given"
                            if groups_doc else "support window is empty",
                            code="bad_support")
    groups = {}
    for key, gd in groups_doc.items():
        n = _parse_degree(key, "groups", groups)
        if not (lo <= n <= hi):
            raise DocumentError(f"group at degree {n} lies outside the support",
                                code="support_mismatch", degree=n)
        groups[n] = _doc_to_group(gd, n, max_rank)
    nonzero = [n for n, g in groups.items() if g.ngens]
    if nonzero:
        _cap(max(nonzero) - min(nonzero) + 1, max_rank, "degrees spanned by groups")
    diffs = {}
    for key, md in diffs_doc.items():
        n = _parse_degree(key, "differentials", diffs)
        if not (lo + 1 <= n <= hi):
            raise DocumentError(f"differential at degree {n} lies outside the support",
                                code="support_mismatch", degree=n)
        src = groups.get(n, mk_group(0, IntMatrix.zeros(0, 0)))
        dst = groups.get(n - 1, mk_group(0, IntMatrix.zeros(0, 0)))
        diffs[n] = json_to_matrix(md, dst.ngens, src.ngens, f"differential {n}")
    try:
        return mk_complex((lo, hi), groups, diffs)
    except NotAComplex as e:
        raise DocumentError(f"not a complex: {e}", code="not_a_complex", degree=e.degree) from e
    except IllDefined as e:
        raise DocumentError(f"ill-defined differential: {e}", code="ill_defined",
                            degree=e.degree) from e


def map_to_doc(f: ChainMap):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "source": complex_to_doc(f.src),
        "target": complex_to_doc(f.dst),
        "components": {},
    }
    for n in f.degrees():
        doc["components"][str(n)] = matrix_to_json(f.component(n).matrix)
    return doc


def doc_to_map(doc, max_rank=None):
    if not isinstance(doc, dict):
        raise DocumentError("map document must be an object", code="bad_document")
    src = doc_to_complex(doc.get("source"), max_rank=max_rank)
    dst = doc_to_complex(doc.get("target"), max_rank=max_rank)
    comps = {}
    for key, md in _object(doc.get("components", {}), "components").items():
        n = _parse_degree(key, "components", comps)
        comps[n] = json_to_matrix(md, dst.group(n).ngens, src.group(n).ngens,
                                  f"component {n}")
    try:
        return mk_chain_map(src, dst, comps)
    except NotAChainMap as e:
        raise DocumentError(f"not a chain map: {e}", code="not_a_chain_map",
                            degree=e.degree) from e
    except IllDefined as e:
        raise DocumentError(f"ill-defined component: {e}", code="ill_defined",
                            degree=e.degree) from e


def doc_to_lift_problem(doc, max_rank):
    """The lifting square of a lift document: the maps i, q, f and g, whose
    corners must meet and whose square must commute (bad_square, with the
    degree)."""
    if not isinstance(doc, dict):
        raise DocumentError("lift problem must be an object with i, q, f, g",
                            code="bad_document")
    maps = {}
    for key in "iqfg":
        if key not in doc:
            raise DocumentError(f"lift problem is missing the map {key!r}",
                                code="bad_document")
        maps[key] = doc_to_map(doc[key], max_rank=max_rank)
    try:
        return LiftProblem(**maps)
    except PreconditionFailed as e:
        raise DocumentError(f"not a lifting square: {e}", code="bad_square",
                            degree=e.degree) from e
