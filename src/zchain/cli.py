"""Command-line front end.

JSON documents in, JSON (or text) reports out.  Exit code 0 means success,
1 means a mathematical failure (a counterexample was found, or a
construction failed its certificate, and the evidence emitted), 2 means an
input or validation error, 3 an internal error (a bug): any exception that
is not a ZchainError, reported on stdout as an InternalError with its class
name and message, with the traceback on stderr.  The ZCHAIN_MAX_RANK
environment variable (default 64) caps input sizes, each group-ring group
I(A) and I^2(A), each tensor degree, the verify window and its
--max-order (cap + 1), but not a factorization's middle as a whole; inputs
or constructions that would exceed it abort with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import CertificateFailed, DocumentError, RankCapExceeded, ZchainError
from .documents import (complex_to_doc, decimal_string, doc_to_complex, doc_to_lift_problem,
                        doc_to_map, doc_to_matrix, map_to_doc, matrix_to_json, parse_decimal)
from .complexes import tensor
from .factor import factor_acf_fib, factor_cof_afb, gamma
from .intlinalg import snf
from .lifting import solve_lift
from .modelcls import classify
from .monoidal_proper import check_proper, pushout_product

DEFAULT_MAX_RANK = 64


def _max_rank():
    raw = os.environ.get("ZCHAIN_MAX_RANK")
    if raw is None:
        return DEFAULT_MAX_RANK
    try:
        value = parse_decimal(raw)
    except ValueError:
        raise DocumentError(f"ZCHAIN_MAX_RANK must be a decimal integer, got {raw!r}",
                            code="bad_env") from None
    if value <= 0:
        raise DocumentError("ZCHAIN_MAX_RANK must be positive", code="bad_env")
    return value


def _unique_keys(pairs):
    """A JSON object in which no key is repeated."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} is repeated")
        obj[key] = value
    return obj


def _read_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin, object_pairs_hook=_unique_keys)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as e:
        # ValueError covers JSONDecodeError, undecodable UTF-8, integer
        # literals past Python's digit limit and repeated keys;
        # RecursionError, deep nesting
        raise DocumentError(f"{path}: invalid JSON: {e}", code="bad_json") from e
    except OSError as e:
        raise DocumentError(f"{path}: {e}", code="io_error") from e


def _emit(payload, fmt):
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        _emit_text(payload)


def _emit_text(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        for key in payload:
            value = payload[key]
            if isinstance(value, (dict, list)):
                sys.stdout.write(f"{pad}{key}:\n")
                _emit_text(value, indent + 1)
            else:
                sys.stdout.write(f"{pad}{key}: {value}\n")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                _emit_text(value, indent)
                sys.stdout.write("\n" if indent == 0 else "")
            else:
                sys.stdout.write(f"{pad}- {value}\n")
    else:
        sys.stdout.write(f"{pad}{payload}\n")


def _group_summary(g):
    return {"invariant_factors": [decimal_string(d) for d in g.invariant_factors],
            "free_rank": g.free_rank}


def _cmd_snf(args, cap):
    res = snf(doc_to_matrix(_read_json(args.file), cap))
    return {
        "d": matrix_to_json(res.D),
        "u": matrix_to_json(res.U),
        "v": matrix_to_json(res.V),
        "rank": res.rank,
    }, 0


def _int_flag(value, flag):
    """An integer flag, read by the rule degree keys follow."""
    try:
        return parse_decimal(value)
    except ValueError:
        raise DocumentError(f"{flag} must be a decimal integer, got {value!r}",
                            code="bad_flag") from None


def _cmd_homology(args, cap):
    degree = None if args.degree is None else _int_flag(args.degree, "--degree")
    c = doc_to_complex(_read_json(args.file), max_rank=cap)
    degrees = [degree] if degree is not None else list(c.window(1))
    return {
        "homology": [
            dict(degree=n, **_group_summary(c.homology(n).group)) for n in degrees
        ]
    }, 0


def _cmd_classify(args, cap):
    f = doc_to_map(_read_json(args.file), max_rank=cap)
    return classify(f).as_dict(), 0


def _cmd_factorize(args, cap):
    f = doc_to_map(_read_json(args.file), max_rank=cap)
    if args.mode == "cof-acf":
        fact = factor_cof_afb(f, max_rank=cap)
    else:
        fact = factor_acf_fib(f, max_rank=cap)
    return {
        "mode": args.mode,
        "middle": complex_to_doc(fact.middle),
        "left": map_to_doc(fact.left),
        "right": map_to_doc(fact.right),
        "left_classification": fact.left_classification.as_dict(),
        "right_classification": fact.right_classification.as_dict(),
        "summands": {
            str(n): [{"kind": kind, "degree": deg, "generators": k}
                     for (kind, deg, k) in parts]
            for n, parts in fact.summands.items()
        },
    }, 0


def _cmd_resolve(args, cap):
    b = doc_to_complex(_read_json(args.file), max_rank=cap)
    g, p = gamma(b, max_rank=cap)
    return {
        "resolution": complex_to_doc(g),
        "projection": map_to_doc(p),
        "classification": classify(p).as_dict(),
    }, 0


def _cmd_lift(args, cap):
    h = solve_lift(doc_to_lift_problem(_read_json(args.file), cap))
    return {"lift": map_to_doc(h)}, 0


def _check_tensor_rank(a, b, cap):
    """Refuse a (x) b before it is built if one of its degrees exceeds the cap."""
    if a.support and b.support:
        for n in range(a.support[0] + b.support[0], a.support[1] + b.support[1] + 1):
            size = sum(a.group(p).ngens * b.group(n - p).ngens for p in a.degrees())
            if size > cap:
                raise RankCapExceeded(
                    f"tensor degree {n} needs {size} generators, exceeding the cap {cap}")


def _cmd_tensor(args, cap):
    a = doc_to_complex(_read_json(args.first), max_rank=cap)
    b = doc_to_complex(_read_json(args.second), max_rank=cap)
    _check_tensor_rank(a, b, cap)
    return {"tensor": complex_to_doc(tensor(a, b))}, 0


def _cmd_pushout_product(args, cap):
    i = doc_to_map(_read_json(args.first), max_rank=cap)
    j = doc_to_map(_read_json(args.second), max_rank=cap)
    # the four tensor products it builds; B (x) D also bounds the cokernel tensor
    for a in (i.src, i.dst):
        for b in (j.src, j.dst):
            _check_tensor_rank(a, b, cap)
    cert = pushout_product(i, j)
    return {
        "map": map_to_doc(cert.k),
        "classification": cert.classification.as_dict(),
        "cokernel": complex_to_doc(cert.coker_k),
        "cokernel_matches_tensor": True,
    }, 0


def _cmd_proper_check(args, cap):
    one = doc_to_map(_read_json(args.first), max_rank=cap)
    other = doc_to_map(_read_json(args.second), max_rank=cap)
    report = check_proper(args.kind, one, other)
    payload = {
        "kind": report.kind,
        "certified": report.certified,
        "opposite_classification": report.classification.as_dict(),
        "ladder": report.ladder,
        "opposite": map_to_doc(report.opposite),
    }
    return payload, 0 if report.certified else 1


def _parse_degrees(spec, cap):
    try:
        lo, hi = spec.split("..")
        lo, hi = parse_decimal(lo), parse_decimal(hi)
    except ValueError:
        raise DocumentError(f"degrees must look like LO..HI, got {spec!r}",
                            code="bad_flag") from None
    if hi - lo < 3:
        raise DocumentError(f"degree window {spec} must span at least four degrees",
                            code="bad_flag")
    if hi - lo >= cap:
        raise DocumentError(f"degree window {spec} spans {hi - lo + 1} degrees, "
                            f"exceeding the cap {cap}", code="bad_flag")
    return lo, hi


def _cmd_verify(args, cap):
    degrees = _parse_degrees(args.degrees, cap)
    cases = _int_flag(args.cases, "--cases")
    max_order = _int_flag(args.max_order, "--max-order")
    if cases < 1:
        raise DocumentError("--cases must be at least 1", code="bad_flag")
    if max_order < 2:
        raise DocumentError("--max-order must be at least 2", code="bad_flag")
    if max_order > cap + 1:
        raise DocumentError(f"--max-order {max_order} exceeds the cap {cap} plus one",
                            code="bad_flag")
    # loaded here, not at the top: no other command needs verify or randgen,
    # and importing them would add to every command's start-up
    from .verify import run_verify

    report = run_verify(args.seed, cases, max_order=max_order, degrees=degrees)
    return report, 0 if report["status"] == "pass" else 1


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a bad_flag error, not a usage exit."""

    def error(self, message):
        raise DocumentError(f"{self.prog}: {message}", code="bad_flag")


def build_parser():
    parser = _Parser(
        prog="zchain",
        description="Exact model-structure computations on bounded chain "
                    "complexes of finitely generated abelian groups.")
    parser.add_argument("--format", choices=["json", "text"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_snf)

    p = sub.add_parser("homology", help="homology groups of a complex")
    p.add_argument("file")
    p.add_argument("--degree", default=None)
    p.set_defaults(fn=_cmd_homology)

    p = sub.add_parser("classify", help="classify a chain map")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("factorize", help="factor a chain map")
    p.add_argument("file")
    p.add_argument("--mode", choices=["cof-acf", "acf-fib"], required=True)
    p.set_defaults(fn=_cmd_factorize)

    p = sub.add_parser("resolve", help="cofibrant replacement of a complex")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_resolve)

    p = sub.add_parser("lift", help="solve a lifting square {i, q, f, g}")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("tensor", help="tensor product of two complexes")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=_cmd_tensor)

    p = sub.add_parser("pushout-product", help="pushout product of two cofibrations")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=_cmd_pushout_product)

    p = sub.add_parser("proper-check", help="certify a properness square")
    p.add_argument("--kind", choices=["pushout", "pullback"], required=True)
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=_cmd_proper_check)

    p = sub.add_parser("verify", help="run the randomized axiom suite")
    p.add_argument("--seed", default="0")
    p.add_argument("--cases", default="10", help="cases per axiom, at least 1")
    p.add_argument("--max-order", default="6",
                   help="largest group order per degree, at least 2 and at most "
                        f"ZCHAIN_MAX_RANK + 1 ({DEFAULT_MAX_RANK + 1} at the default cap)")
    p.add_argument("--degrees", default="-2..2",
                   help="degree window LO..HI spanning at least four degrees (HI - LO >= 3) "
                        f"and at most ZCHAIN_MAX_RANK degrees (default {DEFAULT_MAX_RANK})")
    p.set_defaults(fn=_cmd_verify)

    return parser


_VALUE_FLAGS = ("--degrees", "--degree", "--cases", "--max-order")


def _join_value_flags(argv):
    """Let `--degrees -3..4` or `--cases -x` parse, so that the command
    rejects a bad value itself: argparse would read the value as a flag."""
    out = []
    skip = False
    for k, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _VALUE_FLAGS and k + 1 < len(argv):
            out.append(f"{tok}={argv[k + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    fmt = "json"  # until the command line has parsed
    try:
        args = build_parser().parse_args(_join_value_flags(list(argv)))
        fmt = args.format
        cap = _max_rank()
        payload, code = args.fn(args, cap)
    except ZchainError as e:
        error = {"type": type(e).__name__, "message": str(e), **getattr(e, "details", {})}
        failed = isinstance(e, CertificateFailed)
        if not failed:  # an input error: it names a code, its own or its class's
            error.setdefault("code", e.code)
        _emit({"error": error}, fmt)
        return 1 if failed else 2
    except Exception as e:  # a bug: its traceback goes to stderr
        import traceback  # only this path needs it; a run without a bug never loads it

        traceback.print_exc()
        _emit({"error": {"type": "InternalError", "exception": type(e).__name__,
                         "message": str(e)}}, fmt)
        return 3
    _emit(payload, fmt)
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
