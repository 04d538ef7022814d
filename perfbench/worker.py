"""One benchmark process: set up a workload, time its cases, check and digest.

    python3 perfbench/worker.py --workload construct --seed 1 --seconds 15 \
        --t0 <time.time() of the launching process> [--trace 1] [--cases N]
        [--setup-only]

Set-up is the import plus the first block of inputs; it is measured from
``--t0``, taken by the launching process just before it started this one.
The timed loop runs whole blocks of cases, one at a time, until at least
``--seconds`` of case time and the workload's minimum case count are reached,
or exactly ``--cases`` cases when given (a traced run replays the untraced
run's cases that way).  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def sha256(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--cases", type=int, default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import_start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    import_s = time.perf_counter() - import_start

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{args.seed}-trace{args.trace}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = None
    launcher_stats = []
    if args.trace and args.workload == "cli":
        def launcher(case):
            stats = workdir / f"stats-{case.index}.json"
            launcher_stats.append(stats)
            return [sys.executable, str(HERE / "cli_launcher.py"), str(stats), str(case.index),
                    *case.inputs]
        wl.launcher = launcher
    elif args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    block = wl.block(0)
    setup_s = time.time() - args.t0
    if args.setup_only:
        wl.finish()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    input_digests = [sha256(wl.canonical_input(case)) for case in block]

    case_times = []
    failures = {}
    case_digests = []
    b = 0
    while True:
        for case in block:
            if args.cases is not None and len(case_times) >= args.cases:
                break
            if tracer:
                tracer.case = case.index
                tracer.enabled = True
            t = time.perf_counter()
            try:
                out = wl.run(case)
            except Exception as e:  # a failing case is counted, not fatal
                out = e
            dt = time.perf_counter() - t
            if tracer:
                tracer.enabled = False
            case_times.append(dt)
            if isinstance(out, Exception):
                failures[case.index] = f"{case.kind}: {type(out).__name__}: {out}"
                case_digests.append(sha256({"error": type(out).__name__}))
            else:
                problem = wl.check(case, out)
                if problem:
                    failures[case.index] = f"{case.kind}: {problem}"
                case_digests.append(sha256(wl.canonical_output(case, out)))
        done = len(case_times)
        if args.cases is not None:
            if done >= args.cases:
                break
        elif sum(case_times) >= args.seconds and done >= wl.min_cases:
            break
        b += 1
        block = wl.block(b)

    peak_kb = wl.finish()
    result = {
        "setup_s": setup_s,
        "import_s": import_s,
        "attempted": len(case_times),
        "failures": failures,
        "timed_s": sum(case_times),
        "block_size": len(input_digests),
        "case_digests": case_digests,
        "inputs_sha256": hashlib.sha256("".join(input_digests).encode()).hexdigest(),
        "metrics": {
            "cases_per_s": len(case_times) / sum(case_times),
            "case_p50_s": statistics.median(case_times),
            "case_tail_s": statistics.quantiles(case_times, n=100, method="inclusive")[wl.tail_pct - 1]
            if len(case_times) > 1 else case_times[0],
            "peak_rss_mb": peak_kb / 1024,
        },
        "tail_pct": wl.tail_pct,
    }
    if tracer:
        tracer.uninstall()
        tracing.write_spans(OUT / f"spans-{args.workload}-{args.seed}.json", tracer.span_columns())
        result["layers"] = {"raw": tracer.raw(), "import_s": [import_s]}
    elif launcher_stats:
        raws, imports, columns = [], [], None
        for path in launcher_stats:
            if not path.exists():  # the command was killed; its case already failed
                continue
            with open(path, encoding="utf-8") as fh:
                stats = json.load(fh)
            path.unlink()
            raws.append(stats["raw"])
            imports.append(stats["import_s"])
            spans = stats["spans"]
            if columns is None:
                columns = spans
                continue
            offset = len(columns["parent"])
            spans["parent"] = [p + offset if p >= 0 else p for p in spans["parent"]]
            for key in ("name", "start", "end", "parent", "case"):
                columns[key].extend(spans[key])
        tracing.write_spans(OUT / f"spans-cli-{args.seed}.json", columns)
        result["layers"] = {"raw": tracing.merge(raws), "import_s": imports}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
