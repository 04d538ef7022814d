"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload construct|cli --seed N \
        --seconds S --trace 0|1

With ``--trace 0`` it prints every end-to-end metric of BENCHMARK.json;
set-up is sampled in several fresh processes and reported as the median.
With ``--trace 1`` it runs the workload untraced for half of --seconds (so
that both halves together cost about one untraced run), then replays the
same cases with the span wrappers installed, checks that both give the same
output digests, and prints every per-layer metric plus the tracing overhead.
The
last line of stdout is one JSON object: correct, attempted, failed, metrics.

Every run also times a fixed pure-Python integer loop in this process, as a
record of host speed.  It scales nothing.

Output digests are checked against perfbench/expected.json for the seed
stored there; for any other seed they are printed only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
DEADLINE_S = 170


class BenchError(Exception):
    pass


def host_loop_s():
    """Wall time of a fixed integer loop: a record of host speed, never a scale."""
    t = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 1103515245 + i) & 0xFFFFFFFF
    return time.perf_counter() - t


def run_worker(args, deadline, trace=0, cases=None, setup_only=False, seconds=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds or args.seconds),
           "--trace", str(trace),
           "--t0", repr(time.time())]
    if cases is not None:
        cmd += ["--cases", str(cases)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{args.workload} worker ran past the time limit") from None
    if proc.returncode != 0:
        try:  # a failed worker may leave its command spawner behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        raise BenchError(f"{args.workload} worker exited {proc.returncode}:\n"
                         f"{err.decode(errors='replace')[-2000:]}")
    return json.loads(out.decode().strip().splitlines()[-1])


def _expected():
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def expected_seed():
    return _expected()["seed"]


def expected_digests(workload, seed):
    expected = _expected()
    if str(seed) != expected["seed"]:
        return None
    return expected["workloads"].get(workload)


def digest_failures(res, expected):
    """Indices of first-block cases whose inputs or outputs differ from the record."""
    if expected is None:
        return {}
    n = min(len(expected["outputs"]), res["attempted"])
    if res["inputs_sha256"] != expected["inputs"]:
        return {i: "generated inputs differ from the recorded ones" for i in range(n)}
    return {i: "output digest differs from the recorded one" for i in range(n)
            if res["case_digests"][i] != expected["outputs"][i]}


def combined(digests):
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def measure(args, cases=None):
    """Run the workload; ``cases`` fixes the case count instead of --seconds."""
    deadline = time.monotonic() + DEADLINE_S
    loop_s = host_loop_s()
    lines = [f"host_loop_s {loop_s:.4f} s (fixed integer loop, recorded only)"]
    if args.trace:
        base = run_worker(args, deadline, cases=cases, seconds=args.seconds / 2)
        traced = run_worker(args, deadline, trace=1, cases=base["attempted"])
        failures = {int(k): v for k, v in traced["failures"].items()}
        for i, (a, b) in enumerate(zip(base["case_digests"], traced["case_digests"])):
            if a != b:
                failures.setdefault(i, "traced output digest differs from the untraced one")
        layers = traced["layers"]
        metrics = tracing.layer_metrics(layers["raw"])
        metrics["cli.import_s"] = (statistics.median(layers["import_s"]), "s")
        metrics["trace.overhead_s"] = (traced["timed_s"] - base["timed_s"], "s")
        metrics["host.loop_s"] = (loop_s, "s")
        res = traced
        lines.append(f"traced digest {combined(traced['case_digests'])}")
        lines.append(f"untraced digest {combined(base['case_digests'])}")
        lines.append(f"tracing overhead {traced['timed_s'] - base['timed_s']:.4f} s "
                     f"({traced['timed_s']:.3f} s traced, {base['timed_s']:.3f} s untraced)")
    else:
        setups = [run_worker(args, deadline, setup_only=True)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        res = run_worker(args, deadline, cases=cases)
        setups.append(res["setup_s"])
        failures = {int(k): v for k, v in res["failures"].items()}
        m = res["metrics"]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "cases_per_s": (m["cases_per_s"], "1/s"),
            "case_p50_s": (m["case_p50_s"], "s"),
            "case_tail_s": (m["case_tail_s"], "s"),
            "peak_rss_mb": (m["peak_rss_mb"], "MB"),
        }
    for i, why in digest_failures(res, expected_digests(args.workload, args.seed)).items():
        failures.setdefault(i, why)
    attempted = res["attempted"]
    if not args.trace:
        metrics["success_rate"] = (1 - len(failures) / attempted, "ratio")
    block = res["block_size"]
    lines += [
        f"workload {args.workload} seed {args.seed}: {attempted} cases, "
        f"{res['timed_s']:.3f} s timed, case_tail_s = p{res['tail_pct']}",
        f"error_rate {len(failures) / attempted:.4f} ({len(failures)} failed / {attempted} attempted)",
        f"inputs_sha256 {res['inputs_sha256']} (first block, {block} cases)",
        f"outputs_sha256 {combined(res['case_digests'][:block])} (first block, {block} cases)",
    ]
    lines += [f"failed case {i}: {why}" for i, why in sorted(failures.items())[:10]]
    lines += [f"{name} {value} {unit}" for name, (value, unit) in metrics.items()]
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return lines, summary


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["construct", "cli"])
    p.add_argument("--seed", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "zchain" / "__init__.py").is_file():
        print(f"no zchain sources under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    try:
        lines, summary = measure(args)
    except BenchError as e:
        print(e, file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
