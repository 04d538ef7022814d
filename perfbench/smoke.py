"""Minimal-size smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs the first few cases of every workload untraced and traced through the
same code as run.py, and fails unless every case passes its checks, the
traced output digests equal the untraced ones, the digests match
perfbench/expected.json, and the reported metrics are exactly the ones
BENCHMARK.json declares.
"""

import argparse
import json
import sys

import run

CASES = {"construct": 7, "cli": 3}


def main():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for workload, cases in CASES.items():
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=run.expected_seed(),
                                      seconds=0, trace=trace)
            lines, summary = run.measure(args, cases=cases)
            got = {name: m["unit"] for name, m in summary["metrics"].items()}
            where = f"{workload} trace={trace}"
            if not summary["correct"]:
                problems.append(f"{where}: incorrect\n  " + "\n  ".join(
                    line for line in lines if line.startswith(("workload", "error_rate", "failed"))))
            if summary["attempted"] != cases:
                problems.append(f"{where}: attempted {summary['attempted']}, expected {cases}")
            if got != declared[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(declared[trace].items()))}")
            print(f"{where}: {summary['attempted']} cases, correct={summary['correct']}")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
