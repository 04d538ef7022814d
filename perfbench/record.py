"""Rewrite perfbench/expected.json: the digests of each workload's first block
of cases for the recorded seed, which run.py checks every run against.

    python3 perfbench/record.py

Only run it for a change that is meant to alter the generated inputs or the
canonical outputs, and say so in the change.
"""

import argparse
import json
import time

import run

SEED = "1"
CASES = 24  # at least one whole first block of every workload


def main():
    doc = {"seed": SEED, "workloads": {}}
    for workload in ("construct", "cli"):
        args = argparse.Namespace(workload=workload, seed=SEED, seconds=0)
        res = run.run_worker(args, time.monotonic() + run.DEADLINE_S, cases=CASES)
        if res["failures"]:
            raise SystemExit(f"{workload}: failing cases, nothing recorded: {res['failures']}")
        doc["workloads"][workload] = {
            "inputs": res["inputs_sha256"],
            "outputs": res["case_digests"][:res["block_size"]],
        }
    with open(run.HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
