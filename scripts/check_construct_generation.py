"""Check that the construct benchmark can generate its inputs.

    python3 scripts/check_construct_generation.py

Builds ``Construct(seed, None).block(b)`` for b = 0..119 for seeds 1 and 2,
the same calls the benchmark worker makes between cases.  Generation runs
outside the worker's per-case ``try``, so an exception here ends a
benchmark run.  The check passes when every block builds, or when the first
exception is ``Construct.draw``'s draw-limit ``RuntimeError``, which ends a
long enough run by design; any other exception fails it.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import Construct  # noqa: E402

SEEDS = (1, 2)
BLOCKS = 120
DRAW_LIMIT = f"no usable input in {Construct.MAX_DRAWS} draws"


def generate(seed):
    """Build the seed's blocks until BLOCKS or the draw limit."""
    w = Construct(seed, None)
    cases = 0
    for b in range(BLOCKS):
        try:
            cases += len(w.block(b))
        except RuntimeError as e:
            if not str(e).endswith(DRAW_LIMIT):
                raise
            print(f"seed {seed}: block {b} hit the draw limit after {cases} cases: {e}")
            return
    print(f"seed {seed}: all {BLOCKS} blocks built, {cases} cases")


def main():
    for seed in SEEDS:
        start = time.perf_counter()
        generate(seed)
        print(f"seed {seed}: {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
