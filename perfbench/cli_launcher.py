"""Run one ``zchain`` command with the benchmark's span wrappers installed.

    python3 perfbench/cli_launcher.py <stats.json> <case id> <zchain arguments...>

It imports ``zchain.cli`` (timed as ``import_s``), wraps the listed functions,
calls ``zchain.cli.main`` with the arguments, writes the spans and counters to
<stats.json> and exits with the command's exit code.  stdout is the command's.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402


def main():
    stats_path, case_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    t = time.perf_counter()
    import zchain.cli
    import_s = time.perf_counter() - t
    tracer = tracing.Tracer()
    tracer.install()
    tracer.case = case_id
    tracer.enabled = True
    try:
        code = zchain.cli.main(argv)
    finally:
        tracer.enabled = False
        tracer.uninstall()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "raw": tracer.raw(),
                       "spans": tracer.span_columns()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
