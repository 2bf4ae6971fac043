"""Traced stand-in for the `qlandauer` console script.

    python3 bench/cli_child.py <totals.json> <subcommand> [options...]

Times `import qlandauer.cli`, installs the tracer, runs the subcommand
through `cli.parse_and_dispatch` exactly as `qlandauer.cli.main` does, writes
the tracer totals (plus the import time) to <totals.json> and exits with the
subcommand's exit code.
"""

import json
import sys
import time

start = time.perf_counter_ns()
import qlandauer.cli as cli  # noqa: E402

import_ns = time.perf_counter_ns() - start

from tracer import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.parse_and_dispatch(argv)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    totals["cli.import_ns"] = import_ns
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(totals, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
