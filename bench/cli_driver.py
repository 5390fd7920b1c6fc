"""Traced stand-in for `python -m rdualkit.cli`, used only by traced cli_batch runs.

Usage: cli_driver.py SPANS_PATH OP_ID CLI_ARGS...

Runs with the same PYTHONPATH as the untraced CLI. Imports rdualkit.cli
(timing the import), installs the span wrappers, runs
cli.main on the remaining arguments and dumps the spans to SPANS_PATH (svd
inputs to SPANS_PATH.npz). Standard output and the exit code are the CLI's.
"""

import sys
import time


def main() -> int:
    spans_path, op = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    from rdualkit import cli

    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.op = op
    tracer.install()
    try:
        return cli.main(sys.argv[3:])
    finally:
        tracer.uninstall()
        tracer.dump(spans_path, import_s=import_s)


if __name__ == "__main__":
    sys.exit(main())
