"""rdualkit benchmark: one closed-loop caller drives a seeded workload and checks every output.

    python3 bench/run.py --workload pair_ops --seed 1 --seconds 30 --trace 0

Workloads are pair_ops, represent_series and cli_batch (see bench/README.md).
With --trace 0 the run cycles through whole rounds of the workload's ops for
about --seconds and reports the end-to-end metrics; with --trace 1 it alternates
untraced and traced passes (one set-up plus one round each) and reports the
per-layer metrics. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the line before it records
the environment and the failures with their base.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up is timed before and after the rounds, each time at least
# SETUP_REPEATS times and for at least SETUP_MIN_S, so setup_s spans the run
SETUP_REPEATS = 3
SETUP_MIN_S = 0.5
# at least ten samples beyond the 90th percentile
MIN_SAMPLES = 100
# no run starts a round that could end after this many seconds of measuring
DEADLINE_S = 150.0

E2E_UNITS = {
    "ops_per_s": "op/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "pass_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class Tally:
    """Outcome of every attempted op: latencies of the ops that ran, failures by kind."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.passed = 0
        # outputs the oracle found wrong, and outputs that only missed their accuracy budget
        self.wrong: list[str] = []
        self.over_budget: list[str] = []
        self.failures: Counter = Counter()

    @property
    def failed(self) -> int:
        return self.attempted - self.passed

    def fail(self, op, reason: str) -> None:
        self.failures[f"{op.kind}@n={op.n}:{reason}"] += 1


def run_round(ops, tally: Tally, tracer=None, op_base: int = 0) -> None:
    """Run one round of ops in order, closed loop, timing each call and checking its output."""
    from rdualkit.errors import RDualError
    from workloads import Mismatch

    state: dict = {}
    for i, op in enumerate(ops):
        tally.attempted += 1
        if op.needs is not None and op.needs not in state:
            tally.fail(op, "input-not-produced")
            continue
        if tracer is not None:
            tracer.op = op_base + i
            span = tracer.open(op.span or f"bench.{op.kind}")
        error = None
        t0 = time.perf_counter()
        try:
            out = op.run(state, tracer)
        except RDualError as exc:
            error = type(exc).__name__
        except Exception as exc:  # any other exception is a defect: count it as a wrong output
            error = type(exc).__name__
            tally.wrong.append(f"{op.kind}@n={op.n}: raised {error}: {exc}")
        finally:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(span, error)
                tracer.op = None
        tally.latencies.append(dt)
        if error is not None:
            tally.fail(op, error)
            continue
        try:
            op.check(out)
        except Mismatch as exc:
            if exc.gross:
                tally.fail(op, "wrong-output")
                tally.wrong.append(f"{op.kind}@n={op.n}: {exc}")
            else:
                tally.fail(op, "over-budget")
                tally.over_budget.append(f"{op.kind}@n={op.n}: {exc}")
            continue
        except Exception as exc:  # an output the check cannot even read is wrong
            tally.fail(op, "wrong-output")
            tally.wrong.append(f"{op.kind}@n={op.n}: check raised {type(exc).__name__}: {exc}")
            continue
        tally.passed += 1
        if op.gives is not None:
            state[op.gives] = out


def _stop(elapsed: float, units: int, samples: int, seconds: float) -> bool:
    """Stop after whole units once the end lands nearest to `seconds` with enough samples."""
    per_unit = elapsed / units
    if elapsed + per_unit > DEADLINE_S:
        return True
    return samples >= MIN_SAMPLES and elapsed + per_unit / 2 >= seconds


def time_setups(wl, seed: int, workdir: Path, times: list):
    """Set up repeatedly, appending each duration to `times`; return the last inputs."""
    spent = []
    while len(spent) < SETUP_REPEATS or sum(spent) < SETUP_MIN_S:
        t0 = time.perf_counter()
        inputs = wl.setup(seed, workdir)
        spent.append(time.perf_counter() - t0)
    times += spent
    return inputs


def measure(wl, seed: int, seconds: float, workdir: Path) -> tuple[dict, Tally, dict]:
    """Untraced run: set up repeatedly, warm up, cycle through whole rounds, set up again."""
    setup_times = []
    cycle = [wl.round(s) for s in time_setups(wl, seed, workdir, setup_times)]
    run_round(cycle[0][: wl.warmup], Tally())

    tally = Tally()
    rounds = 0
    start = time.perf_counter()
    while True:
        run_round(cycle[rounds % len(cycle)], tally)
        rounds += 1
        if _stop(time.perf_counter() - start, rounds, len(tally.latencies), seconds):
            break
    time_setups(wl, seed, workdir, setup_times)
    lat = tally.latencies
    who = resource.RUSAGE_CHILDREN if wl.subprocess else resource.RUSAGE_SELF
    metrics = {
        "ops_per_s": tally.passed / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "pass_ratio": tally.passed / tally.attempted,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    extent = {"rounds": rounds, "setups": len(setup_times)}
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}, tally, extent


def measure_traced(wl, seed: int, seconds: float, workdir: Path) -> tuple[dict, Tally, dict]:
    """Traced run: pairs of one untraced and one traced pass, in alternating order.

    Both passes of a pair set up and run the same round of the cycle.
    """
    import tracer as tr

    cycle = [wl.round(s) for s in wl.setup(seed, workdir)]
    run_round(cycle[0][: wl.warmup], Tally())
    tracer = tr.Tracer()
    tally = Tally()
    walls = {False: [], True: []}
    process_s = []
    pairs = 0
    start = time.perf_counter()
    while True:
        for traced in (False, True) if pairs % 2 == 0 else (True, False):
            first = len(tally.latencies)
            t0 = time.perf_counter()
            if traced:
                tracer.install()
            try:
                wl.setup(seed, workdir)
                ops = cycle[pairs % len(cycle)]
                run_round(ops, tally, tracer if traced else None, op_base=pairs * len(ops))
            finally:
                tracer.uninstall()
            walls[traced].append(time.perf_counter() - t0)
            if not traced and wl.subprocess:
                process_s += tally.latencies[first:]
        pairs += 1
        if _stop(time.perf_counter() - start, pairs, MIN_SAMPLES, seconds):
            break

    metrics = tr.summarize(tracer.spans, pairs)
    engine_s = sum(s.t1 - s.t0 for s in tracer.spans if s.name == tr.SVD)
    numpy_s = tr.numpy_svd_seconds(tracer.svd_inputs)
    metrics[f"{tr.SVD}.numpy_ratio"] = engine_s / numpy_s if numpy_s > 0 else 0.0
    imports = [x["import_s"] for x in tracer.extras]
    metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0
    metrics["cli.process_ms"] = statistics.median(process_s) * 1e3 if process_s else 0.0
    metrics["trace_overhead_ratio"] = sum(walls[True]) / sum(walls[False])
    units = tr.per_layer_units()
    out = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    return out, tally, {"passes_per_mode": pairs, "spans": len(tracer.spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # one process, one caller, one BLAS thread; children inherit the setting
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "rdualkit" / "__init__.py").is_file():
        print(f"rdualkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import rdualkit
    import workloads

    if not Path(rdualkit.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"rdualkit was imported from {rdualkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        run = measure_traced if args.trace else measure
        metrics, tally, extent = run(wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": 1,
        **extent,
        "latency_samples": len(tally.latencies),
        "fail_ratio": {
            "value": tally.failed / tally.attempted,
            "failed": tally.failed,
            "attempted": tally.attempted,
        },
        "failures": dict(sorted(tally.failures.items())),
        "wrong_outputs": tally.wrong[:10],
        "over_budget_outputs": tally.over_budget[:10],
    }
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
