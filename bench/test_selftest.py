"""Self-tests of the benchmark: factorization counts, seeded inputs, span arithmetic.

Run from the repository root with `python3 -m pytest bench -q`.
"""

import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run as bench_run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from rdualkit import rduals  # noqa: E402

SEED = 7


def _traced(call):
    tracer = tr.Tracer()
    tracer.install()
    try:
        call()
    finally:
        tracer.uninstall()
    return tracer.spans


def _per_call(spans, name):
    return [c for s, c in zip(spans, tr.factorizations(spans, (name,))) if s.name == name]


@pytest.fixture(scope="module")
def pair_cases():
    return [c for c in wl.pair_setup(SEED)[0] if c.n == 16 and c.spectrum in ("k4", "rank")][:2]


@pytest.mark.parametrize("which", [0, 1])
def test_pair_op_factorization_counts(pair_cases, which):
    c = pair_cases[which]

    def ops():
        cert = rduals.certify_symmetrical_pair(c.f, c.omega)
        rduals.recover_symmetrical(c.omega, cert, c.s_f_sqrt)
        rduals.gamma_sequence(c.f, cert)
        rduals.decide_type_I_pair(c.f, c.omega)
        rduals.decide_type_I_pair(c.f_off, c.omega)

    for _ in range(2):  # the counts repeat exactly
        spans = _traced(ops)
        assert _per_call(spans, "rduals.certify_symmetrical_pair") == [(5, 3)]
        assert _per_call(spans, "rduals.recover_symmetrical") == [(1, 0)]
        assert _per_call(spans, "rduals.gamma_sequence") == [(1, 1)]
        assert _per_call(spans, "rduals.decide_type_I_pair") == [(2, 2), (2, 0)]


def test_represent_pipeline_counts_through_the_runner():
    cases = wl.represent_setup(SEED)[0]
    ops = wl.represent_round([cases[0], cases[3]])  # n=8, one of them rank n-2
    assert cases[3].rank_deficient and cases[0].n == cases[3].n == 8
    tracer = tr.Tracer()
    tracer.install()
    try:
        tally = bench_run.Tally()
        bench_run.run_round(ops, tally, tracer)
    finally:
        tracer.uninstall()
    assert tally.passed == 2 and not tally.wrong
    assert tr.factorizations_by_op(tracer.spans) == {0: (2 * 8 + 5, 2), 1: (2 * 8 + 5, 2)}
    metrics = tr.summarize(tracer.spans, passes=1)
    assert metrics["representation.pipeline.svd_per_call"] == 21
    assert metrics["representation.pipeline.eig_per_call"] == 2
    assert metrics["representation.represent_inv_sqrt.svd_per_call"] == 2 * 8 + 1
    assert metrics["linalg.svd.calls"] == 42
    # extend_operator factors the 6 x 6 action on the span of the rank n-2 omega
    assert metrics["linalg.svd.work_n3"] == 41 * 8**3 + 6**3
    assert len(tracer.svd_inputs) == 42


def test_cli_certify_counts(tmp_path):
    (inp,) = wl.cli_setup(SEED, tmp_path)
    f, omega = inp.files["f"], inp.files["omega"]
    tracer = tr.Tracer()
    tracer.op = 11
    res = wl.run_cli(["certify", f, omega], tmp_path, tracer)
    assert res.code == 0
    assert tr.factorizations_by_op(tracer.spans) == {11: (5, 4)}
    assert tracer.extras[0]["import_s"] > 0
    assert sorted(p.name for p in tmp_path.glob("spans-*")) == []
    plain = wl.run_cli(["certify", f, omega], tmp_path)
    assert plain.stdout == res.stdout


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        return [obj.tobytes()]
    if hasattr(obj, "mat"):
        return [obj.mat.tobytes()]
    if hasattr(obj, "__dict__"):
        return [b for v in vars(obj).values() for b in _arrays(v)]
    return [repr(obj).encode()]


@pytest.mark.parametrize("setup", [wl.pair_setup, wl.represent_setup])
def test_same_seed_same_inputs(setup):
    def flat(seed):
        return [b for cases in setup(seed) for c in cases for b in _arrays(c)]

    first = flat(SEED)
    assert first == flat(SEED)
    assert first != flat(SEED + 1)
    sets = setup(SEED)
    assert len(sets) > 1 and _arrays(sets[0][0]) != _arrays(sets[1][0])


def test_same_seed_same_cli_files(tmp_path):
    def files(seed, where):
        wl.cli_setup(seed, where)
        return {p.name: p.read_bytes() for p in sorted(where.iterdir())}

    first = files(SEED, tmp_path / "a")
    assert first == files(SEED, tmp_path / "b")
    assert first != files(SEED + 1, tmp_path / "c")


def test_self_time_on_a_synthetic_tree():
    spans = [
        tr.Span("root", 0.0, None, 0, t1=10.0),
        tr.Span("a", 1.0, 0, 0, t1=4.0),
        tr.Span("a.child", 2.0, 1, 0, t1=3.0),
        tr.Span("b", 3.0, 0, 0, t1=6.0),  # overlaps a: the union is counted once
        tr.Span("c", 8.0, 0, 0, t1=12.0),  # runs past root: only the inside counts
    ]
    assert tr.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])


def test_attribution_follows_ancestry():
    spans = [
        tr.Span("representation.represent_inv_sqrt", 0.0, None, 0, t1=9.0),
        tr.Span("linalg.operator_norm", 1.0, 0, 0, t1=2.0),
        tr.Span(tr.SVD, 1.1, 1, 0, t1=1.9),
        tr.Span(tr.EIG, 3.0, 0, 0, t1=4.0),
        tr.Span(tr.SVD, 5.0, None, 1, t1=6.0),
    ]
    counts = tr.factorizations(spans, ("representation.represent_inv_sqrt",))
    assert counts[0] == (1, 1) and counts[1] == (0, 0)
    assert tr.factorizations_by_op(spans) == {0: (1, 1), 1: (1, 0)}


def test_wrapped_lists_every_public_function():
    import importlib

    for mod_name, names in tr.WRAPPED.items():
        if mod_name == "cli":
            continue
        mod = importlib.import_module(f"rdualkit.{mod_name}")
        public = {
            name
            for name, fn in inspect.getmembers(mod, inspect.isfunction)
            if fn.__module__ == mod.__name__ and not name.startswith("_")
        }
        assert public == set(names), mod_name


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tr.per_layer_units().items())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench_run.E2E_UNITS.items())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
