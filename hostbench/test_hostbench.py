"""Tests of the benchmark's own logic.  Run: ``python3 -m pytest hostbench``."""

from __future__ import annotations

import cProfile
import dataclasses
import json
import pathlib
import pstats
import sys
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from hostbench import layers, measure, stats  # noqa: E402
from hostbench.run import end_to_end  # noqa: E402
from hostbench.workloads import N_INPUT_SEEDS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def program():
    return measure.Program()


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile(list(range(100)), 0.9) == pytest.approx(89.1)
    assert stats.percentile([3.0, 1.0, 2.0] * 10, 0.5) == 2.0
    assert stats.samples_beyond(100, 0.9) == 10
    with pytest.raises(ValueError):
        stats.percentile(list(range(90)), 0.9)
    for workload in WORKLOADS.values():
        assert stats.samples_beyond(len(workload.runs()), 0.9) >= 10


def test_workloads_yield_the_specified_run_counts():
    counts = {name: len(workload.runs()) for name, workload in WORKLOADS.items()}
    assert counts == {"dense": 224, "sparse": 192, "observed": 120}
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_trace_runs_profile_a_prefix_of_the_run_order(program):
    for workload in WORKLOADS.values():
        part = workload.traced()
        assert part.runs() == workload.runs()[:len(part.runs())]
        assert part.points() == workload.points()[:len(part.points())]
    observed = WORKLOADS["observed"].traced()
    assert len(observed.runs()) == 60
    threads = {program.MIXES[mix].total_threads >= 16 for mix in observed.mixes}
    assert threads == {True, False}
    expected = measure.load_expected(observed, 0)
    assert expected["runs"] == measure.load_expected(WORKLOADS["observed"], 0)["runs"][:60]


def test_dense_and_sparse_split_the_mixes_by_thread_count(program):
    mixes = program.MIXES
    dense = {name for name, mix in mixes.items() if mix.total_threads >= 16}
    sparse = {name for name, mix in mixes.items() if mix.total_threads <= 10}
    assert set(WORKLOADS["dense"].mixes) == dense
    assert set(WORKLOADS["sparse"].mixes) == sparse


def test_layer_names():
    layer_of = layers.LayerMap("/x/src/repro", "/x/hostbench")
    assert layer_of("/x/src/repro/sim/engine.py") == "sim.engine"
    assert layer_of("/x/src/repro/core/colab.py") == "core"
    assert layer_of("/x/src/repro/schedulers/base.py") == "schedulers"
    assert layer_of("/x/src/repro/obs/__init__.py") == "obs"
    assert layer_of("/x/hostbench/measure.py") == layers.BENCH
    assert layer_of("/usr/lib/python3/json/encoder.py") is None
    assert layer_of("~") is None


def test_foreign_self_time_is_charged_to_the_calling_layer():
    pkg = "/x/src/repro/"
    machine = (pkg + "sim/machine.py", 1, "run")
    engine = (pkg + "sim/engine.py", 1, "step")
    helper = ("/usr/lib/python3/heapq.py", 1, "helper")
    builtin = ("~", 0, "<built-in method builtins.sorted>")
    profile = {
        machine: (1, 1, 2.0, 10.0, {}),
        engine: (5, 5, 3.0, 6.0, {machine: (5, 5, 3.0, 6.0)}),
        # helper: 0.75 s of its self time under engine, 0.25 s under machine;
        # inclusive 2.0 s along the engine edge, 1.0 s along machine's.
        helper: (4, 4, 1.0, 3.0, {engine: (3, 3, 0.75, 2.0), machine: (1, 1, 0.25, 1.0)}),
        builtin: (4, 4, 2.0, 2.0, {helper: (4, 4, 2.0, 2.0)}),
    }
    got = layers.layer_self_time(profile, layers.LayerMap("/x/src/repro", "/x/hb"))
    assert got["sim.engine"] == pytest.approx(3.0 + 0.75 + 2.0 * 2 / 3)
    assert got["sim.machine"] == pytest.approx(2.0 + 0.25 + 2.0 * 1 / 3)
    assert sum(got.values()) == pytest.approx(8.0)


def test_layers_sum_to_the_profiled_total(program):
    from repro.metrics.turnaround import h_antt, h_stp

    runs = {f"app{i}": 10.0 + i for i in range(50)}
    alone = {f"app{i}": 5.0 + i for i in range(50)}
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(200):
        h_antt(runs, alone)
        h_stp(runs, alone)
        sorted(runs.values())
    profiler.disable()
    profile = pstats.Stats(profiler).stats
    layer_of = layers.LayerMap(str(program.package_dir), str(measure.BENCH_DIR))
    got = layers.layer_self_time(profile, layer_of)
    total = sum(entry[2] for entry in profile.values())
    assert sum(got.values()) == pytest.approx(total, rel=1e-9)
    assert got["metrics.turnaround"] > 0


def first_point(name: str) -> tuple:
    """A one-point copy of workload ``name`` and its stored digests."""
    workload = WORKLOADS[name]
    expected = measure.load_expected(workload, 0)
    mix, config, scheduler = workload.points()[0]
    one = dataclasses.replace(
        workload, mixes=(mix,), configs=(config,), schedulers=(scheduler,)
    )
    return one, {"runs": expected["runs"][:2], "points": expected["points"][:1]}


def test_stored_digests_pass_and_a_perturbed_digest_fails(program):
    one, expected = first_point("sparse")
    checker = measure.Checker(expected)
    measure.sweep(program, one, 0, checker)
    assert checker.failed == set() and checker.problems == []

    bad_run = {**expected, "runs": [expected["runs"][0], "0" * measure.DIGEST_CHARS]}
    checker = measure.Checker(bad_run)
    measure.sweep(program, one, 0, checker)
    assert checker.failed == {1}

    bad_point = {**expected, "points": ["f" * measure.DIGEST_CHARS]}
    checker = measure.Checker(bad_point)
    measure.sweep(program, one, 0, checker)
    assert checker.failed == {0, 1}


def test_export_check_finds_a_dropped_event(program):
    one, expected = first_point("observed")
    ctx = program.ExperimentContext(
        seed=0, work_scale=measure.SCALE, estimator=program.model
    )
    mix, config, scheduler, big_first = one.runs()[0]
    result, document, _ = measure.observed_run(
        program, ctx, program.MIXES[mix], config, scheduler, big_first,
        layers.NullSpans(),
    )
    assert measure.missing_events(program, result.events, document) == 0
    records = document["traceEvents"]
    instant = next(i for i, r in enumerate(records) if r["ph"] == "i" and r["pid"] == 0)
    del records[instant]
    assert measure.missing_events(program, result.events, document) == 1


def test_run_samples_come_from_the_timed_sweeps_only():
    workload = dataclasses.replace(WORKLOADS["sparse"], timed_sweeps=3)
    n = len(workload.runs())
    sweeps = [
        measure.Sweep(run_ref_s={run: float(k) for run in range(n)})
        for k in (3, 1, 2, 100, 100)
    ]
    # Median of the first three sweeps per run; the later two never count.
    assert measure.run_samples(workload, sweeps) == [2.0] * n
    assert measure.run_samples(workload, sweeps[:1]) == [3.0] * n
    del sweeps[1].run_ref_s[5]  # a failed run has no time in that sweep
    assert measure.run_samples(workload, sweeps)[5] == 2.5


def test_every_input_seed_has_stored_digests():
    for workload in WORKLOADS.values():
        for seed in range(N_INPUT_SEEDS):
            measure.load_expected(workload, seed)


def test_every_metric_the_spec_names_is_measured():
    sweep = measure.Sweep(sweep_s=2.0, kernel_s=[0.005], counts=Counter({
        "sim.engine.events_processed": 9, "sim.engine.events_discarded": 1,
    }))
    traced = measure.Profiled(sweep, measure.Checker(None), {}, {}, 1.0)
    per_layer = measure.layer_metrics(
        layers.LayerMap("/x", "/y"), {"import_s": 0.1, "train_s": 1.0},
        sweep, traced, measure.GcClock(),
    )
    e2e = end_to_end([1.0], {
        "run_ref_s": [0.01] * 120, "sweep_ref_s": [1.0], "sim_s": [2.0],
        "peak_rss_mb": 50.0,
    })
    assert {m["name"] for m in SPEC["per_layer"]} == set(per_layer)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(e2e)
