"""Sim-time timeline: window math, digest parity, export determinism."""

from __future__ import annotations

import json

import pytest

from repro.errors import SimulationError
from repro.kernel.task import reset_tid_counter
from repro.model.speedup import OracleSpeedupModel
from repro.obs.exporters import timeseries_counter_records, to_chrome_trace
from repro.obs.timeseries import (
    TIMESERIES_SCHEMA_VERSION,
    TimeseriesSampler,
    exact_percentile,
    series_value,
)
from repro.schedulers import make_scheduler
from repro.sim.digest import run_digest
from repro.sim.machine import Machine, MachineConfig
from repro.sim.topology import make_topology
from tests.conftest import make_machine, make_simple_task

SCHEDULERS = ("linux", "gts", "wash", "colab")


def reference_run(name: str, *, timeseries: bool, **config_kwargs):
    """One deterministic reference run (fresh tids each call)."""
    reset_tid_counter()
    if name in ("wash", "colab"):
        scheduler = make_scheduler(
            name, estimator=OracleSpeedupModel(noise_std=0.0, seed=3)
        )
    else:
        scheduler = make_scheduler(name)
    machine = Machine(
        make_topology(2, 2),
        scheduler,
        MachineConfig(seed=3, timeseries=timeseries, **config_kwargs),
    )
    for i in range(6):
        machine.add_task(
            make_simple_task(f"t{i}", work=20.0, chunks=5, app_id=i % 2)
        )
    return machine.run()


# ----------------------------------------------------------------------
# Percentile math
# ----------------------------------------------------------------------
class TestExactPercentile:
    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            exact_percentile([], 50.0)

    def test_single_value(self):
        assert exact_percentile([7.0], 95.0) == 7.0

    def test_median_interpolates(self):
        assert exact_percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5

    def test_p95_interpolates(self):
        ordered = [float(i) for i in range(21)]
        assert exact_percentile(ordered, 95.0) == pytest.approx(19.0)

    def test_extremes_are_min_max(self):
        ordered = [1.0, 5.0, 9.0]
        assert exact_percentile(ordered, 0.0) == 1.0
        assert exact_percentile(ordered, 100.0) == 9.0


# ----------------------------------------------------------------------
# Snapshot shape and window arithmetic
# ----------------------------------------------------------------------
class TestSnapshot:
    def test_snapshot_meta_and_kinds(self):
        result = reference_run("colab", timeseries=True)
        snap = result.timeseries
        assert snap["schema_version"] == TIMESERIES_SCHEMA_VERSION
        assert snap["sample_period_ms"] == 1.0
        assert snap["samples_per_window"] == 8
        assert snap["window_ms"] == 8.0
        assert snap["samples"] > 0
        assert snap["makespan_ms"] == result.makespan
        kinds = {entry["kind"] for entry in snap["series"].values()}
        assert kinds == {"gauge", "rate", "ratio"}

    def test_expected_series_present(self):
        snap = reference_run("colab", timeseries=True).timeseries
        names = set(snap["series"])
        for expected in (
            "rq.depth.core0",
            "rq.depth.mean",
            "util.big",
            "util.little",
            "futex.waiters",
            "sched.vruntime_spread_ms",
            "sched.migrations",
            "sched.context_switches",
            "sched.preemptions",
            "engine.events_processed",
            "scheduler.picks",
            "model.pred_cache.hits",
            "model.pred_cache.hit_rate",
        ):
            assert expected in names, expected

    def test_windows_are_tick_aligned_and_ordered(self):
        snap = reference_run("linux", timeseries=True).timeseries
        period = snap["sample_period_ms"]
        for entry in snap["series"].values():
            previous_end = 0.0
            for window in entry["windows"]:
                assert window["t0"] == previous_end
                assert window["t1"] > window["t0"]
                assert (window["t0"] / period) == int(window["t0"] / period)
                previous_end = window["t1"]

    def test_gauge_stats_are_consistent(self):
        snap = reference_run("gts", timeseries=True).timeseries
        for entry in snap["series"].values():
            if entry["kind"] != "gauge":
                continue
            for window in entry["windows"]:
                assert window["n"] >= 1
                assert window["min"] <= window["p50"] <= window["p95"]
                assert window["p95"] <= window["max"]
                assert window["min"] <= window["mean"] <= window["max"]

    def test_rate_windows_match_delta_arithmetic(self):
        snap = reference_run("linux", timeseries=True).timeseries
        entry = snap["series"]["engine.events_processed"]
        assert entry["kind"] == "rate"
        for window in entry["windows"]:
            assert window["delta"] >= 0.0
            span_s = (window["t1"] - window["t0"]) / 1000.0
            assert window["rate_per_s"] == pytest.approx(
                window["delta"] / span_s
            )

    def test_ratio_windows_bounded(self):
        snap = reference_run("colab", timeseries=True).timeseries
        entry = snap["series"]["model.pred_cache.hit_rate"]
        assert entry["kind"] == "ratio"
        assert entry["windows"]
        for window in entry["windows"]:
            assert 0.0 <= window["value"] <= 1.0

    def test_default_cadence_respected(self):
        machine = make_machine(2, 2, seed=3)
        for i in range(6):
            machine.add_task(
                make_simple_task(f"t{i}", work=20.0, chunks=5, app_id=i % 2)
            )
        sampler = TimeseriesSampler(machine)
        machine.engine.probe = sampler
        result = machine.run()
        snap = sampler.snapshot(result.makespan)
        assert snap["sample_period_ms"] == 1.0
        assert snap["samples_per_window"] == 8
        assert snap["window_ms"] == 8.0
        assert snap["samples"] == int(result.makespan // 1.0)
        windows = snap["series"]["rq.depth.mean"]["windows"]
        assert windows[0]["t1"] == 8.0

    def test_disabled_run_has_empty_timeseries(self):
        result = reference_run("linux", timeseries=False)
        assert result.timeseries == {}

    def test_series_value_per_kind(self):
        gauge = {"kind": "gauge"}
        rate = {"kind": "rate"}
        ratio = {"kind": "ratio"}
        assert series_value(gauge, {"mean": 2.5}) == 2.5
        assert series_value(rate, {"rate_per_s": 40.0}) == 40.0
        assert series_value(ratio, {"value": 0.75}) == 0.75


# ----------------------------------------------------------------------
# Determinism: digest parity and byte-identical exports
# ----------------------------------------------------------------------
class TestDigestParity:
    @pytest.mark.parametrize("name", SCHEDULERS)
    def test_sampling_never_changes_the_digest(self, name):
        off = run_digest(reference_run(name, timeseries=False))
        on = run_digest(reference_run(name, timeseries=True))
        assert off == on


class TestExportDeterminism:
    @pytest.mark.parametrize("name", SCHEDULERS)
    def test_counter_track_document_is_byte_identical(self, name):
        def document() -> str:
            result = reference_run(name, timeseries=True)
            return json.dumps(
                to_chrome_trace([], timeseries=result.timeseries),
                sort_keys=True,
            )

        assert document() == document()

    def test_counter_records_cover_every_series(self):
        snap = reference_run("colab", timeseries=True).timeseries
        records = timeseries_counter_records(snap)
        counters = [r for r in records if r.get("ph") == "C"]
        assert {r["name"] for r in counters} == set(snap["series"])
        for record in counters:
            assert record["pid"] == 2
            assert "value" in record["args"]

    def test_counter_timestamps_monotonic_per_series(self):
        snap = reference_run("colab", timeseries=True).timeseries
        by_name: dict[str, list[int]] = {}
        for record in timeseries_counter_records(snap):
            if record.get("ph") == "C":
                by_name.setdefault(record["name"], []).append(record["ts"])
        for stamps in by_name.values():
            assert stamps == sorted(stamps)
