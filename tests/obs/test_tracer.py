"""Tracer tests: event capture, zero-overhead contract, on/off parity."""

from __future__ import annotations

import dataclasses

import pytest

from repro.model.speedup import OracleSpeedupModel
from repro.obs.context import ObsConfig, Observability
from repro.obs.tracer import EventKind, Tracer, dispatch_slices
from tests.conftest import make_machine, make_simple_task

FREE = dict(context_switch_cost=0.0, migration_cost=0.0)


class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.emit(1.0, EventKind.DISPATCH, core_id=0, tid=1)
        assert len(tracer) == 0
        assert tracer.events == []

    def test_enabled_tracer_records_typed_events(self):
        tracer = Tracer(enabled=True)
        tracer.emit(1.0, EventKind.DISPATCH, core_id=0, tid=1, name="t")
        tracer.emit(2.0, EventKind.DESCHEDULE, core_id=0, tid=1, reason="done")
        assert len(tracer) == 2
        assert tracer.of_kind(EventKind.DISPATCH)[0].name == "t"
        assert tracer.of_kind(EventKind.DESCHEDULE)[0].args == {"reason": "done"}

    def test_argless_emit_has_none_args(self):
        tracer = Tracer(enabled=True)
        tracer.emit(0.0, EventKind.LABEL)
        assert tracer.events[0].args is None

    def test_dispatch_slices_pairing(self):
        tracer = Tracer(enabled=True)
        tracer.emit(0.0, EventKind.DISPATCH, core_id=0, tid=1, name="a")
        tracer.emit(3.0, EventKind.DESCHEDULE, core_id=0, tid=1)
        tracer.emit(3.0, EventKind.DISPATCH, core_id=0, tid=2, name="b")
        tracer.emit(1.0, EventKind.DISPATCH, core_id=1, tid=3, name="c")
        slices = dispatch_slices(tracer.events, end_time=5.0)
        assert (0.0, 3.0, 0, 1, "a") in slices
        assert (3.0, 5.0, 0, 2, "b") in slices  # closed at end_time
        assert (1.0, 5.0, 1, 3, "c") in slices


class TestMachineTracing:
    def run_traced(self, **obs_kwargs):
        machine = make_machine(
            1, 1, obs=ObsConfig(**obs_kwargs), **FREE
        )
        for i in range(3):
            machine.add_task(make_simple_task(f"t{i}", work=4.0, app_id=i))
        return machine, machine.run()

    def test_traced_run_produces_events(self):
        machine, result = self.run_traced(trace=True)
        kinds = {e.kind for e in result.events}
        assert EventKind.DISPATCH in kinds
        assert EventKind.DESCHEDULE in kinds
        assert all(e.time >= 0 for e in result.events)
        times = [e.time for e in result.events]
        assert times == sorted(times)

    def test_every_dispatch_names_a_core_and_task(self):
        _machine, result = self.run_traced(trace=True)
        for event in result.events:
            if event.kind is EventKind.DISPATCH:
                assert event.core_id is not None
                assert event.tid is not None
                assert event.name

    def test_untraced_run_has_no_events_or_metrics(self):
        machine = make_machine(1, 1, **FREE)
        machine.add_task(make_simple_task(work=2.0))
        result = machine.run()
        assert result.events == []
        assert result.metrics == {}
        assert machine.obs.tracer.enabled is False

    def test_metrics_snapshot_contents(self):
        _machine, result = self.run_traced(metrics=True)
        gauges = result.metrics["gauges"]
        counters = result.metrics["counters"]
        assert "sched.migrations" in counters
        assert "core.0.utilization" in gauges
        assert "rq.mean_depth" in gauges
        assert "futex.total_wait_ms" in gauges
        assert gauges["run.tasks"] == 3

    def test_profile_snapshot_contents(self):
        _machine, result = self.run_traced(profile=True)
        profile = result.metrics["profile"]
        assert "engine.run" in profile
        assert profile["engine.run"]["count"] == 1
        assert any(key.startswith("engine.handle.") for key in profile)


def _strip_obs(result) -> dict:
    """Every RunResult field except the observability payloads."""
    fields = {}
    for f in dataclasses.fields(result):
        if f.name in ("events", "metrics", "trace_metadata"):
            continue
        fields[f.name] = getattr(result, f.name)
    return fields


class TestParity:
    """Tracing must never change scheduling outcomes (determinism)."""

    @pytest.mark.parametrize("scheduler_name", ["linux", "wash", "colab", "gts"])
    def test_observed_run_is_bit_identical(self, scheduler_name):
        from repro.experiments.runner import ExperimentContext, run_mix_once
        from repro.kernel.task import reset_tid_counter
        from repro.workloads.mixes import MIXES

        mix = MIXES["Sync-1"]
        results = []
        for obs in (None, ObsConfig(trace=True, metrics=True, profile=True)):
            reset_tid_counter()
            ctx = ExperimentContext(
                seed=5, work_scale=0.05, estimator=OracleSpeedupModel()
            )
            results.append(
                run_mix_once(ctx, mix, "2B2S", scheduler_name, True, obs=obs)
            )
        bare, observed = results
        assert _strip_obs(bare) == _strip_obs(observed)
        assert observed.events  # the observed run did trace
        assert bare.events == []

    def test_observed_runs_bypass_the_cache(self):
        from repro.experiments.runner import ExperimentContext, run_mix_once
        from repro.workloads.mixes import MIXES

        ctx = ExperimentContext(
            seed=5, work_scale=0.05, estimator=OracleSpeedupModel()
        )
        mix = MIXES["Sync-1"]
        bare = run_mix_once(ctx, mix, "2B2S", "linux", True)
        observed = run_mix_once(
            ctx, mix, "2B2S", "linux", True, obs=ObsConfig(trace=True)
        )
        assert bare is run_mix_once(ctx, mix, "2B2S", "linux", True)
        assert observed is not bare
        assert not bare.events


class TestObservability:
    def test_disabled_context(self):
        obs = Observability()
        assert not obs.tracer.enabled
        assert not obs.metrics.enabled
        assert not obs.profiler.enabled

