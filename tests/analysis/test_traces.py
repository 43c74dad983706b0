"""Trace analysis and export tests."""

from __future__ import annotations

import json

import pytest

from repro.analysis.export import campaign_to_dict, result_to_dict
from repro.analysis.traces import core_utilization, migration_summary, occupancy_rows
from repro.errors import ExperimentError
from repro.obs.context import ObsConfig
from repro.obs.tracer import EventKind, TraceEvent
from tests.conftest import make_machine, make_simple_task

FREE = dict(context_switch_cost=0.0, migration_cost=0.0)


def traced_run(n_big=1, n_little=1, n_tasks=3):
    machine = make_machine(n_big, n_little, obs=ObsConfig(trace=True), **FREE)
    tasks = [
        make_simple_task(f"t{i}", work=5.0, app_id=i) for i in range(n_tasks)
    ]
    for task in tasks:
        machine.add_task(task, app_name=f"app{task.app_id}")
    return machine, machine.run()


class TestOccupancy:
    def test_rows_cover_all_cores(self):
        machine, result = traced_run()
        tid_to_app = {t.tid: t.app_id for t in machine.tasks}
        rows = occupancy_rows(result, tid_to_app, n_cores=2, buckets=16)
        assert set(rows) == {0, 1}
        assert all(len(r) == 16 for r in rows.values())

    def test_busy_core_has_nonidle_buckets(self):
        machine, result = traced_run()
        tid_to_app = {t.tid: t.app_id for t in machine.tasks}
        rows = occupancy_rows(result, tid_to_app, n_cores=2, buckets=16)
        assert any(cell is not None for cell in rows[0])

    def test_traceless_run_rejected(self):
        machine = make_machine(1, 0)
        machine.add_task(make_simple_task(work=1.0))
        result = machine.run()
        with pytest.raises(ExperimentError):
            occupancy_rows(result, {}, n_cores=1)

    def test_bad_bucket_count_rejected(self):
        machine, result = traced_run()
        with pytest.raises(ExperimentError):
            occupancy_rows(result, {}, n_cores=2, buckets=0)

    def test_zero_duration_run_rejected(self):
        """Regression: a zero-makespan trace must not divide by zero."""
        from repro.sim.machine import RunResult

        result = RunResult(
            topology_name="1B1S",
            scheduler_name="linux",
            makespan=0.0,
            app_turnaround={},
            app_names={},
            tasks=[],
            scheduler_stats=None,
            total_context_switches=0,
            total_migrations=0,
            core_busy_time={},
            events=[TraceEvent(0.0, EventKind.DISPATCH, core_id=0, tid=1)],
        )
        with pytest.raises(ExperimentError, match="zero-duration"):
            occupancy_rows(result, {1: 0}, n_cores=1)


class TestUtilization:
    def test_fractions_in_unit_interval(self):
        _machine, result = traced_run()
        utilization = core_utilization(result)
        assert set(utilization) == {0, 1}
        for value in utilization.values():
            assert 0.0 <= value <= 1.0 + 1e-9

    def test_single_core_fully_busy(self):
        machine = make_machine(1, 0, **FREE)
        machine.add_task(make_simple_task(work=4.0))
        result = machine.run()
        assert core_utilization(result)[0] == pytest.approx(1.0)


class TestMigrationSummary:
    def test_counts_by_app(self):
        _machine, result = traced_run(n_big=2, n_little=2, n_tasks=6)
        summary = migration_summary(result)
        assert summary.total == sum(summary.per_app.values())
        assert summary.most_migrated_count >= 0


class TestExport:
    def test_result_roundtrips_through_json(self):
        _machine, result = traced_run()
        payload = result_to_dict(result)
        text = json.dumps(payload)
        decoded = json.loads(text)
        assert decoded["scheduler"] == "linux"
        assert decoded["makespan_ms"] == pytest.approx(result.makespan)
        assert len(decoded["tasks"]) == 3
        assert set(decoded["apps"]) == {"app0", "app1", "app2"}

    def test_campaign_export(self):
        from repro.experiments.runner import ExperimentContext, evaluate_mix
        from repro.model.speedup import OracleSpeedupModel

        ctx = ExperimentContext(
            seed=2, work_scale=0.04, estimator=OracleSpeedupModel()
        )
        points = [
            evaluate_mix(ctx, "Sync-1", "2B2S", scheduler)
            for scheduler in ("linux", "colab")
        ]
        payload = campaign_to_dict(points)
        json.dumps(payload)  # must be serialisable
        assert payload["count"] == 2
        assert payload["points"][0]["mix"] == "Sync-1"
        assert payload["points"][1]["scheduler"] == "colab"


class TestEdgeCases:
    """Empty, zero-duration, and single-task runs (satellite coverage)."""

    @staticmethod
    def empty_result(makespan=0.0):
        """A structurally valid zero-duration result (machines refuse to
        run without tasks, so the edge case is built directly)."""
        from repro.sim.machine import RunResult

        return RunResult(
            topology_name="2B2S", scheduler_name="linux", makespan=makespan,
            app_turnaround={}, app_names={}, tasks=[], scheduler_stats=None,
            total_context_switches=0, total_migrations=0, core_busy_time={},
        )

    def test_core_utilization_zero_duration_run_rejected(self):
        with pytest.raises(ExperimentError):
            core_utilization(self.empty_result(makespan=0.0))

    def test_migration_summary_empty_run(self):
        summary = migration_summary(self.empty_result())
        assert summary.total == 0
        assert summary.per_app == {}
        assert summary.most_migrated_task == ""
        assert summary.most_migrated_count == 0

    def test_single_task_run_utilization_bounded(self):
        machine = make_machine(1, 1, **FREE)
        machine.add_task(make_simple_task("solo", work=5.0))
        result = machine.run()
        utilization = core_utilization(result)
        assert set(utilization) == {0, 1}
        for value in utilization.values():
            assert 0.0 <= value <= 1.0 + 1e-9
        # One task, one core: the other core never runs anything.
        assert min(utilization.values()) == 0.0

    def test_single_task_migration_summary(self):
        machine = make_machine(1, 1, **FREE)
        machine.add_task(make_simple_task("solo", work=5.0), app_name="app")
        result = machine.run()
        summary = migration_summary(result)
        assert summary.per_app == {"app": summary.most_migrated_count}
        assert summary.most_migrated_task == "solo"
        assert summary.total == summary.most_migrated_count

    def test_occupancy_rows_single_task(self):
        machine = make_machine(1, 0, obs=ObsConfig(trace=True), **FREE)
        machine.add_task(make_simple_task("solo", work=5.0))
        result = machine.run()
        tid_to_app = {t.tid: t.app_id for t in machine.tasks}
        rows = occupancy_rows(result, tid_to_app, n_cores=1, buckets=8)
        assert set(rows) == {0}
        assert any(cell is not None for cell in rows[0])
