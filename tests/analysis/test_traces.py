"""Per-core occupancy timelines (:func:`repro.obs.tracer.occupancy_rows`)."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.obs.context import ObsConfig
from repro.obs.tracer import EventKind, TraceEvent, occupancy_rows
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


class TestEdgeCases:
    """Single-task runs."""

    def test_occupancy_rows_single_task(self):
        machine = make_machine(1, 0, obs=ObsConfig(trace=True), **FREE)
        machine.add_task(make_simple_task("solo", work=5.0))
        result = machine.run()
        tid_to_app = {t.tid: t.app_id for t in machine.tasks}
        rows = occupancy_rows(result, tid_to_app, n_cores=1, buckets=8)
        assert set(rows) == {0}
        assert any(cell is not None for cell in rows[0])
