"""schedsan: the runtime scheduler sanitizer.

Three angles:

* healthy sanitized runs of all four schedulers complete without a
  single false positive;
* scheduling outcomes are bit-identical with the sanitizer on or off
  (the read-only guarantee, a PR acceptance criterion);
* deliberately corrupted state trips the matching check with a
  :class:`~repro.errors.SanitizerError` naming it.
"""

from __future__ import annotations

import pytest

from repro.errors import SanitizerError
from repro.kernel.runqueue import RunQueue
from repro.kernel.task import Task, reset_tid_counter
from repro.obs import ObsConfig
from repro.sanitize import SchedSanitizer
from repro.schedulers import make_scheduler
from repro.sim.events import Event, EventKind
from repro.sim.machine import Machine, MachineConfig
from repro.sim.topology import make_topology
from tests.conftest import (
    NEUTRAL_PROFILE,
    compute_only,
    make_simple_task,
    observer_of,
)
from tests.test_fuzz_machine import SCHEDULER_NAMES, build_workload

SYNC_SPEC = dict(
    n_threads=4, n_chunks=3, chunk_work=1.0,
    use_lock=True, use_barrier=True, use_sleep=True, pipe_pairs=1,
)


def run_sync_workload(scheduler_name, *, sanitize, seed=7, obs=None):
    reset_tid_counter()
    machine = Machine(
        make_topology(2, 2),
        make_scheduler(scheduler_name),
        MachineConfig(seed=seed, sanitize=sanitize, obs=obs),
    )
    build_workload(machine, SYNC_SPEC)
    return machine, machine.run()


def sanitizer_of(machine):
    """The schedsan probe of ``machine``, or ``None``."""
    return observer_of(machine, SchedSanitizer)


def outcome_tuple(machine, result):
    return (
        result.makespan,
        tuple(sorted(result.app_turnaround.items())),
        result.total_context_switches,
        result.total_migrations,
        tuple(
            (t.tid, t.finish_time, t.migrations, t.vruntime)
            for t in machine.tasks
        ),
    )


class TestHealthyRuns:
    @pytest.mark.parametrize("scheduler_name", SCHEDULER_NAMES)
    def test_sanitized_run_completes(self, scheduler_name):
        machine, result = run_sync_workload(scheduler_name, sanitize=True)
        assert result.makespan > 0
        assert all(t.is_done for t in machine.tasks)
        assert sanitizer_of(machine).checks_run > 0

    @pytest.mark.parametrize("scheduler_name", SCHEDULER_NAMES)
    def test_outcome_bit_identical_with_sanitizer(self, scheduler_name):
        plain = outcome_tuple(*run_sync_workload(scheduler_name, sanitize=False))
        checked = outcome_tuple(*run_sync_workload(scheduler_name, sanitize=True))
        assert plain == checked

    def test_unsanitized_machine_has_no_sanitizer(self):
        machine, _ = run_sync_workload("linux", sanitize=False)
        assert sanitizer_of(machine) is None


class TestRunQueueChecks:
    def make_rq_with_tasks(self, n=3):
        sanitizer = SchedSanitizer()
        rq = RunQueue(core_id=0)
        rq.hooks = sanitizer.hooks()
        tasks = []
        for i in range(n):
            task = make_simple_task(f"t{i}", work=1.0 + i)
            task.mark_ready()
            task.vruntime = float(i)
            rq.enqueue(task)
            tasks.append(task)
        return sanitizer, rq, tasks

    def test_healthy_queue_passes(self):
        _, rq, _ = self.make_rq_with_tasks()
        assert rq.sanitize_violations() == []

    def test_desynced_tid_index_detected(self):
        sanitizer, rq, tasks = self.make_rq_with_tasks()
        del rq._by_tid[tasks[0].tid]  # simulate external corruption
        assert rq.sanitize_violations()
        with pytest.raises(SanitizerError) as err:
            sanitizer.on_rq_change(rq)
        assert err.value.check == "runqueue"

    def test_out_of_order_queue_detected(self):
        sanitizer, rq, _ = self.make_rq_with_tasks()
        entries = rq._entries  # simulate external corruption
        entries[0], entries[1] = entries[1], entries[0]
        with pytest.raises(SanitizerError, match="out of order") as err:
            sanitizer.on_rq_change(rq)
        assert err.value.check == "runqueue"

    def test_desynced_key_map_detected(self):
        sanitizer, rq, tasks = self.make_rq_with_tasks()
        del rq._keys[tasks[2].tid]  # simulate external corruption
        with pytest.raises(SanitizerError, match="key map") as err:
            sanitizer.on_rq_change(rq)
        assert err.value.check == "runqueue"

    def test_queued_task_in_wrong_state_detected(self):
        sanitizer, rq, tasks = self.make_rq_with_tasks()
        tasks[1].state = tasks[1].state.__class__.SLEEPING
        with pytest.raises(SanitizerError, match="sleeping"):
            sanitizer.on_rq_change(rq)

    def test_min_vruntime_regression_detected(self):
        sanitizer, rq, _ = self.make_rq_with_tasks()
        rq.min_vruntime = 10.0
        sanitizer.on_min_vruntime(rq)  # records the floor
        rq.min_vruntime = 2.0
        with pytest.raises(SanitizerError) as err:
            sanitizer.on_min_vruntime(rq)
        assert err.value.check == "min_vruntime"

    def test_stale_tree_key_is_not_a_violation(self):
        # Queued vruntime may drift from the insertion key; dequeue searches
        # for the recorded key, so this must NOT trip the sanitizer.
        _, rq, tasks = self.make_rq_with_tasks()
        tasks[0].vruntime += 100.0
        assert rq.sanitize_violations() == []
        rq.dequeue(tasks[0])


class TestFutexChecks:
    def test_double_park_detected(self):
        sanitizer = SchedSanitizer()
        task = make_simple_task("w")
        sanitizer.on_futex_wait(task, futex_id=1)
        with pytest.raises(SanitizerError) as err:
            sanitizer.on_futex_wait(task, futex_id=2)
        assert err.value.check == "futex_pairing"

    def test_wake_of_non_waiter_detected(self):
        sanitizer = SchedSanitizer()
        task = make_simple_task("w")
        with pytest.raises(SanitizerError, match="never parked"):
            sanitizer.on_futex_wake(task, futex_id=1)

    def test_wake_on_wrong_futex_detected(self):
        sanitizer = SchedSanitizer()
        task = make_simple_task("w")
        sanitizer.on_futex_wait(task, futex_id=1)
        with pytest.raises(SanitizerError, match="parked on futex 1"):
            sanitizer.on_futex_wake(task, futex_id=2)

    def test_matched_pair_passes(self):
        sanitizer = SchedSanitizer()
        task = make_simple_task("w")
        sanitizer.on_futex_wait(task, futex_id=1)
        sanitizer.on_futex_wake(task, futex_id=1)
        sanitizer.on_futex_wait(task, futex_id=2)  # may park again after wake

    def test_lost_wakeup_detected_at_end_of_run(self):
        machine, _ = run_sync_workload("linux", sanitize=True)
        sanitizer = sanitizer_of(machine)
        parked = make_simple_task("stuck")
        sanitizer.on_futex_wait(parked, futex_id=9)
        with pytest.raises(SanitizerError, match="lost wakeups"):
            sanitizer.check_final(machine)


class TestEventAndPickChecks:
    def test_time_travel_detected(self):
        sanitizer = SchedSanitizer()
        event = Event(time=1.0, kind=EventKind.SLICE_EXPIRY, seq=0)
        with pytest.raises(SanitizerError) as err:
            sanitizer.on_event(event, now=2.0)
        assert err.value.check == "time_travel"

    def test_event_behind_predecessor_detected(self):
        sanitizer = SchedSanitizer()
        sanitizer.on_event(Event(time=5.0, kind=EventKind.SLICE_EXPIRY, seq=0), now=5.0)
        with pytest.raises(SanitizerError, match="precedes"):
            sanitizer.on_event(
                Event(time=3.0, kind=EventKind.SLICE_EXPIRY, seq=1), now=3.0
            )

    def test_forward_events_pass(self):
        sanitizer = SchedSanitizer()
        for t in (0.0, 1.0, 1.0, 2.5):
            sanitizer.on_event(
                Event(time=t, kind=EventKind.SLICE_EXPIRY, seq=0), now=t
            )

    def test_pick_of_sleeping_task_detected(self):
        sanitizer = SchedSanitizer()
        machine = Machine(
            make_topology(1, 0), make_scheduler("linux"), MachineConfig(seed=0)
        )
        task = make_simple_task("w")
        task.mark_ready()
        task.mark_running(0, "big")
        task.mark_sleeping()
        with pytest.raises(SanitizerError) as err:
            sanitizer.on_pick(machine.cores[0], task)
        assert err.value.check == "pick"

    def test_pick_of_still_queued_task_detected(self):
        sanitizer = SchedSanitizer()
        machine = Machine(
            make_topology(1, 0), make_scheduler("linux"), MachineConfig(seed=0)
        )
        task = make_simple_task("w")
        task.mark_ready()
        machine.cores[0].rq.enqueue(task)
        with pytest.raises(SanitizerError, match="still queued"):
            sanitizer.on_pick(machine.cores[0], task)


class TestMachineSweeps:
    def test_idle_core_with_queued_work_detected(self):
        machine, _ = run_sync_workload("linux", sanitize=True)
        straggler = make_simple_task("late")
        straggler.mark_ready()
        machine.cores[0].rq.enqueue(straggler)
        with pytest.raises(SanitizerError) as err:
            sanitizer_of(machine).check_machine(machine)
        assert err.value.check == "work_conservation"

    def test_done_task_without_finish_time_detected(self):
        machine, _ = run_sync_workload("linux", sanitize=True)
        machine.tasks[0].finish_time = None
        with pytest.raises(SanitizerError) as err:
            sanitizer_of(machine).check_machine(machine)
        assert err.value.check == "task_state"

    def test_corrupt_vruntime_detected(self):
        machine, _ = run_sync_workload("linux", sanitize=True)
        machine.tasks[0].vruntime = float("nan")
        with pytest.raises(SanitizerError) as err:
            sanitizer_of(machine).check_machine(machine)
        assert err.value.check == "vruntime"

    def test_unfinished_task_detected_at_end_of_run(self):
        machine, _ = run_sync_workload("linux", sanitize=True)
        machine.tasks[0].state = machine.tasks[0].state.__class__.SLEEPING
        machine.tasks[0].wait_started_at = 0.0
        with pytest.raises(SanitizerError, match="is sleeping"):
            sanitizer_of(machine).check_final(machine)

    def test_policy_counter_corruption_detected(self):
        machine, _ = run_sync_workload("colab", sanitize=True)
        machine.scheduler.stats.picks += 5
        with pytest.raises(SanitizerError) as err:
            sanitizer_of(machine).check_machine(machine)
        assert err.value.check == "policy"


class TestErrorReports:
    def test_error_carries_check_name_in_message(self):
        sanitizer = SchedSanitizer()
        task = make_simple_task("w")
        with pytest.raises(SanitizerError, match=r"\[schedsan:futex_pairing\]"):
            sanitizer.on_futex_wake(task, futex_id=1)

    def test_error_carries_trace_context_when_traced(self):
        machine, _ = run_sync_workload(
            "linux", sanitize=True, obs=ObsConfig(trace=True)
        )
        straggler = make_simple_task("late")
        straggler.mark_ready()
        machine.cores[0].rq.enqueue(straggler)
        with pytest.raises(SanitizerError) as err:
            sanitizer_of(machine).check_machine(machine)
        assert err.value.events, "traced failures must attach recent events"
        assert "t=" in str(err.value)

    def test_error_has_no_context_without_tracer(self):
        sanitizer = SchedSanitizer()
        task = make_simple_task("w")
        with pytest.raises(SanitizerError) as err:
            sanitizer.on_futex_wake(task, futex_id=1)
        assert err.value.events == []
