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
from repro.kernel.task import Task, TaskState, reset_tid_counter
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
        stray = tasks[-1].tid + 1  # a tid the queue does not hold
        rq._keys[stray] = (0.0, stray)  # simulate external corruption
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

    def test_desynced_nr_running_detected(self):
        sanitizer, rq, _ = self.make_rq_with_tasks()
        rq.nr_running += 1  # simulate external corruption
        with pytest.raises(SanitizerError, match="nr_running is 4") as err:
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
        sanitizer = sanitizer_of(machine)
        for value in ("nan", "inf", "-inf", "-1.0"):
            machine.tasks[0].vruntime = float(value)
            with pytest.raises(SanitizerError) as err:
                sanitizer.check_machine(machine)
            assert err.value.check == "vruntime", value
        machine.tasks[0].vruntime = -0.0
        sanitizer.check_machine(machine)

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


def busy_machine(n_big=2, n_little=2):
    """A sanitized machine caught mid-run, built by hand.

    Every core runs one task and queues one more, so the post-drain
    sweep passes on it as is; a test corrupts one field and expects the
    matching failure.
    """
    machine = Machine(
        make_topology(n_big, n_little),
        make_scheduler("linux"),
        MachineConfig(seed=0, sanitize=True),
    )
    for i in range(2 * len(machine.cores)):
        machine.add_task(make_simple_task(f"t{i}"))
    for core in machine.cores:
        running = machine.tasks[2 * core.core_id]
        queued = machine.tasks[2 * core.core_id + 1]
        running.mark_ready()
        running.mark_running(core.core_id, core.kind_name)
        core.current = running
        queued.mark_ready()
        core.rq.enqueue(queued)
    return machine


def check_machine_fails(machine, check, message):
    with pytest.raises(SanitizerError, match=message) as err:
        sanitizer_of(machine).check_machine(machine)
    assert err.value.check == check


class TestTaskStateSweep:
    """Each branch of the post-drain task-state and policy checks."""

    def test_busy_machine_is_healthy(self):
        machine = busy_machine()
        sanitizer_of(machine).check_machine(machine)

    def test_ready_task_on_two_runqueues_detected(self):
        machine = busy_machine()
        queued = machine.tasks[1]  # queued on core 0
        queued.rq_core_id = None
        machine.cores[2].rq.enqueue(queued)
        check_machine_fails(
            machine, "task_state",
            r"^\[schedsan:task_state\] READY task t1 is on 2 runqueues "
            r"\[0, 2\], expected exactly 1",
        )

    def test_ready_task_on_no_runqueue_detected(self):
        machine = busy_machine()
        queued = machine.tasks[3]  # queued on core 1
        machine.cores[1].rq.dequeue(queued)
        check_machine_fails(
            machine, "task_state",
            r"READY task t3 is on 0 runqueues \[\], expected exactly 1",
        )

    def test_ready_task_with_wrong_rq_core_id_detected(self):
        machine = busy_machine()
        machine.tasks[3].rq_core_id = 2
        check_machine_fails(
            machine, "task_state",
            r"READY task t3 records rq_core_id=2 but sits on core 1",
        )

    def test_sleeping_task_on_runqueue_detected(self):
        machine = busy_machine()
        queued = machine.tasks[1]
        queued.state = TaskState.SLEEPING
        queued.wait_started_at = 0.0
        check_machine_fails(
            machine, "task_state",
            r"sleeping task t1 is on runqueue\(s\) \[0\]",
        )

    def test_sleeping_task_without_wait_timestamp_detected(self):
        machine = busy_machine()
        queued = machine.tasks[5]
        machine.cores[2].rq.dequeue(queued)
        queued.state = TaskState.SLEEPING
        check_machine_fails(
            machine, "task_state", r"SLEEPING task t5 has no wait timestamp",
        )

    def test_running_task_that_is_no_cores_current_detected(self):
        machine = busy_machine()
        queued = machine.tasks[1]
        machine.cores[0].rq.dequeue(queued)
        queued.mark_running(0, "big")
        check_machine_fails(
            machine, "task_state", r"RUNNING task t1 is no core's current",
        )

    def test_current_in_wrong_state_detected(self):
        machine = busy_machine()
        machine.cores[3].current.state = TaskState.SLEEPING
        check_machine_fails(
            machine, "task_state", r"core 3 runs t6 in state sleeping",
        )

    def test_running_on_disagreeing_with_core_detected(self):
        machine = busy_machine()
        machine.cores[1].current.running_on = 3
        check_machine_fails(
            machine, "task_state",
            r"t2 runs on core 1 but records running_on=3",
        )

    def test_task_current_on_two_cores_detected(self):
        # The bijection check runs before the running_on check, so the
        # report names both cores.
        machine = busy_machine()
        machine.cores[1].current = machine.cores[0].current
        check_machine_fails(
            machine, "task_state", r"t0 is current on cores 0 and 1",
        )

    def test_task_current_on_two_cores_sharing_an_id_detected(self):
        # Two cores claiming one id pass the running_on check, so only
        # the bijection check can tell the task runs twice.
        machine = busy_machine()
        machine.cores[1].core_id = 0
        machine.cores[1].current = machine.cores[0].current
        check_machine_fails(
            machine, "task_state", r"t0 is current on cores 0 and 0",
        )

    def test_queued_task_outside_affinity_detected(self):
        machine = busy_machine()
        machine.tasks[1].affinity = frozenset({2, 3})  # queued on core 0
        check_machine_fails(
            machine, "policy",
            r"linux: task t1 queued on core 0 outside affinity \[2, 3\]",
        )

    def test_running_task_outside_affinity_detected(self):
        machine = busy_machine()
        machine.tasks[4].affinity = frozenset({0})  # runs on core 2
        check_machine_fails(
            machine, "policy",
            r"linux: task t4 running on core 2 outside affinity \[0\]",
        )


#: The RunQueue accessors that can answer "is this task queued here?".
MEMBERSHIP_READS = ("__contains__", "tids", "tasks")


@pytest.fixture
def rq_reads(monkeypatch):
    """Counts of every call to each of :data:`MEMBERSHIP_READS`."""
    calls = dict.fromkeys(MEMBERSHIP_READS, 0)

    def counting(name):
        method = getattr(RunQueue, name)

        def counted(rq, *args):
            calls[name] += 1
            return method(rq, *args)

        return counted

    for name in MEMBERSHIP_READS:
        monkeypatch.setattr(RunQueue, name, counting(name))
    return calls


def assert_linear(reads: dict[str, int], machine: Machine) -> None:
    """No accessor is called once per (task, core) pair.

    A per-task scan over all cores makes ``tasks x cores`` calls of one
    accessor, more than ``tasks`` and more than ``cores`` on a machine
    with two or more cores and more tasks than cores.
    """
    n_cores = len(machine.cores)
    assert len(machine.tasks) > n_cores >= 2
    assert reads["__contains__"] <= len(machine.tasks)
    # One tid-index walk per core, one vruntime-order walk per core.
    assert reads["tids"] <= n_cores
    assert reads["tasks"] <= n_cores


class TestCheckMachineIsLinear:
    """The post-drain sweep never looks a task up in every runqueue.

    It counts calls of the runqueue's membership accessors, so the bound
    holds on any host.
    """

    def test_runqueue_reads_per_check_are_linear(self, rq_reads):
        machine = busy_machine(n_big=4, n_little=4)
        sanitizer_of(machine).check_machine(machine)
        assert_linear(rq_reads, machine)

    def test_runqueue_reads_per_drain_are_linear(self, rq_reads, monkeypatch):
        machine = Machine(
            make_topology(4, 4),
            make_scheduler("colab"),
            MachineConfig(seed=3, sanitize=True),
        )
        build_workload(machine, dict(SYNC_SPEC, n_threads=12))
        sanitizer = sanitizer_of(machine)
        check_machine = sanitizer.check_machine
        per_check: list[dict[str, int]] = []

        def counted_check(where):
            before = dict(rq_reads)
            check_machine(where)
            per_check.append(
                {name: rq_reads[name] - before[name] for name in rq_reads}
            )

        monkeypatch.setattr(sanitizer, "check_machine", counted_check)
        machine.run()
        assert len(per_check) > 10
        for reads in per_check:
            assert_linear(reads, machine)


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
