"""Machine execution-model tests: the heart of the simulator substrate."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.kernel.sync import Barrier, Mutex, Pipe
from repro.kernel.task import Task
from repro.obs.context import ObsConfig
from repro.obs.tracer import EventKind
from repro.sim.machine import Machine, MachineConfig
from repro.sim.topology import make_topology
from repro.workloads.actions import (
    BarrierWait,
    Compute,
    LockAcquire,
    LockRelease,
    PipeGet,
    PipePut,
    Sleep,
    Spawn,
)
from tests.conftest import (
    FAST_PROFILE,
    CountingCFS,
    NEUTRAL_PROFILE,
    SLOW_PROFILE,
    make_machine,
    make_simple_task,
)

#: Config that zeroes the scheduling-cost model for exact-time assertions.
FREE = dict(context_switch_cost=0.0, migration_cost=0.0)


class TestSingleTask:
    def test_compute_on_big_core_is_exact(self):
        machine = make_machine(1, 0, **FREE)
        machine.add_task(make_simple_task(work=10.0), app_name="solo")
        result = machine.run()
        assert result.makespan == pytest.approx(10.0)
        assert result.app_turnaround == {0: pytest.approx(10.0)}

    def test_compute_on_little_core_scaled_by_speedup(self):
        machine = make_machine(0, 1, **FREE)
        task = make_simple_task(work=10.0, speedup=2.0)
        machine.add_task(task)
        result = machine.run()
        assert result.makespan == pytest.approx(20.0)

    def test_work_done_accounting(self):
        machine = make_machine(1, 0, **FREE)
        task = make_simple_task(work=7.5)
        machine.add_task(task)
        machine.run()
        assert task.work_done == pytest.approx(7.5)
        assert task.sum_exec_runtime == pytest.approx(7.5)
        assert task.exec_time_by_kind["big"] == pytest.approx(7.5)
        assert task.exec_time_by_kind["little"] == 0.0

    def test_multi_segment_task(self):
        machine = make_machine(1, 0, **FREE)
        machine.add_task(make_simple_task(work=9.0, chunks=3))
        result = machine.run()
        assert result.makespan == pytest.approx(9.0)

    def test_empty_machine_rejected(self):
        machine = make_machine(1, 0)
        with pytest.raises(SimulationError, match="no tasks"):
            machine.run()

    def test_cannot_run_twice(self):
        machine = make_machine(1, 0)
        machine.add_task(make_simple_task(work=1.0))
        machine.run()
        with pytest.raises(SimulationError):
            machine.run()

    def test_cannot_add_after_run(self):
        machine = make_machine(1, 0)
        machine.add_task(make_simple_task(work=1.0))
        machine.run()
        with pytest.raises(SimulationError):
            machine.add_task(make_simple_task(work=1.0))


class TestTimeSharing:
    def test_two_tasks_one_core_share_time(self):
        machine = make_machine(1, 0, **FREE)
        a = make_simple_task("a", work=10.0)
        b = make_simple_task("b", work=10.0)
        machine.add_task(a, app_name="a")
        machine.add_task(b, app_name="b")
        result = machine.run()
        assert result.makespan == pytest.approx(20.0)
        # CFS interleaves them: neither finishes only at the very start.
        assert min(a.finish_time, b.finish_time) > 10.0

    def test_two_tasks_two_cores_run_parallel(self):
        machine = make_machine(2, 0, **FREE)
        machine.add_task(make_simple_task("a", work=10.0), app_name="a")
        machine.add_task(make_simple_task("b", work=10.0), app_name="b")
        result = machine.run()
        assert result.makespan == pytest.approx(10.0)

    def test_slice_expiry_rotates_tasks(self):
        machine = make_machine(1, 0, **FREE)
        a = make_simple_task("a", work=20.0)
        b = make_simple_task("b", work=20.0)
        machine.add_task(a)
        machine.add_task(b)
        machine.run()
        # Fair sharing: equal vruntime at the end (within one slice).
        assert abs(a.vruntime - b.vruntime) <= 6.0

    def test_context_switch_cost_charged(self):
        free = make_machine(1, 0, **FREE)
        free.add_task(make_simple_task("a", work=10.0))
        free.add_task(make_simple_task("b", work=10.0))
        base = free.run().makespan

        costly = make_machine(1, 0, context_switch_cost=0.1, migration_cost=0.0)
        costly.add_task(make_simple_task("a", work=10.0))
        costly.add_task(make_simple_task("b", work=10.0))
        slower = costly.run().makespan
        assert slower > base

    def test_migration_cost_charged_on_core_change(self):
        machine = make_machine(2, 0, context_switch_cost=0.0, migration_cost=0.5)
        task = make_simple_task(work=5.0)
        machine.add_task(task)
        machine.run()
        assert task.migrations == 0  # single task never migrates


class TestBlockingAndWaking:
    def test_mutex_serialises_critical_sections(self):
        machine = make_machine(2, 0, **FREE)
        lock = Mutex(machine.futexes)

        def worker():
            yield LockAcquire(lock)
            yield Compute(5.0)
            yield LockRelease(lock)

        a = Task("a", 0, worker(), NEUTRAL_PROFILE)
        b = Task("b", 1, worker(), NEUTRAL_PROFILE)
        machine.add_task(a, "a")
        machine.add_task(b, "b")
        result = machine.run()
        # 2 cores but the lock serialises: 10ms total.
        assert result.makespan == pytest.approx(10.0)

    def test_blocked_waiter_charges_holder(self):
        machine = make_machine(1, 0, **FREE)
        lock = Mutex(machine.futexes)

        def holder():
            yield LockAcquire(lock)
            yield Compute(4.0)
            yield LockRelease(lock)
            yield Compute(2.0)

        def waiter():
            yield Compute(1.0)
            yield LockAcquire(lock)
            yield LockRelease(lock)

        h = Task("h", 0, holder(), NEUTRAL_PROFILE)
        w = Task("w", 1, waiter(), NEUTRAL_PROFILE)
        machine.add_task(h)
        machine.add_task(w)
        machine.run()
        assert h.caused_wait_time > 0
        assert w.own_wait_time > 0

    def test_barrier_joins_all_threads(self):
        machine = make_machine(2, 0, **FREE)
        barrier = Barrier(machine.futexes, parties=2)

        def worker(work):
            yield Compute(work)
            yield BarrierWait(barrier)
            yield Compute(1.0)

        fast = Task("fast", 0, worker(1.0), NEUTRAL_PROFILE)
        slow = Task("slow", 0, worker(9.0), NEUTRAL_PROFILE)
        machine.add_task(fast)
        machine.add_task(slow)
        result = machine.run()
        assert result.makespan == pytest.approx(10.0)
        assert fast.own_wait_time == pytest.approx(8.0)

    def test_pipe_pipeline_flows(self):
        machine = make_machine(2, 0, **FREE)
        pipe = Pipe(machine.futexes, capacity=2)

        def producer():
            for i in range(5):
                yield Compute(1.0)
                yield PipePut(pipe, i)
            yield PipePut(pipe, None)

        def consumer():
            got = []
            while True:
                item = yield PipeGet(pipe)
                if item is None:
                    break
                got.append(item)
                yield Compute(1.0)
            assert got == [0, 1, 2, 3, 4]

        machine.add_task(Task("prod", 0, producer(), NEUTRAL_PROFILE))
        machine.add_task(Task("cons", 0, consumer(), NEUTRAL_PROFILE))
        result = machine.run()
        # Stages overlap: ~1ms pipeline fill + 5ms steady state.
        assert result.makespan == pytest.approx(6.0, abs=0.5)

    def test_sleep_blocks_for_duration(self):
        machine = make_machine(1, 0, **FREE)

        def sleeper():
            yield Compute(1.0)
            yield Sleep(5.0)
            yield Compute(1.0)

        machine.add_task(Task("s", 0, sleeper(), NEUTRAL_PROFILE))
        result = machine.run()
        assert result.makespan == pytest.approx(7.0)

    def test_sleep_at_time_zero_is_charged_as_wait(self):
        machine = make_machine(1, 0, scheduler=CountingCFS(), **FREE)

        def sleeps_first():
            yield Sleep(3.0)
            yield Compute(1.0)

        task = Task("s", 0, sleeps_first(), NEUTRAL_PROFILE)
        machine.add_task(task)
        result = machine.run()
        assert result.tasks[0].own_wait_time == 3.0
        assert task.counters.totals["quiesceCycles"] > 0.0

    def test_sleeping_core_runs_other_tasks(self):
        machine = make_machine(1, 0, **FREE)

        def sleeper():
            yield Sleep(5.0)

        machine.add_task(Task("s", 0, sleeper(), NEUTRAL_PROFILE))
        machine.add_task(make_simple_task("busy", work=5.0, app_id=1))
        result = machine.run()
        assert result.makespan == pytest.approx(5.0)

    def test_deadlock_detected(self):
        machine = make_machine(1, 0, **FREE)
        lock = Mutex(machine.futexes)

        def holder_never_releases():
            yield LockAcquire(lock)
            yield Compute(1.0)

        def waits_forever():
            yield LockAcquire(lock)

        machine.add_task(Task("h", 0, holder_never_releases(), NEUTRAL_PROFILE))
        machine.add_task(Task("w", 0, waits_forever(), NEUTRAL_PROFILE))
        with pytest.raises(SimulationError, match="never finished"):
            machine.run()


class TestSpawn:
    def test_spawned_task_runs(self):
        machine = make_machine(2, 0, **FREE)
        child = make_simple_task("child", work=3.0, app_id=0)

        def parent():
            yield Compute(1.0)
            yield Spawn(child)
            yield Compute(1.0)

        machine.add_task(Task("parent", 0, parent(), NEUTRAL_PROFILE))
        result = machine.run()
        assert child.is_done
        assert len(machine.tasks) == 2
        assert result.makespan == pytest.approx(4.0)

    def test_spawned_task_gets_counters(self):
        machine = make_machine(1, 0, scheduler=CountingCFS(), **FREE)
        child = make_simple_task("child", work=1.0)

        def parent():
            yield Spawn(child)
            yield Compute(1.0)

        machine.add_task(Task("parent", 0, parent(), NEUTRAL_PROFILE))
        machine.run()
        assert child.counters is not None
        assert child.counters.totals["commit.committedInsts"] > 0


class TestAsymmetry:
    def test_fast_profile_prefers_speed_difference(self):
        """The same work takes visibly longer on a little-only machine."""
        big = make_machine(1, 0, **FREE)
        big.add_task(make_simple_task(work=10.0, profile=FAST_PROFILE))
        t_big = big.run().makespan

        little = make_machine(0, 1, **FREE)
        little.add_task(make_simple_task(work=10.0, profile=FAST_PROFILE))
        t_little = little.run().makespan
        assert t_little == pytest.approx(t_big * FAST_PROFILE.speedup())

    def test_slow_profile_insensitive(self):
        little = make_machine(0, 1, **FREE)
        task = make_simple_task(work=10.0, profile=SLOW_PROFILE)
        little.add_task(task)
        assert little.run().makespan < 10.0 * 1.3


class TestDeterminismAndResults:
    def _mix_machine(self, seed):
        from repro.workloads.mixes import MIXES
        from repro.workloads.programs import ProgramEnv

        machine = make_machine(1, 1, seed=seed)
        env = ProgramEnv.for_machine(machine, work_scale=0.05)
        for inst in MIXES["Sync-1"].instantiate(env):
            machine.add_program(inst)
        return machine

    def test_same_seed_same_result(self):
        r1 = self._mix_machine(7).run()
        r2 = self._mix_machine(7).run()
        assert r1.makespan == r2.makespan
        assert r1.app_turnaround == r2.app_turnaround
        assert r1.total_context_switches == r2.total_context_switches

    def test_different_seed_different_result(self):
        r1 = self._mix_machine(7).run()
        r2 = self._mix_machine(8).run()
        assert r1.makespan != r2.makespan

    def test_trace_records_dispatches(self):
        machine = make_machine(1, 0, obs=ObsConfig(trace=True))
        task = make_simple_task(work=2.0)
        machine.add_task(task)
        result = machine.run()
        first = next(e for e in result.events if e.kind is EventKind.DISPATCH)
        assert (first.time, first.core_id, first.tid) == (0.0, 0, task.tid)

    def test_turnaround_of_requires_unique_name(self):
        machine = make_machine(1, 0, **FREE)
        machine.add_task(make_simple_task("a", work=1.0, app_id=0), "app")
        result = machine.run()
        assert result.turnaround_of("app") == pytest.approx(1.0)
        with pytest.raises(SimulationError):
            result.turnaround_of("missing")

    def test_busy_time_bounded_by_makespan(self):
        machine = make_machine(2, 2)
        for i in range(6):
            machine.add_task(make_simple_task(f"t{i}", work=5.0, app_id=i))
        result = machine.run()
        for busy in result.core_busy_time.values():
            assert busy <= result.makespan + 1e-6

    def test_all_work_conserved_across_cores(self):
        machine = make_machine(2, 2, **FREE)
        tasks = [make_simple_task(f"t{i}", work=4.0, app_id=i) for i in range(8)]
        for task in tasks:
            machine.add_task(task)
        machine.run()
        for task in tasks:
            assert task.work_done == pytest.approx(4.0, rel=1e-6)
