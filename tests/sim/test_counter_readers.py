"""Counters exist only where a reader declares it reads them.

The machine builds :class:`~repro.sim.counters.PerformanceCounters` for a
task only when its policy sets ``Scheduler.reads_counters``.  The per-task
seed is drawn either way, so a policy that reads no counters runs the exact
same simulation, minus the counter synthesis.
"""

from __future__ import annotations

import pytest

from repro.kernel.sync import Mutex
from repro.kernel.task import Task, reset_tid_counter
from repro.model import training
from repro.obs.context import ObsConfig
from repro.schedulers import make_scheduler
from repro.schedulers.cfs import CFSScheduler
from repro.sim.digest import run_digest
from repro.workloads.actions import (
    Compute,
    LockAcquire,
    LockRelease,
    Sleep,
    Spawn,
)
from tests.conftest import (
    FAST_PROFILE,
    NEUTRAL_PROFILE,
    SLOW_PROFILE,
    CountingCFS,
    make_machine,
)


def spawn_sleep_futex_workload(machine):
    """Three tasks plus a spawned child, crossing Sleep, Spawn and a futex.

    Long enough (tens of ms) that WASH and COLAB run several labeling
    passes, each of which reads every live task's counters.
    """
    lock = Mutex(machine.futexes)

    def locker(work):
        for _ in range(4):
            yield LockAcquire(lock)
            yield Compute(work)
            yield LockRelease(lock)
            yield Compute(work)

    def sleeper():
        yield Sleep(2.0)
        yield Compute(15.0)

    child = Task("child", 0, sleeper(), SLOW_PROFILE)

    def parent():
        yield Compute(5.0)
        yield Spawn(child)
        yield from locker(3.0)

    machine.add_task(Task("parent", 0, parent(), FAST_PROFILE), app_name="app")
    machine.add_task(Task("locker", 1, locker(4.0), NEUTRAL_PROFILE), app_name="b")
    return child


def run_workload(scheduler, **config):
    reset_tid_counter()
    machine = make_machine(2, 2, scheduler=scheduler, **config)
    child = spawn_sleep_futex_workload(machine)
    result = machine.run()
    assert child in machine.tasks and child.is_done
    return machine, result


class TestWhoGetsCounters:
    @pytest.mark.parametrize("policy", ["linux", "gts"])
    def test_model_free_runs_build_no_counters(self, policy):
        machine, _ = run_workload(make_scheduler(policy))
        assert len(machine.tasks) == 3
        assert all(task.counters is None for task in machine.tasks)

    @pytest.mark.parametrize("policy", ["wash", "colab"])
    def test_amp_aware_runs_count_every_task(self, policy):
        machine, _ = run_workload(make_scheduler(policy))
        assert machine.scheduler.stats.label_passes > 0
        assert len(machine.tasks) == 3
        for task in machine.tasks:
            assert task.counters is not None
            assert task.counters.totals["commit.committedInsts"] > 0

    def test_training_counts_every_task(self, monkeypatch):
        machines = []

        class RecordingMachine(training.Machine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                machines.append(self)

        monkeypatch.setattr(training, "Machine", RecordingMachine)
        benchmarks = ["blackscholes", "lu_cb", "radix", "fluidanimate"]
        samples = training.collect_training_set(
            seed=77, work_scale=0.08, n_cores=2,
            benchmarks=benchmarks, replicas=1,
        )
        assert samples
        # One all-big and one all-little run per benchmark.
        assert len(machines) == 2 * len(benchmarks)
        for machine in machines:
            assert machine.scheduler.reads_counters
            assert all(task.counters is not None for task in machine.tasks)


class TestSeedDrawParity:
    def test_counting_changes_nothing_but_the_counters(self):
        """CFS and counting CFS give the same run and the same RNG state.

        The per-task seed is drawn whether or not counters are built; if
        the draw were skipped, the machine RNG state would differ here.
        """
        traced = ObsConfig(trace=True)
        plain, plain_result = run_workload(CFSScheduler(), obs=traced)
        counting, counting_result = run_workload(CountingCFS(), obs=traced)
        assert all(t.counters is None for t in plain.tasks)
        assert all(t.counters is not None for t in counting.tasks)
        assert run_digest(plain_result) == run_digest(counting_result)
        assert (
            plain.rng.bit_generator.state == counting.rng.bit_generator.state
        )
