"""Runqueue semantics: enqueue/dequeue, ordering, selection primitives."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.kernel.runqueue import RunQueue
from tests.conftest import make_simple_task


def ready_task(name="t", vruntime=0.0, blocking=0.0):
    task = make_simple_task(name=name)
    task.mark_ready()
    task.vruntime = vruntime
    task.blocking_level = blocking
    return task


class TestEnqueueDequeue:
    def test_enqueue_sets_rq_core_id(self):
        rq = RunQueue(core_id=3)
        task = ready_task()
        rq.enqueue(task)
        assert task.rq_core_id == 3
        assert task in rq
        assert len(rq) == 1

    def test_enqueue_requires_ready_state(self):
        rq = RunQueue(0)
        task = make_simple_task()
        with pytest.raises(KernelError):
            rq.enqueue(task)

    def test_double_enqueue_rejected(self):
        rq = RunQueue(0)
        task = ready_task()
        rq.enqueue(task)
        with pytest.raises(KernelError):
            rq.enqueue(task)

    def test_enqueue_on_two_queues_rejected(self):
        rq0, rq1 = RunQueue(0), RunQueue(1)
        task = ready_task()
        rq0.enqueue(task)
        with pytest.raises(KernelError):
            rq1.enqueue(task)

    def test_dequeue_clears_rq_core_id(self):
        rq = RunQueue(0)
        task = ready_task()
        rq.enqueue(task)
        rq.dequeue(task)
        assert task.rq_core_id is None
        assert task not in rq
        assert len(rq) == 0

    def test_dequeue_absent_rejected(self):
        rq = RunQueue(0)
        with pytest.raises(KernelError):
            rq.dequeue(ready_task())

    def test_requeue_rekeys_after_vruntime_change(self):
        rq = RunQueue(0)
        a = ready_task("a", vruntime=1.0)
        b = ready_task("b", vruntime=2.0)
        rq.enqueue(a)
        rq.enqueue(b)
        a.vruntime = 5.0
        rq.requeue(a)
        assert rq.peek_min() is b


class TestSelection:
    def test_peek_min_orders_by_vruntime(self):
        rq = RunQueue(0)
        a = ready_task("a", vruntime=3.0)
        b = ready_task("b", vruntime=1.0)
        c = ready_task("c", vruntime=2.0)
        for t in (a, b, c):
            rq.enqueue(t)
        assert rq.peek_min() is b

    def test_pop_min_removes(self):
        rq = RunQueue(0)
        a = ready_task("a", vruntime=3.0)
        b = ready_task("b", vruntime=1.0)
        rq.enqueue(a)
        rq.enqueue(b)
        assert rq.pop_min() is b
        assert rq.pop_min() is a
        assert rq.pop_min() is None

    def test_equal_vruntime_breaks_ties_by_tid(self):
        rq = RunQueue(0)
        a = ready_task("a", vruntime=1.0)
        b = ready_task("b", vruntime=1.0)
        rq.enqueue(b)
        rq.enqueue(a)
        assert rq.pop_min() is a  # lower tid first

    def test_best_with_arbitrary_key(self):
        rq = RunQueue(0)
        a = ready_task("a", vruntime=1.0)
        b = ready_task("b", vruntime=9.0)
        rq.enqueue(a)
        rq.enqueue(b)
        picked = rq.best(lambda t: (-t.vruntime, t.tid))
        assert picked is b

    def test_best_empty(self):
        assert RunQueue(0).best(lambda t: (0,)) is None

    def test_tasks_iterates_in_vruntime_order(self):
        rq = RunQueue(0)
        tasks = [ready_task(str(i), vruntime=float(10 - i)) for i in range(5)]
        for t in tasks:
            rq.enqueue(t)
        assert [t.vruntime for t in rq.tasks()] == sorted(
            t.vruntime for t in tasks
        )


class TestMinVruntime:
    def test_pop_min_advances_watermark_to_popped(self):
        """The popped task becomes "curr": min(curr, leftmost) = curr."""
        rq = RunQueue(0)
        rq.enqueue(ready_task("a", vruntime=2.0))
        rq.enqueue(ready_task("b", vruntime=7.0))
        rq.pop_min()
        assert rq.min_vruntime == 2.0
        rq.pop_min()
        assert rq.min_vruntime == 7.0

    def test_watermark_never_regresses(self):
        rq = RunQueue(0)
        rq.enqueue(ready_task("a", vruntime=10.0))
        rq.pop_min()
        assert rq.min_vruntime == 10.0
        rq.enqueue(ready_task("b", vruntime=1.0))
        rq.update_min_vruntime(None)
        assert rq.min_vruntime == 10.0

    def test_update_considers_running_task(self):
        rq = RunQueue(0)
        rq.enqueue(ready_task("a", vruntime=8.0))
        rq.update_min_vruntime(running_vruntime=5.0)
        assert rq.min_vruntime == 5.0

    def test_update_on_empty_queue_with_running(self):
        rq = RunQueue(0)
        rq.update_min_vruntime(running_vruntime=4.0)
        assert rq.min_vruntime == 4.0

    def test_update_noop_when_idle_and_empty(self):
        rq = RunQueue(0)
        rq.update_min_vruntime(None)
        assert rq.min_vruntime == 0.0


class TestProperties:
    @given(
        st.lists(
            st.tuples(st.floats(0, 1e4), st.floats(0, 100)),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_pop_min_is_sorted_and_max_blocking_is_max(self, specs):
        rq = RunQueue(0)
        tasks = []
        for i, (vrt, blk) in enumerate(specs):
            task = ready_task(f"t{i}", vruntime=vrt, blocking=blk)
            rq.enqueue(task)
            tasks.append(task)
        top = rq.best(lambda t: (-t.blocking_level, t.vruntime, t.tid))
        assert top.blocking_level == max(t.blocking_level for t in tasks)
        popped = []
        while len(rq):
            popped.append(rq.pop_min().vruntime)
        assert popped == sorted(popped)
