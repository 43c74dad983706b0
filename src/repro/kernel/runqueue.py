"""Per-core runqueues.

Each core owns one :class:`RunQueue`.  Internally it is the CFS timeline: a
red-black tree of READY tasks keyed by ``(vruntime, tid)`` with a
monotonic ``min_vruntime`` watermark, exactly like ``struct cfs_rq``.

All three reproduced schedulers share this structure:

* CFS picks the leftmost (minimum-vruntime) task;
* WASH delegates picking to CFS, so it also uses the leftmost task;
* COLAB's thread selector ignores vruntime order when picking and instead
  scans for the maximum-blocking task (:meth:`max_blocking`), which is an
  O(n) scan -- acceptable because runqueues hold at most a few dozen tasks
  and it keeps the policy logic transparent.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.errors import KernelError
from repro.kernel.rbtree import RBTree
from repro.kernel.task import Task
from repro.obs.probe import DEQUEUE, ENQUEUE, MIN_VRUNTIME, NO_HOOKS


class RunQueue:
    """The per-core queue of READY tasks, ordered by virtual runtime.

    Args:
        core_id: Id of the owning core (for error messages and task
            bookkeeping).
    """

    def __init__(self, core_id: int) -> None:
        self.core_id = core_id
        self._tree = RBTree()
        self._by_tid: dict[int, Task] = {}
        #: Tree node handle each task was inserted under; dequeue removes
        #: through the handle (O(log n) with no key search), and it stays
        #: valid even if the task's vruntime changed while queued.
        self._nodes: dict[int, object] = {}
        #: Monotonic watermark of the smallest vruntime ever at the head of
        #: this queue; used by CFS to place newly woken tasks fairly.
        self.min_vruntime: float = 0.0
        #: The machine's per-kind transition hooks
        #: (:meth:`repro.obs.probe.Probe.hooks`), called on enqueue,
        #: dequeue and ``min_vruntime`` updates for the kinds observed.
        self.hooks = NO_HOOKS

    # ------------------------------------------------------------------
    # Size / iteration
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._by_tid)

    def __bool__(self) -> bool:
        return bool(self._by_tid)

    def __contains__(self, task: Task) -> bool:
        return task.tid in self._by_tid

    def tasks(self) -> Iterator[Task]:
        """Iterate queued tasks in ascending vruntime order."""
        return iter(list(self._tree.values()))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def enqueue(self, task: Task) -> None:
        """Add a READY task to this queue.

        Raises:
            KernelError: if the task is already queued here or elsewhere,
                or is not in the READY state.
        """
        if not task.is_runnable:
            raise KernelError(
                f"cannot enqueue {task.name}: state is {task.state.value}"
            )
        if task.rq_core_id is not None:
            raise KernelError(
                f"task {task.name} already on runqueue of core {task.rq_core_id}"
            )
        key = (task.vruntime, task.tid)
        self._nodes[task.tid] = self._tree.insert(key, task)
        self._by_tid[task.tid] = task
        task.rq_core_id = self.core_id
        hook = self.hooks[ENQUEUE]
        if hook is not None:
            hook(ENQUEUE, task, self, None, None)

    def dequeue(self, task: Task) -> None:
        """Remove a specific task (migration, or it was picked to run)."""
        if task.tid not in self._by_tid:
            raise KernelError(
                f"task {task.name} not on runqueue of core {self.core_id}"
            )
        self._tree.remove_node(self._nodes.pop(task.tid))
        del self._by_tid[task.tid]
        task.rq_core_id = None
        hook = self.hooks[DEQUEUE]
        if hook is not None:
            hook(DEQUEUE, task, self, None, None)

    def requeue(self, task: Task) -> None:
        """Re-key a queued task after its vruntime (or key inputs) changed."""
        self.dequeue(task)
        self.enqueue(task)

    # ------------------------------------------------------------------
    # Selection primitives
    # ------------------------------------------------------------------
    def peek_min(self) -> Task | None:
        """Leftmost (minimum-vruntime) task, or None if empty.

        O(1): the tree caches its leftmost node, and no tuple is built.
        """
        return self._tree.leftmost_value()

    def pop_min(self) -> Task | None:
        """Remove and return the leftmost task (CFS pick-next).

        Advances ``min_vruntime`` to the popped task's virtual runtime
        (it becomes the running "curr"), mirroring ``update_min_vruntime``.
        """
        task = self._tree.leftmost_value()
        if task is None:
            return None
        self.dequeue(task)
        if task.vruntime > self.min_vruntime:
            self.min_vruntime = task.vruntime
        hook = self.hooks[MIN_VRUNTIME]
        if hook is not None:
            hook(MIN_VRUNTIME, None, self, None, None)
        return task

    def best(self, key: Callable[[Task], tuple]) -> Task | None:
        """Task minimising an arbitrary selection key (COLAB pick-next).

        The key function returns a tuple; ties should be broken inside it
        (conventionally by vruntime then tid) so selection stays
        deterministic and starvation-resistant.
        """
        if not self._by_tid:
            return None
        best: Task | None = None
        best_key: tuple | None = None
        for task in self._tree.values():
            candidate = key(task)
            if best_key is None or candidate < best_key:
                best_key = candidate
                best = task
        return best

    def max_blocking(
        self, key: Callable[[Task], float] | None = None
    ) -> Task | None:
        """Task with the highest blocking level (COLAB pick-next).

        Ties are broken by lower vruntime then lower tid so the choice is
        deterministic and starvation-resistant.

        Args:
            key: Optional alternative criticality metric (used by the
                ablation that swaps caused-wait time for waiter counts).
        """
        if not self._by_tid:
            return None
        metric = key if key is not None else (lambda t: t.blocking_level)
        best: Task | None = None
        best_key: tuple[float, float, int] | None = None
        for task in self._tree.values():
            candidate = (-metric(task), task.vruntime, task.tid)
            if best_key is None or candidate < best_key:
                best_key = candidate
                best = task
        return best

    def update_min_vruntime(self, running_vruntime: float | None) -> None:
        """Advance the watermark, considering the currently running task.

        Mirrors ``update_min_vruntime()`` in fair.c: the watermark follows
        min(curr, leftmost) but never moves backwards.  Runs on every
        accounting step, so it is written allocation-free (no candidate
        list); the branches compute exactly ``max(old, min(candidates))``.
        """
        head = self._tree.leftmost_value()
        if head is not None:
            head_vruntime = head.vruntime
            if running_vruntime is None or head_vruntime < running_vruntime:
                floor = head_vruntime
            else:
                floor = running_vruntime
        else:
            floor = running_vruntime
        if floor is not None and floor > self.min_vruntime:
            self.min_vruntime = floor
        hook = self.hooks[MIN_VRUNTIME]
        if hook is not None:
            hook(MIN_VRUNTIME, None, self, None, None)

    # ------------------------------------------------------------------
    # Sanitizer support
    # ------------------------------------------------------------------
    def sanitize_violations(self) -> list[str]:
        """Describe every broken queue invariant (empty list = healthy).

        Read-only: validates the red-black tree plus the lockstep between
        the tree, the tid index, the node-handle map, and the queued tasks'
        own bookkeeping.  Queued tasks must be READY and claim this core.
        (A queued task's *vruntime* may legitimately drift from its tree
        key -- dequeue removes through the recorded node handle -- so key
        staleness is not a violation.)
        """
        problems = self._tree.invariant_violations()
        if len(self._by_tid) != len(self._tree):
            problems.append(
                f"tid index holds {len(self._by_tid)} tasks but tree holds "
                f"{len(self._tree)}"
            )
        if set(self._nodes) != set(self._by_tid):
            problems.append("node map and tid index disagree on queued tids")
        for task in self._tree.values():
            if self._by_tid.get(task.tid) is not task:
                problems.append(
                    f"tree task {task.name} (tid {task.tid}) missing from "
                    "tid index"
                )
            if not task.is_runnable:
                problems.append(
                    f"queued task {task.name} is {task.state.value}, "
                    "expected ready"
                )
            if task.rq_core_id != self.core_id:
                problems.append(
                    f"queued task {task.name} claims core "
                    f"{task.rq_core_id}, expected {self.core_id}"
                )
        return problems
