"""Per-core runqueues.

Each core owns one :class:`RunQueue`.  Internally it is the CFS timeline:
READY tasks ordered by ``(vruntime, tid)`` with a leftmost pick and a
monotonic ``min_vruntime`` watermark, the semantics of ``struct cfs_rq``.
The container is one sorted list rather than the kernel's red-black
tree: a queue holds at most a few dozen tasks, and ``tid`` makes every
key unique, so ``bisect`` keeps the order and never compares two tasks.

All three reproduced schedulers share this structure:

* CFS picks the leftmost (minimum-vruntime) task;
* WASH delegates picking to CFS, so it also uses the leftmost task;
* COLAB's thread selector ignores vruntime order when picking and instead
  scans for the task minimising its own selection key (:meth:`best`),
  which is an O(n) scan -- acceptable because runqueues hold at most a few
  dozen tasks and it keeps the policy logic transparent.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import itemgetter
from typing import Callable, Iterator, KeysView

from repro.errors import KernelError
from repro.kernel.task import Task, TaskState
from repro.obs.probe import DEQUEUE, ENQUEUE, MIN_VRUNTIME, NO_HOOKS

_READY = TaskState.READY


class RunQueue:
    """The per-core queue of READY tasks, ordered by virtual runtime.

    Args:
        core_id: Id of the owning core (for error messages and task
            bookkeeping).
    """

    def __init__(self, core_id: int) -> None:
        self.core_id = core_id
        #: ``(vruntime, tid, task)`` entries in ascending key order; the
        #: first entry is the leftmost (next CFS pick).
        self._entries: list[tuple[float, int, Task]] = []
        #: ``(vruntime, tid)`` key each queued task was inserted under, by
        #: tid, so its keys are exactly the queued tids.  Dequeue searches
        #: for this key, so it still finds a task whose vruntime changed
        #: while queued.
        self._keys: dict[int, tuple[float, int]] = {}
        #: Number of queued tasks (Linux's ``rq->nr_running``), kept by
        #: enqueue and dequeue: hot-path readers use it instead of
        #: ``len()`` or a truth test, each a ``__len__``/``__bool__`` frame.
        self.nr_running = 0
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
        return len(self._keys)

    def __bool__(self) -> bool:
        return bool(self._keys)

    def __contains__(self, task: Task) -> bool:
        return task.tid in self._keys

    def tasks(self) -> Iterator[Task]:
        """Iterate queued tasks in ascending vruntime order, without a copy.

        The queue must not change while it is walked: a caller that
        enqueues or dequeues must stop walking there.
        """
        return map(itemgetter(2), self._entries)

    def tids(self) -> KeysView[int]:
        """Live read-only view of the queued tids."""
        return self._keys.keys()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def enqueue(self, task: Task) -> None:
        """Add a READY task to this queue.

        Raises:
            KernelError: if the task is already queued here or elsewhere,
                or is not in the READY state.
        """
        if task.state is not _READY:
            raise KernelError(
                f"cannot enqueue {task.name}: state is {task.state.value}"
            )
        if task.rq_core_id is not None:
            raise KernelError(
                f"task {task.name} already on runqueue of core {task.rq_core_id}"
            )
        key = (task.vruntime, task.tid)
        insort(self._entries, (*key, task))
        self._keys[task.tid] = key
        self.nr_running += 1
        task.rq_core_id = self.core_id
        hook = self.hooks[ENQUEUE]
        if hook is not None:
            hook(ENQUEUE, task, self, None, None)

    def dequeue(self, task: Task) -> None:
        """Remove a specific task (migration, or it was picked to run)."""
        key = self._keys.pop(task.tid, None)
        if key is None:
            raise KernelError(
                f"task {task.name} not on runqueue of core {self.core_id}"
            )
        del self._entries[bisect_left(self._entries, key)]
        self.nr_running -= 1
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
        """Leftmost (minimum-vruntime) task, or None if empty."""
        return self._entries[0][2] if self._entries else None

    def pop_min(self) -> Task | None:
        """Remove and return the leftmost task (CFS pick-next).

        Advances ``min_vruntime`` to the popped task's virtual runtime
        (it becomes the running "curr"), mirroring ``update_min_vruntime``.
        """
        if not self._entries:
            return None
        task = self._entries[0][2]
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
        if not self._keys:
            return None
        best: Task | None = None
        best_key: tuple | None = None
        for _, _, task in self._entries:
            candidate = key(task)
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
        if self._entries:
            head_vruntime = self._entries[0][2].vruntime
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

        Read-only: checks that the entries' keys ascend strictly and that
        each entry agrees with the key map, which holds no other tid and
        as many as ``nr_running`` counts, and that both stay in lockstep
        with the queued tasks' own bookkeeping.
        Queued tasks must be READY and claim this core.  (A queued task's
        *vruntime* may legitimately drift from its recorded key -- dequeue
        searches for the recorded key -- so key staleness is not a
        violation.)
        """
        problems: list[str] = []
        if len(self._entries) != len(self._keys):
            problems.append(
                f"queue holds {len(self._entries)} entries but key map "
                f"holds {len(self._keys)}"
            )
        if self.nr_running != len(self._keys):
            problems.append(
                f"nr_running is {self.nr_running} but key map holds "
                f"{len(self._keys)}"
            )
        previous: tuple[float, int] | None = None
        for vruntime, tid, task in self._entries:
            key = (vruntime, tid)
            if previous is not None and not previous < key:
                problems.append(
                    f"queue out of order: key {key} follows {previous}"
                )
            previous = key
            if self._keys.get(task.tid) != key:
                problems.append(
                    f"entry {key} of task {task.name} disagrees with the "
                    "key map"
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
