"""Futex wait/wake with caused-wait (criticality) accounting.

The paper instruments four kernel functions -- ``futex_wait_queue_me`` /
``futex_lock_pi`` on the wait side and ``wake_futex`` / ``wake_futex_pi``
on the wake side -- to measure, for every thread, the cumulative time it
has caused *other* threads to wait.  That quantity is COLAB's thread
criticality metric.

:class:`FutexTable` reproduces exactly that accounting:

* :meth:`FutexTable.wait` is the wait-side hook: it timestamps the waiter
  (``task.wait_started_at``) and parks it on the futex's FIFO queue;
* :meth:`FutexTable.wake` is the wake-side hook: it dequeues waiters,
  computes each waiter's waiting period, and accumulates it on the *waker*
  (both the lifetime total ``caused_wait_time`` and the windowed
  ``caused_wait_window`` consumed by the 10 ms labeler).

All higher-level primitives in :mod:`repro.kernel.sync` (mutexes,
barriers, condition variables, pipes) funnel through this single point,
mirroring how glibc/NPTL primitives all reduce to futexes on Linux.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from repro.errors import KernelError
from repro.kernel.task import Task, TaskState
from repro.obs.probe import FUTEX_WAIT, FUTEX_WAKE, NO_HOOKS

_SLEEPING = TaskState.SLEEPING

_futex_ids = itertools.count(1)


def new_futex_id() -> int:
    """Allocate a fresh futex address (unique integer)."""
    return next(_futex_ids)


@dataclass
class FutexWaiter:
    """One parked task, the futex it waits on, and since when."""

    task: Task
    since: float
    futex_id: int


class FutexTable:
    """All futex wait-queues of one simulated machine.

    Args:
        probe: Optional :class:`repro.obs.probe.Probe` told about every
            park and wake (trace records, wait histogram, attribution's
            park counter, schedsan's pairing checks).
    """

    def __init__(self, probe=None) -> None:
        self._queues: dict[int, deque[FutexWaiter]] = {}
        #: Total number of wait operations (diagnostics / Table 3 measurement).
        self.total_waits: int = 0
        #: Wait counts by primitive kind ("lock"/"barrier"/"cond"/"pipe"/...).
        #: Table 3's synchronisation rate counts the contention-style kinds
        #: (locks, pipes, condvars) -- barrier joins are phase structure,
        #: not lock traffic.
        self.waits_by_kind: dict[str, int] = {}
        #: Total number of wake operations.
        self.total_wakes: int = 0
        #: The probe's per-kind transition hooks (:meth:`Probe.hooks`).
        self.hooks = probe.hooks() if probe is not None else NO_HOOKS

    # ------------------------------------------------------------------
    # Wait side (futex_wait_queue_me analogue)
    # ------------------------------------------------------------------
    def wait(
        self, task: Task, futex_id: int, now: float, kind: str = "generic"
    ) -> None:
        """Park ``task`` on ``futex_id``.

        The caller (the machine) is responsible for transitioning the task
        to SLEEPING; this method only performs queueing and timestamping.
        ``kind`` tags the owning primitive for Table 3's sync-rate
        measurement.

        Raises:
            KernelError: if the task is already waiting somewhere.
        """
        if task.wait_started_at is not None:
            raise KernelError(
                f"task {task.name} already waiting since t={task.wait_started_at}"
            )
        task.wait_started_at = now
        waiter = FutexWaiter(task=task, since=now, futex_id=futex_id)
        self._queues.setdefault(futex_id, deque()).append(waiter)
        self.total_waits += 1
        self.waits_by_kind[kind] = self.waits_by_kind.get(kind, 0) + 1
        hook = self.hooks[FUTEX_WAIT]
        if hook is not None:
            hook(FUTEX_WAIT, task, waiter, now, kind)

    # ------------------------------------------------------------------
    # Wake side (wake_futex analogue)
    # ------------------------------------------------------------------
    def wake(
        self, waker: Task | None, futex_id: int, now: float, count: int = 1
    ) -> list[Task]:
        """Wake up to ``count`` waiters of ``futex_id`` in FIFO order.

        For each woken waiter the waiting period ``now - since`` is charged
        to ``waker`` as caused-wait time -- the paper's criticality metric.
        ``waker`` may be ``None`` for system-initiated wakeups (none occur
        in the reproduced workloads, but the harness uses it in tests).

        Returns:
            The woken tasks, in wake order.  The caller transitions them to
            READY and runs core allocation.
        """
        queue = self._queues.get(futex_id)
        woken: list[Task] = []
        while queue and len(woken) < count:
            waiter = queue.popleft()
            task = waiter.task
            hook = self.hooks[FUTEX_WAKE]
            if hook is not None:
                hook(FUTEX_WAKE, task, waiter, now, waker)
            if task.state is not _SLEEPING:
                raise KernelError(
                    f"futex {futex_id} woke {task.name} in state {task.state.value}"
                )
            waited = now - waiter.since
            if waited < 0:
                raise KernelError(
                    f"negative wait period {waited} for {task.name}"
                )
            task.wait_started_at = None
            task.own_wait_time += waited
            if task.counters is not None:
                # Blocked time shows up as quiesce (interrupt-wait) cycles,
                # counter D of the paper's Table 2.
                task.counters.record_wait(waited)
            if waker is not None:
                waker.caused_wait_time += waited
                waker.caused_wait_window += waited
            woken.append(task)
            self.total_wakes += 1
        if queue is not None and not queue:
            del self._queues[futex_id]
        return woken

    def wake_all(self, waker: Task | None, futex_id: int, now: float) -> list[Task]:
        """Wake every waiter of ``futex_id`` (barrier release)."""
        return self.wake(waker, futex_id, now, count=len(self.waiters(futex_id)))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def waiters(self, futex_id: int) -> list[Task]:
        """Tasks currently parked on ``futex_id``, FIFO order."""
        return [w.task for w in self._queues.get(futex_id, ())]

    def waiter_count(self, futex_id: int) -> int:
        return len(self._queues.get(futex_id, ()))

    def any_waiters(self) -> bool:
        """True if any task is parked on any futex (deadlock detection)."""
        return any(self._queues.values())

    def waiter_total(self) -> int:
        """Total parked tasks across all futexes (timeline sampling)."""
        total = 0
        for queue in self._queues.values():
            total += len(queue)
        return total
