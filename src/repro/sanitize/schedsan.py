"""schedsan: the runtime scheduler sanitizer.

Lockdep/KASAN for the simulated kernel: a read-only
:class:`~repro.obs.probe.Probe` that a machine built with
``MachineConfig(sanitize=True)`` attaches to its observer seam, so it sees
every runqueue mutation, futex park and wake, pick, drain and engine
event.  Every check inspects state without mutating it, which is what
guarantees scheduling outcomes stay bit-identical with the sanitizer on
or off.

Checked invariants (the ones COLAB's who-wins evaluation rests on):

* **runqueue** -- after every runqueue mutation: entries in strictly
  ascending ``(vruntime, tid)`` order, entries and key map kept in
  lockstep, queued tasks READY and owned by this core;
* **min_vruntime** -- the per-queue watermark never moves backwards;
* **task state** -- post-drain, every READY task sits on exactly one
  runqueue, RUNNING tasks biject with ``core.current``, SLEEPING tasks
  have a wait timestamp, DONE tasks a finish time; vruntime stays finite
  (one O(tasks + cores) sweep per drain);
* **futex pairing** -- no task parks twice, no wake of a non-waiter, and
  at the end of the run no waiter was lost;
* **event queue** -- simulated time never travels backwards;
* **work conservation** -- after balancing, no idle core faces a
  non-empty local runqueue;
* **policy** -- each scheduler's own decision-counter bookkeeping
  (:meth:`repro.schedulers.base.Scheduler.sanitize_invariants`).

Failures raise :class:`repro.errors.SanitizerError` carrying the check
name and, when the run is traced, the most recent trace events.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.errors import SanitizerError
from repro.kernel.task import TaskState
from repro.obs.probe import (
    DEQUEUE,
    DRAIN,
    ENQUEUE,
    FUTEX_WAIT,
    FUTEX_WAKE,
    MIN_VRUNTIME,
    PICK,
    Probe,
)

# The post-drain sweep tests every task's state on every drain. Reading a
# member through its Enum class (``TaskState.READY``) goes through a
# descriptor and costs about ten times a global read on CPython 3.11;
# these aliases halve the cost of one ``check_machine`` call.
_READY, _RUNNING, _SLEEPING, _DONE = (
    TaskState.READY, TaskState.RUNNING, TaskState.SLEEPING, TaskState.DONE,
)
#: ``queued_on`` entry of a task no runqueue holds (shared, never mutated).
_NO_HOMES: tuple[int, ...] = ()

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.runqueue import RunQueue
    from repro.kernel.task import Task
    from repro.sim.core import Core
    from repro.sim.events import Event
    from repro.sim.machine import Machine


class SchedSanitizer(Probe):
    """The invariant checker one sanitized machine owns.

    Args:
        events: The run's trace (``RunResult.events`` as it grows), or
            ``None`` when the run is not traced; its most recent records
            are attached to every failure as diagnostic context.
        context_tail: How many trailing trace events a failure report
            carries.
    """

    def __init__(self, events=None, context_tail: int = 25) -> None:
        self._events = events
        self._context_tail = context_tail
        #: Highest min_vruntime ever observed per core id (monotone floor).
        self._vruntime_floor: dict[int, float] = {}
        #: tid -> futex id for every currently parked task.
        self._waiting: dict[int, int] = {}
        #: Time of the last event handed to a handler.
        self._last_event_time: float = 0.0
        #: Total checks executed (diagnostics / benchmarks).
        self.checks_run: int = 0

    # ------------------------------------------------------------------
    # Probe hooks
    # ------------------------------------------------------------------
    kinds = frozenset(
        (ENQUEUE, DEQUEUE, MIN_VRUNTIME, PICK, DRAIN, FUTEX_WAIT, FUTEX_WAKE)
    )

    def transition(self, kind: int, task, where, now, detail) -> None:
        if kind == MIN_VRUNTIME:
            self.on_min_vruntime(where)
        elif kind == ENQUEUE or kind == DEQUEUE:
            self.on_rq_change(where)
        elif kind == DRAIN:
            self.check_machine(where)
        elif kind == PICK:
            self.on_pick(where, task)
        elif kind == FUTEX_WAIT:
            self.on_futex_wait(task, where.futex_id)
        elif kind == FUTEX_WAKE:
            self.on_futex_wake(task, where.futex_id)

    def finish(self, machine, makespan: float, fields: dict) -> None:
        self.check_final(machine)

    # ------------------------------------------------------------------
    # Failure path
    # ------------------------------------------------------------------
    def _fail(self, check: str, message: str) -> None:
        events = []
        if self._events is not None:
            events = self._events[-self._context_tail:]
        raise SanitizerError(message, check=check, events=events)

    # ------------------------------------------------------------------
    # Runqueue hooks (called after every mutation)
    # ------------------------------------------------------------------
    def on_rq_change(self, rq: "RunQueue") -> None:
        """Validate ``rq`` after an enqueue/dequeue."""
        self.checks_run += 1
        problems = rq.sanitize_violations()
        if problems:
            self._fail(
                "runqueue",
                f"runqueue of core {rq.core_id} corrupt after mutation: "
                + "; ".join(problems),
            )

    def on_min_vruntime(self, rq: "RunQueue") -> None:
        """Validate that ``rq.min_vruntime`` only ever advances."""
        self.checks_run += 1
        floor = self._vruntime_floor.get(rq.core_id)
        if floor is not None and rq.min_vruntime < floor - 1e-9:
            self._fail(
                "min_vruntime",
                f"min_vruntime of core {rq.core_id} moved backwards: "
                f"{floor} -> {rq.min_vruntime}",
            )
        if not math.isfinite(rq.min_vruntime):
            self._fail(
                "min_vruntime",
                f"min_vruntime of core {rq.core_id} is {rq.min_vruntime}",
            )
        if floor is None or rq.min_vruntime > floor:
            self._vruntime_floor[rq.core_id] = rq.min_vruntime

    # ------------------------------------------------------------------
    # Futex hooks
    # ------------------------------------------------------------------
    def on_futex_wait(self, task: "Task", futex_id: int) -> None:
        """Record a park; a task may wait on at most one futex."""
        self.checks_run += 1
        if task.tid in self._waiting:
            self._fail(
                "futex_pairing",
                f"task {task.name} (tid {task.tid}) parked on futex "
                f"{futex_id} while already waiting on "
                f"{self._waiting[task.tid]}",
            )
        self._waiting[task.tid] = futex_id

    def on_futex_wake(self, task: "Task", futex_id: int) -> None:
        """Match a wake against the recorded park."""
        self.checks_run += 1
        parked_on = self._waiting.get(task.tid)
        if parked_on != futex_id:
            self._fail(
                "futex_pairing",
                f"futex {futex_id} woke task {task.name} (tid {task.tid}) "
                + (
                    "which was never parked"
                    if parked_on is None
                    else f"which is parked on futex {parked_on}"
                ),
            )
        del self._waiting[task.tid]

    # ------------------------------------------------------------------
    # Engine hook
    # ------------------------------------------------------------------
    def on_event(self, event: "Event", now: float) -> None:
        """Reject event-queue time travel (called before each handler)."""
        self.checks_run += 1
        if event.time < now:
            self._fail(
                "time_travel",
                f"{event.kind.name} event at t={event.time} behind the "
                f"clock t={now}",
            )
        if event.time < self._last_event_time:
            self._fail(
                "time_travel",
                f"{event.kind.name} event at t={event.time} precedes the "
                f"previously handled event at t={self._last_event_time}",
            )
        self._last_event_time = event.time

    event = on_event

    # ------------------------------------------------------------------
    # Dispatch hook
    # ------------------------------------------------------------------
    def on_pick(self, core: "Core", task: "Task") -> None:
        """Validate a scheduler's pick before the machine starts it."""
        self.checks_run += 1
        if not task.is_runnable:
            self._fail(
                "pick",
                f"scheduler picked {task.name} in state {task.state.value} "
                f"for core {core.core_id}",
            )
        if task.rq_core_id is not None:
            self._fail(
                "pick",
                f"scheduler picked {task.name} still queued on core "
                f"{task.rq_core_id}",
            )

    # ------------------------------------------------------------------
    # Machine-wide sweeps
    # ------------------------------------------------------------------
    def check_machine(self, machine: "Machine") -> None:
        """Post-drain sweep: task states, runqueue membership, idle cores.

        O(tasks + cores): one walk of each core's tid index builds the
        tid -> queue map, so no task is looked up in every runqueue.
        """
        self.checks_run += 1
        running_on_core: dict[int, int] = {}
        # tid -> ids of the cores queueing it, in ascending core order.
        queued_on: dict[int, list[int]] = {}
        for core in machine.cores:
            for tid in core.rq.tids():
                homes = queued_on.get(tid)
                if homes is None:
                    queued_on[tid] = [core.core_id]
                else:
                    homes.append(core.core_id)
            current = core.current
            if current is None:
                if core.rq:
                    head = core.rq.peek_min()
                    self._fail(
                        "work_conservation",
                        f"core {core.core_id} idle after drain with "
                        f"{len(core.rq)} queued task(s), head "
                        f"{head.name if head else '?'}",
                    )
                continue
            if current.state is not _RUNNING:
                self._fail(
                    "task_state",
                    f"core {core.core_id} runs {current.name} in state "
                    f"{current.state.value}",
                )
            # The bijection test goes before the running_on test: a task
            # current on two cores disagrees with one of them, and the
            # message must name both cores.
            if current.tid in running_on_core:
                self._fail(
                    "task_state",
                    f"{current.name} is current on cores "
                    f"{running_on_core[current.tid]} and {core.core_id}",
                )
            if current.running_on != core.core_id:
                self._fail(
                    "task_state",
                    f"{current.name} runs on core {core.core_id} but "
                    f"records running_on={current.running_on}",
                )
            running_on_core[current.tid] = core.core_id

        for task in machine.tasks:
            # One test for NaN, +-inf and negatives; -0.0 passes.
            if not 0.0 <= task.vruntime < math.inf:
                self._fail(
                    "vruntime",
                    f"{task.name} has vruntime {task.vruntime}",
                )
            homes = queued_on.get(task.tid, _NO_HOMES)
            if task.state is _READY:
                if len(homes) != 1:
                    self._fail(
                        "task_state",
                        f"READY task {task.name} is on "
                        f"{len(homes)} runqueues {list(homes)}, expected exactly 1",
                    )
                if task.rq_core_id != homes[0]:
                    self._fail(
                        "task_state",
                        f"READY task {task.name} records rq_core_id="
                        f"{task.rq_core_id} but sits on core {homes[0]}",
                    )
            else:
                if homes:
                    self._fail(
                        "task_state",
                        f"{task.state.value} task {task.name} is on "
                        f"runqueue(s) {homes}",
                    )
                if task.state is _RUNNING:
                    if task.tid not in running_on_core:
                        self._fail(
                            "task_state",
                            f"RUNNING task {task.name} is no core's current",
                        )
                elif task.state is _SLEEPING:
                    if task.wait_started_at is None:
                        self._fail(
                            "task_state",
                            f"SLEEPING task {task.name} has no wait "
                            "timestamp",
                        )
                elif task.state is _DONE:
                    if task.finish_time is None:
                        self._fail(
                            "task_state",
                            f"DONE task {task.name} has no finish time",
                        )

        for problem in machine.scheduler.sanitize_invariants(machine):
            self._fail("policy", problem)

    def check_final(self, machine: "Machine") -> None:
        """End-of-run sweep: no lost wakeups, no leftover waiters."""
        self.checks_run += 1
        if self._waiting:
            stuck = sorted(self._waiting.items())[:10]
            self._fail(
                "futex_pairing",
                f"{len(self._waiting)} task(s) were parked but never "
                f"woken (lost wakeups): {stuck}",
            )
        if machine.futexes.any_waiters():
            self._fail(
                "futex_pairing",
                "futex table still holds waiters after the run completed",
            )
        for task in machine.tasks:
            if not task.is_done:
                self._fail(
                    "task_state",
                    f"run completed but {task.name} is "
                    f"{task.state.value}",
                )
