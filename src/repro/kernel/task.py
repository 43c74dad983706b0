"""The ``task_struct`` analogue.

A :class:`Task` is one schedulable thread of a workload program.  It carries
exactly the state the COLAB paper adds to or reads from the Linux task
struct:

* CFS accounting -- virtual runtime, accumulated execution time;
* futex instrumentation -- the timestamp at which the task started waiting
  (written in the analogue of ``futex_wait_queue_me``) and the cumulative
  time this task has caused *other* threads to wait (accumulated in the
  analogue of ``wake_futex`` on the waker side).  The paper uses the latter
  as its thread-criticality metric;
* the multi-factor labels computed every labeling period -- predicted
  big-vs-little speedup and blocking level, plus the core-allocation label
  derived from them;
* an optional CPU affinity mask (the only control WASH exercises).

Tasks progress through a strict state machine::

    NEW -> READY <-> RUNNING -> DONE
              ^         |
              |         v
              +----- SLEEPING

Transitions are validated and raise :class:`~repro.errors.KernelError`
when violated, which turns subtle scheduler bugs into loud test failures.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Iterator

from repro.errors import KernelError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.counters import MicroArchProfile, PerformanceCounters
    from repro.workloads.actions import Action, Compute


class TaskState(enum.Enum):
    """Lifecycle states of a task."""

    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    SLEEPING = "sleeping"
    DONE = "done"


class CoreLabel(enum.Enum):
    """Core-allocation label assigned by the multi-factor labeler.

    Mirrors Section 3.2 of the paper: high-predicted-speedup threads are
    labeled ``BIG``; low-speedup *and* low-blocking threads are labeled
    ``LITTLE``; everything else is ``ANY`` and is spread round-robin over
    all cores for load balance.
    """

    BIG = "big"
    LITTLE = "little"
    ANY = "any"


# Module-level aliases: the state tests below run at every transition.
_NEW = TaskState.NEW
_READY = TaskState.READY
_RUNNING = TaskState.RUNNING
_SLEEPING = TaskState.SLEEPING
_DONE = TaskState.DONE

_tid_counter = itertools.count(1)


def reset_tid_counter() -> None:
    """Reset global task-id allocation (test isolation helper)."""
    global _tid_counter
    _tid_counter = itertools.count(1)


class Task:
    """One schedulable thread.

    Args:
        name: Human-readable identifier, e.g. ``"ferret.0/rank-2"``.
        app_id: Index of the application (program) this thread belongs to
            within its workload; used for per-application metrics.
        actions: Iterator producing the thread's
            :class:`~repro.workloads.actions.Action` stream.
        profile: Latent micro-architectural profile driving both the
            ground-truth big-vs-little speedup and the synthetic
            performance counters.
    """

    # Tasks are the densest objects in a run (thousands live at once in
    # thread-overloaded mixes) and their attributes sit on the hottest
    # accounting paths: __slots__ drops the per-instance dict and makes
    # every read a fixed-offset load.
    __slots__ = (
        "tid",
        "name",
        "app_id",
        "actions",
        "profile",
        "state",
        "vruntime",
        "sum_exec_runtime",
        "exec_time_by_kind",
        "work_done",
        "wait_started_at",
        "caused_wait_time",
        "caused_wait_window",
        "own_wait_time",
        "predicted_speedup",
        "blocking_level",
        "core_label",
        "affinity",
        "rq_core_id",
        "running_on",
        "last_core_kind",
        "last_core_id",
        "migrations",
        "pending_penalty",
        "current_segment",
        "gen_started",
        "blocked_action",
        "pending_result",
        "spawn_time",
        "finish_time",
        "counters",
        "_profile_speedup",
    )

    def __init__(
        self,
        name: str,
        app_id: int,
        actions: Iterator["Action"],
        profile: "MicroArchProfile",
    ) -> None:
        self.tid: int = next(_tid_counter)
        self.name = name
        self.app_id = app_id
        self.actions = actions
        self.profile = profile

        self.state = TaskState.NEW

        # --- CFS accounting -------------------------------------------------
        #: Virtual runtime in milliseconds (possibly speedup-scaled by COLAB).
        self.vruntime: float = 0.0
        #: Total wall CPU time consumed, any core kind.
        self.sum_exec_runtime: float = 0.0
        #: CPU time split by core kind (keyed "big"/"little").
        self.exec_time_by_kind: dict[str, float] = {"big": 0.0, "little": 0.0}
        #: Total work units retired (big-core-milliseconds of work).
        self.work_done: float = 0.0

        # --- futex / criticality instrumentation ----------------------------
        #: Timestamp at which this task began waiting on a futex, or None.
        self.wait_started_at: float | None = None
        #: Cumulative time (ms) this task caused other tasks to wait.
        #: This is the paper's thread-criticality metric.
        self.caused_wait_time: float = 0.0
        #: Caused-wait accumulated since the last labeling pass (windowed).
        self.caused_wait_window: float = 0.0
        #: Total time this task itself spent blocked.
        self.own_wait_time: float = 0.0

        # --- multi-factor labels --------------------------------------------
        #: Online predicted big-vs-little speedup (from the runtime model).
        self.predicted_speedup: float = 1.0
        #: Exponentially smoothed blocking level (caused-wait per window).
        self.blocking_level: float = 0.0
        #: Core-allocation label from the most recent labeling pass.
        self.core_label: CoreLabel = CoreLabel.ANY

        # --- placement -------------------------------------------------------
        #: Allowed core ids, or None meaning "all cores" (WASH sets this).
        self.affinity: frozenset[int] | None = None
        #: Core id whose runqueue currently holds the task (READY only).
        self.rq_core_id: int | None = None
        #: Core id the task is currently running on (RUNNING only).
        self.running_on: int | None = None
        #: Kind ("big"/"little") of the last core the task ran on.
        self.last_core_kind: str | None = None
        #: Id of the last core the task ran on (for migration counting).
        self.last_core_id: int | None = None
        #: Number of cross-core migrations suffered.
        self.migrations: int = 0
        #: Outstanding dispatch penalty (context-switch / cache-warmup ms)
        #: consumed before useful work retires; maintained by the machine.
        self.pending_penalty: float = 0.0

        # --- execution progress ----------------------------------------------
        #: The in-flight compute segment, if the current action is Compute.
        self.current_segment: "Compute | None" = None
        #: Whether the action generator has been started (first next()).
        self.gen_started: bool = False
        #: The blocking action this task is parked on (for wake fix-up,
        #: e.g. collecting a hand-delivered pipe item).
        self.blocked_action: "Action | None" = None
        #: Value to send into the generator on the next resume.
        self.pending_result: object = None

        # --- lifetime ----------------------------------------------------------
        self.spawn_time: float = 0.0
        self.finish_time: float | None = None

        # Filled in by the machine at registration time when the policy
        # reads counters (``Scheduler.reads_counters``); None means the
        # policy reads no counters.
        self.counters: "PerformanceCounters | None" = None

        #: ``profile.speedup()`` memo, set by :meth:`true_speedup` on first
        #: use.  The profile is frozen, so its speedup is a constant that
        #: need not be recomputed on every call.
        self._profile_speedup: float | None = None

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    # Each transition tests the state inline and calls :meth:`_require`
    # only to raise: transitions run at every dispatch, preemption and
    # wakeup.
    def _require(self, *states: TaskState) -> None:
        if self.state not in states:
            allowed = "/".join(s.value for s in states)
            raise KernelError(
                f"task {self.name} (tid {self.tid}) is {self.state.value}, "
                f"expected {allowed}"
            )

    def mark_ready(self) -> None:
        """NEW, RUNNING (preempted) or SLEEPING (woken) -> READY."""
        state = self.state
        if state is not _RUNNING and state is not _SLEEPING and state is not _NEW:
            self._require(_NEW, _RUNNING, _SLEEPING)
        self.state = _READY
        self.running_on = None

    def mark_running(self, core_id: int, core_kind: str) -> None:
        """READY -> RUNNING on ``core_id``."""
        if self.state is not _READY:
            self._require(_READY)
        self.state = _RUNNING
        self.rq_core_id = None
        self.running_on = core_id
        self.last_core_kind = core_kind

    def mark_sleeping(self) -> None:
        """RUNNING -> SLEEPING (blocked on a futex)."""
        if self.state is not _RUNNING:
            self._require(_RUNNING)
        self.state = _SLEEPING
        self.running_on = None

    def mark_done(self, now: float) -> None:
        """RUNNING -> DONE (action stream exhausted)."""
        if self.state is not _RUNNING:
            self._require(_RUNNING)
        self.state = _DONE
        self.running_on = None
        self.finish_time = now

    # ------------------------------------------------------------------
    # Convenience predicates
    # ------------------------------------------------------------------
    @property
    def is_runnable(self) -> bool:
        return self.state is _READY

    @property
    def is_running(self) -> bool:
        return self.state is _RUNNING

    @property
    def is_done(self) -> bool:
        return self.state is _DONE

    def allows_core(self, core_id: int) -> bool:
        """True if the affinity mask (if any) permits ``core_id``."""
        return self.affinity is None or core_id in self.affinity

    # ------------------------------------------------------------------
    # Speedup access
    # ------------------------------------------------------------------
    def true_speedup(self) -> float:
        """Ground-truth big-vs-little speedup of the *current* phase.

        If a compute segment is in flight and carries a phase-specific
        speedup override, that value wins; otherwise the task's baseline
        profile speedup applies.  Non-compute phases (blocked on I/O or
        synchronisation) are core-insensitive by definition.
        """
        segment = self.current_segment
        if segment is not None and segment.speedup is not None:
            return segment.speedup
        cached = self._profile_speedup
        if cached is None:
            cached = self._profile_speedup = self.profile.speedup()
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Task {self.name} tid={self.tid} {self.state.value} "
            f"vrt={self.vruntime:.3f} block={self.caused_wait_time:.3f}>"
        )
