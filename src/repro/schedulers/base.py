"""The scheduler interface: Linux's fair-class extension points.

The COLAB paper implements its policy by overriding three functions of the
Linux kernel's fair scheduling class and adding a periodic labeling pass:

==========================  =================================
Linux function              :class:`Scheduler` method
==========================  =================================
``select_task_rq_fair``     :meth:`Scheduler.select_core`
``pick_next_task_fair``     :meth:`Scheduler.pick_next`
``wakeup_preempt_entity``   :meth:`Scheduler.check_preempt_wakeup`
(10 ms labeling pass)       :meth:`Scheduler.on_label_tick`
==========================  =================================

All three reproduced policies (CFS, WASH, COLAB) implement this interface,
so the simulated machine is policy-agnostic and the comparison isolates
exactly the decision logic the paper varies.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import SchedulerError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.task import Task
    from repro.sim.core import Core
    from repro.sim.machine import Machine


@dataclass
class SchedulerStats:
    """Aggregate decision counters, reported with every run result."""

    picks: int = 0
    local_picks: int = 0
    steals: int = 0
    running_preemptions: int = 0
    wakeup_preemptions: int = 0
    label_passes: int = 0
    affinity_updates: int = 0
    extra: dict = field(default_factory=dict)


class Scheduler(abc.ABC):
    """Base class for scheduling policies.

    Lifecycle: construct, :meth:`attach` to a machine (which installs the
    per-core runqueues), then the machine calls the hook methods as the
    simulation progresses.  A scheduler instance must not be shared between
    machines.
    """

    #: Human-readable policy name used in reports ("linux", "wash", "colab").
    name: str = "base"
    #: Does the policy read performance counters?  The machine gives
    #: tasks :class:`~repro.sim.counters.PerformanceCounters` only when it
    #: does; otherwise ``task.counters`` stays None and no segment pays for
    #: counter synthesis.  Policies that call
    #: :func:`~repro.schedulers.labeling.refresh_estimates` must set it.
    reads_counters: bool = False

    def __init__(self) -> None:
        self.machine: "Machine | None" = None
        self.stats = SchedulerStats()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, machine: "Machine") -> None:
        """Bind to ``machine``; called exactly once by the machine."""
        if self.machine is not None:
            raise SchedulerError(f"scheduler {self.name} already attached")
        self.machine = machine

    # ------------------------------------------------------------------
    # Required policy decisions
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def select_core(self, task: "Task", now: float) -> "Core":
        """Choose the core whose runqueue receives a waking/new task.

        The Linux analogue is ``select_task_rq_fair``.  Must respect the
        task's affinity mask if one is set.
        """

    @abc.abstractmethod
    def pick_next(self, core: "Core", now: float) -> "Task | None":
        """Choose the next task for an idle ``core`` (``pick_next_task_fair``).

        The returned task must be READY and *not on any runqueue* (the
        implementation dequeues it, possibly from another core's queue when
        stealing, or obtains it by preempting a remote core through the
        machine).  Returns None if the core should idle.
        """

    @abc.abstractmethod
    def check_preempt_wakeup(self, core: "Core", woken: "Task", now: float) -> bool:
        """Should ``woken`` preempt what is running on ``core``?

        The Linux analogue is ``wakeup_preempt_entity`` called from the
        wakeup path.  Only consulted when the core is busy.
        """

    @abc.abstractmethod
    def enqueue(
        self,
        core: "Core",
        task: "Task",
        now: float,
        *,
        is_new: bool = False,
        is_wakeup: bool = False,
    ) -> None:
        """Place a READY task on ``core``'s runqueue, fixing up vruntime.

        ``is_new`` marks the first-ever enqueue (fresh tasks start at the
        queue's ``min_vruntime``); ``is_wakeup`` marks a wake-from-sleep
        (CFS's ``place_entity`` grants sleepers a half-latency credit);
        neither is set for preemption/slice-expiry requeues.
        """

    @abc.abstractmethod
    def charge(self, task: "Task", core: "Core", delta: float, now: float) -> None:
        """Account ``delta`` ms of execution on ``core`` to ``task``.

        This is where COLAB's speedup-scaled virtual time diverges from
        CFS/WASH wall-clock-equal accounting.
        """

    @abc.abstractmethod
    def slice_for(self, task: "Task", core: "Core") -> float:
        """Maximum uninterrupted time slice for ``task`` on ``core`` (ms)."""

    # ------------------------------------------------------------------
    # Optional hooks with neutral defaults
    # ------------------------------------------------------------------
    def label_period(self) -> float | None:
        """Period of :meth:`on_label_tick` in ms, or None to disable."""
        return None

    def on_label_tick(self, now: float) -> None:
        """Periodic multi-factor labeling pass (COLAB / WASH only)."""

    def on_task_done(self, task: "Task", now: float) -> None:
        """Notification that ``task`` finished."""

    def observe(self) -> tuple[dict[str, float], dict[str, float]]:
        """Read-only policy signals: ``(counters, gauges)``.

        Read at every timeline sample tick (``MachineConfig.timeseries``)
        and once at the end of a metrics-enabled run, so implementations
        must be cheap and must not mutate anything.  Counters are
        cumulative counts -- the timeline windows them into rates;
        gauges are point-in-time values.  Values are published into the
        metrics snapshot as given.  The base reports the core decision
        counters of :class:`SchedulerStats` (the metrics snapshot adds
        the other stats fields as ``scheduler.<field>`` gauges);
        policies extend ``super().observe()``.
        """
        stats = self.stats
        counters = {
            "scheduler.picks": stats.picks,
            "scheduler.steals": stats.steals,
            "scheduler.wakeup_preemptions": stats.wakeup_preemptions,
        }
        return counters, {}

    def sanitize_invariants(self, machine: "Machine") -> list[str]:
        """Describe broken policy invariants (schedsan hook; empty = healthy).

        Called by the runtime sanitizer after every drain.  Must be
        read-only so sanitized runs stay bit-identical to unsanitized
        ones.  The base check is affinity consistency: no queued or
        running task may sit on a core its mask forbids.  Policies extend
        this with their own decision-counter bookkeeping and should fold
        in ``super().sanitize_invariants(machine)``.
        """
        problems: list[str] = []
        for core in machine.cores:
            core_id = core.core_id
            for task in core.rq.tasks():
                if task.affinity is not None and core_id not in task.affinity:
                    problems.append(
                        f"{self.name}: task {task.name} queued on core "
                        f"{core_id} outside affinity {sorted(task.affinity)}"
                    )
            current = core.current
            if (
                current is not None
                and current.affinity is not None
                and core_id not in current.affinity
            ):
                problems.append(
                    f"{self.name}: task {current.name} running on core "
                    f"{core_id} outside affinity {sorted(current.affinity)}"
                )
        return problems

    def curr_vruntime(self, core: "Core", now: float) -> float:
        """Up-to-date vruntime of the running task, without descheduling.

        Adds the not-yet-charged execution since dispatch, using the same
        scaling as :meth:`charge` so wakeup-preemption comparisons are
        consistent.
        """
        task = core.current
        if task is None:
            raise SchedulerError(f"core {core.core_id} is idle")
        return task.vruntime + self._charge_scale(task, core) * (
            now - core.run_started
        )

    def _charge_scale(self, task: "Task", core: "Core") -> float:
        """Virtual-time units per wall millisecond (policy-specific)."""
        return 1.0

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _require_machine(self) -> "Machine":
        if self.machine is None:
            raise SchedulerError(f"scheduler {self.name} not attached")
        return self.machine

    def allowed_cores(self, task: "Task") -> list["Core"]:
        """Cores the task's affinity mask permits (all if unmasked).

        The result is read-only: for an unmasked task it is the machine's
        own ``cores`` list, returned without a copy.
        """
        machine = self._require_machine()
        if task.affinity is None:
            return machine.cores
        return [c for c in machine.cores if task.allows_core(c.core_id)]
