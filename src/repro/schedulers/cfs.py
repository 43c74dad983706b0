"""The Linux CFS baseline (AMP-agnostic completely fair scheduler).

This is the paper's "Linux" comparison point: Ingo Molnar's Completely
Fair Scheduler, which provides weighted-fair CPU time but is blind to core
asymmetry -- one millisecond on a little core is charged exactly like one
millisecond on a big core, and placement considers only load, never core
sensitivity or thread criticality.

Reproduced mechanisms (scaled to the simulator's millisecond clock):

* per-core runqueues ordered by ``(vruntime, tid)``, with the leftmost
  task picked next;
* ``sched_latency`` / ``min_granularity`` time slices that shrink as the
  queue grows;
* wakeup placement (``place_entity``): a waking sleeper's vruntime is
  clamped to ``min_vruntime - sched_latency/2`` so sleepers get a bounded
  catch-up credit instead of a starvation-inducing backlog;
* wakeup preemption (``wakeup_preempt_entity``): a waking task preempts
  the running one when its vruntime lag exceeds ``wakeup_granularity``;
* idle balancing: an idle core steals the leftmost compatible task from
  the busiest runqueue.

Simplification vs the kernel: vruntime is kept on a single global clock
rather than renormalised per-runqueue on migration.  The wakeup clamp
bounds cross-queue drift, and with equal nice levels the measurable
behaviour (fair shares, pick order) is preserved.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SchedulerError
from repro.obs.probe import DECISION
from repro.schedulers.base import Scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.task import Task
    from repro.sim.core import Core


class CFSScheduler(Scheduler):
    """The default Linux scheduler, used as the AMP-agnostic baseline."""

    name = "linux"

    def __init__(
        self,
        sched_latency: float = 6.0,
        min_granularity: float = 0.75,
        wakeup_granularity: float = 1.0,
    ) -> None:
        """Create a CFS instance.

        Args:
            sched_latency: Target period (ms) within which every queued
                task should run once (kernel default 6 ms).
            min_granularity: Floor (ms) for one slice (kernel 0.75 ms).
            wakeup_granularity: Minimum vruntime lag (ms) before a waking
                task preempts the running one (kernel 1 ms).
        """
        super().__init__()
        self.sched_latency = sched_latency
        self.min_granularity = min_granularity
        self.wakeup_granularity = wakeup_granularity

    # ------------------------------------------------------------------
    # Core allocation (select_task_rq_fair)
    # ------------------------------------------------------------------
    def select_core(self, task: "Task", now: float) -> "Core":
        """Wake placement following ``select_task_rq_fair``'s structure.

        CFS wakes a task on its previous core if that core is idle,
        otherwise searches for an idle core *within the previous core's
        LLC domain* (``select_idle_sibling``); on big.LITTLE each cluster
        is its own LLC domain.  Only when the previous core's queue is
        clearly overloaded relative to the least-loaded allowed core does
        the slow path move the task across domains.  This locality is the
        crux of CFS's AMP-blindness: a thread that history placed on a
        little cluster keeps waking there even when big cores sit idle.
        """
        allowed = self.allowed_cores(task)  # raises if unattached
        prev = None
        if task.last_core_id is not None:
            candidate = self.machine.cores[task.last_core_id]
            if candidate in allowed:
                prev = candidate
        if prev is not None:
            if prev.current is None and not prev.rq.nr_running:
                return prev
            # select_idle_sibling: idle core in the previous core's cluster.
            for core in allowed:
                if (
                    core.kind is prev.kind
                    and core.current is None
                    and not core.rq.nr_running
                ):
                    return core
        # The least loaded allowed core, lowest id first on ties (the list
        # is in core-id order): the first placement, and the slow path's
        # target.
        least = None
        least_load = 0
        for core in allowed:
            load = core.rq.nr_running + (0 if core.current is None else 1)
            if least is None or load < least_load:
                least = core
                least_load = load
        if prev is None:
            if least is None:
                raise SchedulerError(f"{task.name} allows no core")
            return least
        # Slow path: stay on prev unless clearly imbalanced.
        if prev.rq.nr_running + (0 if prev.current is None else 1) > least_load + 1:
            return least
        return prev

    # ------------------------------------------------------------------
    # Enqueue / vruntime placement (enqueue_entity + place_entity)
    # ------------------------------------------------------------------
    def enqueue(
        self,
        core: "Core",
        task: "Task",
        now: float,
        *,
        is_new: bool = False,
        is_wakeup: bool = False,
    ) -> None:
        # Each ``max(vruntime, floor)`` is written as the comparison it
        # performs: the floor wins only if it is greater.
        rq = core.rq
        if is_new:
            floor = rq.min_vruntime
            if floor > task.vruntime:
                task.vruntime = floor
        elif is_wakeup:
            floor = rq.min_vruntime - self.sched_latency / 2
            if floor > task.vruntime:
                task.vruntime = floor
        rq.enqueue(task)
        running = core.current.vruntime if core.current is not None else None
        rq.update_min_vruntime(running)

    # ------------------------------------------------------------------
    # Thread selection (pick_next_task_fair)
    # ------------------------------------------------------------------
    def pick_next(self, core: "Core", now: float) -> "Task | None":
        task = core.rq.pop_min()
        if task is not None:
            self.stats.local_picks += 1
            return task
        return self._idle_balance(core)

    def _idle_balance(self, core: "Core") -> "Task | None":
        """Steal the leftmost compatible task from the busiest runqueue."""
        machine = self._require_machine()
        donors = sorted(
            (c for c in machine.cores if c is not core and c.rq.nr_running > 0),
            key=lambda c: (-c.rq.nr_running, c.core_id),
        )
        for donor in donors:
            for candidate in donor.rq.tasks():
                if candidate.allows_core(core.core_id):
                    donor.rq.dequeue(candidate)
                    self.stats.steals += 1
                    hook = machine.hooks[DECISION]
                    if hook is not None:
                        hook(DECISION, candidate, core.core_id,
                             machine.engine.now, {
                                 "op": "idle_balance",
                                 "from_core": donor.core_id,
                                 "donor_depth": donor.rq.nr_running + 1,
                             })
                    return candidate
        return None

    def sanitize_invariants(self, machine) -> list[str]:
        """Every dispatch is either a local pop or an idle-balance steal."""
        problems = super().sanitize_invariants(machine)
        accounted = self.stats.local_picks + self.stats.steals
        if self.stats.picks != accounted:
            problems.append(
                f"{self.name}: {self.stats.picks} picks but "
                f"{self.stats.local_picks} local + {self.stats.steals} "
                "steals accounted"
            )
        return problems

    # ------------------------------------------------------------------
    # Wakeup preemption (wakeup_preempt_entity)
    # ------------------------------------------------------------------
    def check_preempt_wakeup(self, core: "Core", woken: "Task", now: float) -> bool:
        if core.current is None:
            return False
        lag = self.curr_vruntime(core, now) - woken.vruntime
        return lag > self.wakeup_granularity

    # ------------------------------------------------------------------
    # Accounting and slices
    # ------------------------------------------------------------------
    def charge(self, task: "Task", core: "Core", delta: float, now: float) -> None:
        """AMP-blind accounting: wall time is virtual time on any core.

        Adds ``delta`` itself, bit-equal to ``delta * 1.0``; a policy that
        scales the charge overrides this method.
        """
        task.vruntime += delta

    def slice_for(self, task: "Task", core: "Core") -> float:
        share = self.sched_latency / (core.rq.nr_running + 1)
        # == max(self.min_granularity, share)
        return share if share > self.min_granularity else self.min_granularity
