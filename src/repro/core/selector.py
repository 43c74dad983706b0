"""The biased-global thread selector (Algorithm 1, bottom half).

::

    _thread_selector_(core_struct c){
        if !empty(c.rq)
            return max_block_(c.rq)
        if !empty(c.sched_domain.rq)
            return max_block_(c.sched_domain.rq)
        if c.cpu_mask == big
            return max_block_(c.sched_domain_little.cur)
        else return idle }

Selection is primarily by *blocking level* (thread criticality).  The
labels computed by the multi-factor labeler add the collaboration layer
of Section 3.2: a thread labeled BIG has "high priority on big cores", so
a big core choosing among ready threads prefers BIG-labeled ones (ordered
by blocking within the class) and a little core prefers the others --
this is what keeps big cores focused on "high speedup bottleneck threads"
while "little cores handle other low speedup bottlenecked threads", the
coordinated split of Section 3.1.  Within a class, ordering is pure
max-blocking; core sensitivity never reorders threads of the same class
("whether a thread can enjoy a high speedup from a big core is unrelated
to which runqueue it is on").

The search is biased-global, following the Linux sched-domain hierarchy
that the pseudo-code's ``sched_domain`` refers to (MC level = same
cluster, then the whole package): local runqueue, same-type cluster,
every runqueue ("big cores are allowed to go idle only when there is no
ready thread left" -- and an idle little core with overloaded big
runqueues would violate the allocator's no-idle-resources goal, so
littles also pull globally).  Finally a big core may preempt a thread
*running* on a little core to accelerate it; little cores never preempt
big cores.

Anti-thrash guards the pseudo-code leaves implicit: big-over-little
preemption carries a per-task cooldown and a worth-it filter (any
blocking, a BIG label, or enough predicted speedup to cover the migration
cost); without them, lock-heavy workloads degenerate into preemption
ping-pong between the clusters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.kernel.task import CoreLabel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.task import Task
    from repro.sim.core import Core
    from repro.sim.machine import Machine


class BiasedGlobalSelector:
    """Label-aware max-blocking selection with local/cluster/global bias."""

    def __init__(
        self,
        preempt_min_speedup: float = 1.1,
        preempt_cooldown_ms: float = 2.0,
        criticality: Callable[["Task"], float] | None = None,
        label_aware: bool = True,
        starvation_window: float = 0.5,
    ) -> None:
        """Create a selector.

        Args:
            preempt_min_speedup: A big core steals a little-running thread
                when that thread has any blocking level, a BIG label, or
                at least this predicted speedup (so the move pays for the
                migration cost).
            preempt_cooldown_ms: Minimum time between successive
                big-over-little preemptions of the same task.
            criticality: Alternative criticality metric (ablation hook);
                defaults to the smoothed futex caused-wait level.
            label_aware: Ablation switch; when False, selection ignores
                core-allocation labels and degenerates to pure
                max-blocking everywhere.
            starvation_window: Equal-progress guard (Section 3.1: "the
                thread selector should ensure the whole workload is in
                equal progress without penalizing any individual
                application").  Blocking priority only reorders tasks
                whose (speedup-scaled) vruntime is within this window of
                the queue head; a task lagging further behind is served
                first regardless of blocking, so low-blocking applications
                cannot starve behind pipeline bottlenecks.
        """
        self.preempt_min_speedup = preempt_min_speedup
        self.preempt_cooldown_ms = preempt_cooldown_ms
        self.criticality = criticality or (lambda t: t.blocking_level)
        self.label_aware = label_aware
        self.starvation_window = starvation_window
        self._last_preempted: dict[int, float] = {}
        #: Decision mix (diagnostics / tests).
        self.decisions = {
            "local": 0,
            "cluster": 0,
            "global": 0,
            "preempt_little": 0,
            "idle": 0,
        }
        #: Tier of the most recent pick ("local"/"cluster"/"global"/
        #: "preempt_little"/"idle"); consumed by the decision telemetry.
        self.last_decision: str = "idle"

    # ------------------------------------------------------------------
    # Selection keys
    # ------------------------------------------------------------------
    def selection_key(
        self, core: "Core", min_vruntime: float
    ) -> Callable[["Task"], tuple]:
        """Per-core-kind selection key (smaller is better).

        Three tiers: (1) the label preference -- a BIG-labeled thread has
        "high priority on big cores" (Section 3.2), so big cores prefer
        BIG-labeled threads and little cores prefer the rest; (2) the
        equal-progress guard -- within a label class, a task more than
        ``starvation_window`` of (speedup-scaled) vruntime *ahead* of the
        queue's most-starved task is demoted, so blocking priority can
        only reorder threads of roughly equal progress; (3) max-blocking
        with vruntime/tid tie-breaks.
        """

        def key(task: "Task") -> tuple:
            ahead = 0 if task.vruntime <= min_vruntime + self.starvation_window else 1
            if self.label_aware:
                if core.is_big:
                    mismatch = 0 if task.core_label is CoreLabel.BIG else 1
                else:
                    mismatch = 1 if task.core_label is CoreLabel.BIG else 0
            else:
                mismatch = 0
            return (mismatch, ahead, -self.criticality(task), task.vruntime, task.tid)

        return key

    def _rq_key(self, core: "Core", rq) -> Callable[["Task"], tuple]:
        """Selection key anchored at ``rq``'s most-starved vruntime."""
        head = rq.peek_min()
        min_vruntime = head.vruntime if head is not None else 0.0
        return self.selection_key(core, min_vruntime)

    # ------------------------------------------------------------------
    def pick(self, machine: "Machine", core: "Core", now: float) -> "Task | None":
        """Select (and dequeue) the next task for ``core``."""
        # 1. Local runqueue.
        local = core.rq.best(self._rq_key(core, core.rq))
        if local is not None:
            core.rq.dequeue(local)
            self._record("local")
            return local

        # 2. Same-type cluster runqueues (the core's MC sched domain).
        cluster = machine.big_cores if core.is_big else machine.little_cores
        candidate = self._best_from((c for c in cluster if c is not core), core)
        if candidate is not None:
            candidate_core, task = candidate
            candidate_core.rq.dequeue(task)
            self._record("cluster")
            return task

        # 3. The package-level domain: any ready thread anywhere.
        other = machine.little_cores if core.is_big else machine.big_cores
        candidate = self._best_from(other, core)
        if candidate is not None:
            candidate_core, task = candidate
            candidate_core.rq.dequeue(task)
            self._record("global")
            return task

        # 4. A big core may accelerate a thread running on a little core.
        if core.is_big:
            victim_core = self._little_preemption_victim(machine, now)
            if victim_core is not None:
                self._record("preempt_little")
                victim = machine.preempt_running(victim_core, now)
                self._last_preempted[victim.tid] = now
                return victim

        self.decisions["idle"] += 1
        self.last_decision = "idle"
        return None

    def _record(self, tier: str) -> None:
        """Count the decision tier and remember it for the telemetry."""
        self.decisions[tier] += 1
        self.last_decision = tier

    # ------------------------------------------------------------------
    def _best_from(self, cores, for_core: "Core") -> "tuple[Core, Task] | None":
        """Best queued task over ``cores``' runqueues.

        The starvation anchor is each donor queue's own minimum vruntime,
        so a queue whose head is badly starved exports that head first.
        An empty queue is skipped before its key closure is built.
        """
        best_key: tuple | None = None
        chosen: tuple["Core", "Task"] | None = None
        for other in cores:
            rq = other.rq
            if not rq.nr_running:
                continue
            key = self._rq_key(for_core, rq)
            task = rq.best(key)
            candidate = key(task)
            if best_key is None or candidate < best_key:
                best_key = candidate
                chosen = (other, task)
        return chosen

    def _little_preemption_victim(
        self, machine: "Machine", now: float
    ) -> "Core | None":
        """The little core whose running thread most deserves acceleration."""
        best_key: tuple[float, int] | None = None
        victim: "Core | None" = None
        for little in machine.little_cores:
            task = little.current
            if task is None:
                continue
            last = self._last_preempted.get(task.tid)
            if last is not None and now - last < self.preempt_cooldown_ms:
                continue
            blocking = self.criticality(task)
            worth_it = (
                blocking > 0.0
                or task.core_label is CoreLabel.BIG
                or task.predicted_speedup >= self.preempt_min_speedup
            )
            if not worth_it:
                continue
            key = (-blocking, little.core_id)
            if best_key is None or key < best_key:
                best_key = key
                victim = little
        return victim
