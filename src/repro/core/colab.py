"""The COLAB scheduler: coordinated multi-factor scheduling for AMPs.

:class:`COLABScheduler` wires the four collaborating pieces behind the
standard scheduler interface:

===========================  ==========================================
Scheduler hook               COLAB component
===========================  ==========================================
``on_label_tick``            :class:`~repro.core.labeler.MultiFactorLabeler`
``select_core``              :class:`~repro.core.allocator.HierarchicalRRAllocator`
``pick_next``                :class:`~repro.core.selector.BiasedGlobalSelector`
``charge`` / ``slice_for``   :class:`~repro.core.preemption.ScaleSlicePolicy`
``check_preempt_wakeup``     CFS-style vruntime lag on the *scaled* clock
===========================  ==========================================

The contrast with WASH (one greedy mixed ranking, affinity-only control)
is architectural: COLAB routes the *speedup* factor to the allocator, the
*blocking* factor to the selector, and the *fairness* factor to the
scaled virtual clock, so e.g. a low-speedup bottleneck thread is placed on
a little core (not fighting for big-core slots) yet still runs first
there -- the motivating example's β1.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.allocator import HierarchicalRRAllocator
from repro.core.labeler import LabelerConfig, MultiFactorLabeler
from repro.core.preemption import ScaleSlicePolicy
from repro.core.selector import BiasedGlobalSelector
from repro.model.speedup import (
    OracleSpeedupModel,
    PredictionCache,
    SpeedupEstimator,
)
from repro.obs.tracer import EventKind
from repro.schedulers.base import Scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.task import Task
    from repro.sim.core import Core
    from repro.sim.machine import Machine


class COLABScheduler(Scheduler):
    """Collaborative multi-factor scheduler (the paper's contribution)."""

    name = "colab"
    reads_counters = True

    def __init__(
        self,
        estimator: SpeedupEstimator | None = None,
        label_period_ms: float = 10.0,
        labeler_config: LabelerConfig | None = None,
        scale_slice: bool = True,
        sched_latency: float = 6.0,
        min_granularity: float = 0.75,
        wakeup_granularity: float = 1.0,
        selector: BiasedGlobalSelector | None = None,
    ) -> None:
        """Create a COLAB instance.

        Args:
            estimator: Runtime speedup model; defaults to a mildly noisy
                oracle (experiments pass the trained Table 2 model).
            label_period_ms: Labeling period (paper: 10 ms).
            labeler_config: Thresholds of the labeling rule.
            scale_slice: Ablation switch for speedup-scaled accounting.
            sched_latency: CFS-inherited target latency (ms).
            min_granularity: CFS-inherited slice floor (ms).
            wakeup_granularity: Vruntime lag bound for wakeup preemption.
            selector: Custom thread selector (ablation hook).
        """
        super().__init__()
        self.estimator = estimator or OracleSpeedupModel(noise_std=0.1, seed=11)
        self.label_period_ms = label_period_ms
        self.labeler = MultiFactorLabeler(self.estimator, labeler_config)
        self.selector = selector or BiasedGlobalSelector()
        self.policy = ScaleSlicePolicy(
            sched_latency=sched_latency,
            min_granularity=min_granularity,
            wakeup_granularity=wakeup_granularity,
            enabled=scale_slice,
        )
        self.allocator: HierarchicalRRAllocator | None = None
        #: Memo for prediction-derived charge scales, invalidated on every
        #: labeling pass.
        self._pred_cache = PredictionCache()

    # ------------------------------------------------------------------
    def attach(self, machine: "Machine") -> None:
        super().attach(machine)
        self.allocator = HierarchicalRRAllocator(
            machine.big_cores, machine.little_cores
        )

    def label_period(self) -> float | None:
        return self.label_period_ms

    def on_label_tick(self, now: float) -> None:
        machine = self._require_machine()
        self.labeler.label(machine.tasks)
        # Labels (and thus predicted speedups) just changed: every memoized
        # prediction-derived value is now stale.
        self._pred_cache.bump()

    # ------------------------------------------------------------------
    # Core allocation: hierarchical round-robin by label
    # ------------------------------------------------------------------
    def select_core(self, task: "Task", now: float) -> "Core":
        """Hierarchical RR with an idle-first override.

        Section 3.1 requires the allocator to "achieve relative fairness
        on AMPs by efficiently sharing heterogeneous hardware and avoiding
        idle resource as much as possible", so a completely idle core
        (no current task, empty runqueue) takes precedence over the
        round-robin cursor -- preferring an idle core of the labeled
        cluster, then any idle core.  When nothing is idle the pure
        Algorithm 1 round-robin applies.
        """
        if self.allocator is None:
            raise RuntimeError("COLAB not attached")
        machine = self._require_machine()
        preferred = self.allocator.cluster_for(task)
        idle_preferred = [
            c for c in preferred if c.current is None and not c.rq
        ]
        if idle_preferred:
            return idle_preferred[0]
        idle_any = [
            c for c in machine.cores if c.current is None and not c.rq
        ]
        if idle_any:
            return idle_any[0]
        return self.allocator.allocate(task)

    # ------------------------------------------------------------------
    # Thread selection: biased-global max-blocking
    # ------------------------------------------------------------------
    def pick_next(self, core: "Core", now: float) -> "Task | None":
        machine = self._require_machine()
        task = self.selector.pick(machine, core, now)
        if task is not None:
            decision = self.selector.decisions
            # Mirror decision counters into the common stats block.
            self.stats.local_picks = decision["local"]
            self.stats.steals = decision["cluster"] + decision["global"]
            tracer = machine.obs.tracer
            if tracer.enabled:
                tracer.emit(
                    now, EventKind.DECISION,
                    core_id=core.core_id, tid=task.tid, name=task.name,
                    op="colab_pick", tier=self.selector.last_decision,
                    blocking=task.blocking_level,
                    speedup=task.predicted_speedup,
                    label=task.core_label.name,
                    vruntime=task.vruntime,
                )
        return task

    def sanitize_invariants(self, machine) -> list[str]:
        """Every dispatch maps to exactly one non-idle selector tier."""
        problems = super().sanitize_invariants(machine)
        decisions = self.selector.decisions
        accounted = (
            decisions["local"] + decisions["cluster"]
            + decisions["global"] + decisions["preempt_little"]
        )
        if self.stats.picks != accounted:
            problems.append(
                f"colab: {self.stats.picks} picks but selector tiers "
                f"account for {accounted} "
                f"({ {k: v for k, v in sorted(decisions.items())} })"
            )
        return problems

    def observe(self) -> tuple[dict[str, float], dict[str, float]]:
        """Add the decision-tier mix, labeling passes and memo counters."""
        counters, gauges = super().observe()
        for tier, count in self.selector.decisions.items():
            counters[f"colab.pick.{tier}"] = count
        counters["colab.label_passes"] = self.labeler.passes
        counters["model.pred_cache.hits"] = float(self._pred_cache.hits)
        counters["model.pred_cache.misses"] = float(self._pred_cache.misses)
        return counters, gauges

    # ------------------------------------------------------------------
    # Scale-slice preemption and equal-progress accounting
    # ------------------------------------------------------------------
    def _charge_scale(self, task: "Task", core: "Core") -> float:
        cache = self._pred_cache
        is_big = core.is_big
        scale = cache.get(task.tid, is_big)
        if scale is None:
            scale = cache.put(
                task.tid, is_big, self.policy.charge_scale(task, core)
            )
        return scale

    def charge(self, task: "Task", core: "Core", delta: float, now: float) -> None:
        task.vruntime += delta * self._charge_scale(task, core)

    def slice_for(self, task: "Task", core: "Core") -> float:
        # Mirrors ScaleSlicePolicy.slice_for with the prediction-derived
        # divisor memoized: on big cores the divisor max(1, predicted)
        # is exactly the charge scale, so the same cache entry serves both.
        policy = self.policy
        nr_running = len(core.rq) + 1
        base = max(policy.min_granularity, policy.sched_latency / nr_running)
        if not (policy.enabled and core.is_big):
            return base
        return max(
            policy.min_granularity / 2, base / self._charge_scale(task, core)
        )

    def check_preempt_wakeup(self, core: "Core", woken: "Task", now: float) -> bool:
        """CFS-style lag check on the speedup-scaled virtual clock.

        A waking thread with much less (scaled) virtual time than the
        running one preempts it; additionally a critical waking thread
        (higher blocking than the running one) preempts on big cores,
        implementing "accelerating bottlenecks ... as soon as possible".
        """
        current = core.current
        if current is None:
            return False
        lag = self.curr_vruntime(core, now) - woken.vruntime
        if lag > self.policy.wakeup_granularity:
            return True
        if core.is_big and woken.blocking_level > current.blocking_level:
            return lag > 0.0
        return False

    # ------------------------------------------------------------------
    # Enqueue: CFS-compatible vruntime placement
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
        rq = core.rq
        if is_new:
            task.vruntime = max(task.vruntime, rq.min_vruntime)
        elif is_wakeup:
            task.vruntime = max(
                task.vruntime, rq.min_vruntime - self.policy.sched_latency / 2
            )
        rq.enqueue(task)
        running = core.current.vruntime if core.current is not None else None
        rq.update_min_vruntime(running)
