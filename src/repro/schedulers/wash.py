"""WASH re-implementation: the state-of-the-art multi-factor baseline.

WASH (Jibaja et al., "Portable performance on asymmetric multicore
processors", CGO 2016) handles core sensitivity, bottleneck acceleration
and fairness for general workloads -- but **controls only core affinity**.
It folds all three factors into a single mixed score per thread, pins the
top-scoring threads to the big cores, and leaves every other decision
(thread selection, preemption, in-queue ordering) to the underlying Linux
CFS.

The COLAB paper re-implements WASH inside the kernel with the same
heuristic but a simulator-fitted speedup model and uses it as its
state-of-the-art comparison; this class mirrors that re-implementation:

* every 10 ms it refreshes speedup/blocking estimates
  (:func:`repro.schedulers.labeling.refresh_estimates`),
* computes ``score = z(speedup) + z(blocking) - w_f * (big-share excess)``,
* gives every above-average thread a big-cores-only affinity mask and
  everyone else an unrestricted mask,
* eagerly migrates threads that sit on cores their new mask forbids.

Because *all* high-speedup and high-blocking threads head for the big
cores, they pile up in big-core runqueues under pressure -- the behaviour
the motivating example criticises and COLAB's coordinated labels avoid.
Everything else (selection, slices, wakeup preemption) is inherited
unchanged from :class:`~repro.schedulers.cfs.CFSScheduler`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.model.speedup import OracleSpeedupModel, SpeedupEstimator
from repro.obs.probe import DECISION
from repro.schedulers.cfs import CFSScheduler
from repro.schedulers.labeling import refresh_estimates

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.task import Task


def zscores(values: np.ndarray) -> np.ndarray:
    """Standard scores; zero vector when the population is constant."""
    array = np.asarray(values, dtype=float)
    std = array.std()
    if std <= 0.0:
        return np.zeros_like(array)
    return (array - array.mean()) / std


class WASHScheduler(CFSScheduler):
    """Affinity-only multi-factor heuristic on top of CFS."""

    name = "wash"
    reads_counters = True

    def __init__(
        self,
        estimator: SpeedupEstimator | None = None,
        label_period_ms: float = 10.0,
        speedup_weight: float = 1.0,
        blocking_weight: float = 1.0,
        fairness_weight: float = 0.5,
        pin_threshold: float = 0.5,
        **cfs_kwargs,
    ) -> None:
        """Create a WASH instance.

        Args:
            estimator: Runtime speedup model; defaults to a mildly noisy
                oracle (the experiment harness passes the trained Table 2
                model instead).
            label_period_ms: Heuristic refresh period (paper: 10 ms).
            speedup_weight: Weight of the core-sensitivity z-score.
            blocking_weight: Weight of the bottleneck z-score.
            fairness_weight: Weight of the big-core-share fairness
                correction (threads that already had more than their share
                of big-core time are demoted).
            pin_threshold: Mixed-score z-threshold above which a thread is
                pinned to the big cluster.  There is deliberately no
                capacity cap: when a workload has many high-speedup or
                blocking threads they all head to the big cores, the exact
                pile-up behaviour COLAB's motivating example criticises.
            **cfs_kwargs: Forwarded to :class:`CFSScheduler`.
        """
        super().__init__(**cfs_kwargs)
        self.estimator = estimator or OracleSpeedupModel(noise_std=0.1, seed=7)
        self.label_period_ms = label_period_ms
        self.speedup_weight = speedup_weight
        self.blocking_weight = blocking_weight
        self.fairness_weight = fairness_weight
        self.pin_threshold = pin_threshold

    # ------------------------------------------------------------------
    def label_period(self) -> float | None:
        return self.label_period_ms

    def on_label_tick(self, now: float) -> None:
        machine = self._require_machine()
        if not machine.big_cores or not machine.little_cores:
            # Symmetric machine (training runs): nothing to rank.
            return
        alive = [t for t in machine.tasks if not t.is_done]
        if not alive:
            return
        refresh_estimates(alive, self.estimator, policy=self.name)
        self._update_affinities(alive, now)

    # ------------------------------------------------------------------
    def _mixed_scores(self, tasks: list["Task"]) -> np.ndarray:
        """WASH's single greedy ranking mixing all three factors."""
        speedups = zscores(np.array([t.predicted_speedup for t in tasks]))
        blockings = zscores(np.array([t.blocking_level for t in tasks]))
        shares = np.array(
            [
                t.exec_time_by_kind["big"] / t.sum_exec_runtime
                if t.sum_exec_runtime > 0
                else 0.0
                for t in tasks
            ]
        )
        fairness = shares - shares.mean()
        return (
            self.speedup_weight * speedups
            + self.blocking_weight * blockings
            - self.fairness_weight * fairness
        )

    def _update_affinities(self, tasks: list["Task"], now: float) -> None:
        machine = self._require_machine()
        big_ids = frozenset(c.core_id for c in machine.big_cores)
        scores = self._mixed_scores(tasks)
        hook = machine.hooks[DECISION]
        for task, score in zip(tasks, scores):
            new_affinity = big_ids if score > self.pin_threshold else None
            if task.affinity != new_affinity:
                task.affinity = new_affinity
                self.stats.affinity_updates += 1
                if hook is not None:
                    hook(DECISION, task, task.last_core_id, now, {
                        "op": "wash_affinity",
                        "pinned_big": new_affinity is not None,
                        "score": float(score),
                        "speedup": task.predicted_speedup,
                        "blocking": task.blocking_level,
                    })
            self._enforce_affinity(task, now)

    def observe(self) -> tuple[dict[str, float], dict[str, float]]:
        """Add the affinity view: how many live tasks are pinned big."""
        counters, gauges = super().observe()
        pinned = 0
        for task in self._require_machine().tasks:
            if not task.is_done and task.affinity is not None:
                pinned += 1
        gauges["wash.pinned_tasks"] = pinned
        return counters, gauges

    def sanitize_invariants(self, machine) -> list[str]:
        """WASH only ever pins to the whole big cluster or unpins."""
        problems = super().sanitize_invariants(machine)
        big_ids = frozenset(c.core_id for c in machine.big_cores)
        for task in machine.tasks:
            if task.affinity is not None and task.affinity != big_ids:
                problems.append(
                    f"wash: task {task.name} has affinity "
                    f"{sorted(task.affinity)}, expected the big cluster "
                    f"{sorted(big_ids)} or no mask"
                )
        return problems

    def _enforce_affinity(self, task: "Task", now: float) -> None:
        """Eagerly move a task off a core its mask now forbids."""
        machine = self._require_machine()
        if task.affinity is None:
            return
        if task.rq_core_id is not None and task.rq_core_id not in task.affinity:
            target = self.select_core(task, now)
            machine.migrate_queued(task, target, now)
        elif task.running_on is not None and task.running_on not in task.affinity:
            core = machine.cores[task.running_on]
            moved = machine.preempt_running(core, now)
            target = self.select_core(moved, now)
            self.enqueue(target, moved, now, is_new=False)
            machine.request_dispatch(target)
