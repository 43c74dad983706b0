"""ARM big.LITTLE Global Task Scheduling (GTS) — extension baseline.

The paper's related-work section (Table 1, row "ARM [11]") describes ARM's
GTS: "ARM GTS only controls the affinity of threads based on each
thread's load average.  High load threads run on big cores, low load
threads run on little cores.  GTS does not handle other aspects of
heterogeneous scheduling, such as fairness and inter-thread
communication."

This module implements that policy as a fourth scheduler so the library
can reproduce the qualitative comparison: like WASH it only steers
affinity on top of CFS, but its signal is *load average* (how busy the
thread keeps a CPU) rather than core sensitivity or criticality — a
compute-bound but core-insensitive thread looks exactly as "big-worthy"
as a high-speedup one.

Load tracking approximates per-entity load averages: each labeling period
a thread's utilisation is the fraction of the window it was not blocked
(``1 - own_wait_delta / window``), smoothed with an EMA.  Migration uses
the up/down hysteresis thresholds of ARM's reference implementation
(fractions of full load).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.schedulers.cfs import CFSScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.task import Task


class GTSScheduler(CFSScheduler):
    """Load-average-driven affinity on top of CFS (ARM GTS model)."""

    name = "gts"

    def __init__(
        self,
        label_period_ms: float = 10.0,
        up_threshold: float = 0.7,
        down_threshold: float = 0.3,
        load_alpha: float = 0.5,
        **cfs_kwargs,
    ) -> None:
        """Create a GTS instance.

        Args:
            label_period_ms: Load-average refresh period.
            up_threshold: Smoothed utilisation at or above which a thread
                is migrated up to the big cluster.
            down_threshold: Utilisation at or below which it is migrated
                down to the little cluster.
            load_alpha: EMA weight of the newest utilisation window.
            **cfs_kwargs: Forwarded to :class:`CFSScheduler`.
        """
        super().__init__(**cfs_kwargs)
        self.label_period_ms = label_period_ms
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold
        self.load_alpha = load_alpha
        #: tid -> smoothed load average in [0, 1].
        self._load: dict[int, float] = {}
        #: tid -> own_wait_time at the previous window boundary.
        self._last_wait: dict[int, float] = {}
        self._last_tick: float = 0.0

    # ------------------------------------------------------------------
    def label_period(self) -> float | None:
        return self.label_period_ms

    def load_of(self, task: "Task") -> float:
        """Current smoothed load average (1.0 until first window closes)."""
        return self._load.get(task.tid, 1.0)

    def on_label_tick(self, now: float) -> None:
        machine = self._require_machine()
        window = now - self._last_tick
        self._last_tick = now
        if window <= 0 or not machine.big_cores or not machine.little_cores:
            return
        big_ids = frozenset(c.core_id for c in machine.big_cores)
        little_ids = frozenset(c.core_id for c in machine.little_cores)
        for task in machine.tasks:
            if task.is_done:
                continue
            previous_wait = self._last_wait.get(task.tid, 0.0)
            waited = task.own_wait_time - previous_wait
            self._last_wait[task.tid] = task.own_wait_time
            utilisation = max(0.0, min(1.0, 1.0 - waited / window))
            load = self._load.get(task.tid)
            if load is None:
                load = utilisation
            else:
                load = (1 - self.load_alpha) * load + self.load_alpha * utilisation
            self._load[task.tid] = load

            if load >= self.up_threshold:
                new_affinity = big_ids
            elif load <= self.down_threshold:
                new_affinity = little_ids
            else:
                new_affinity = task.affinity  # hysteresis band: keep
            if task.affinity != new_affinity:
                task.affinity = new_affinity
                self.stats.affinity_updates += 1
            self._enforce(task, now)

    def observe(self) -> tuple[dict[str, float], dict[str, float]]:
        """Add the load-tracking view: mean/max smoothed load averages."""
        counters, gauges = super().observe()
        if self._load:
            loads = list(self._load.values())
            gauges["gts.mean_load"] = sum(loads) / len(loads)
            gauges["gts.max_load"] = max(loads)
            gauges["gts.tracked_tasks"] = len(loads)
        return counters, gauges

    def sanitize_invariants(self, machine) -> list[str]:
        """GTS masks are always one whole cluster (big or little)."""
        problems = super().sanitize_invariants(machine)
        big_ids = frozenset(c.core_id for c in machine.big_cores)
        little_ids = frozenset(c.core_id for c in machine.little_cores)
        for task in machine.tasks:
            if task.affinity is not None and task.affinity not in (
                big_ids, little_ids,
            ):
                problems.append(
                    f"gts: task {task.name} has affinity "
                    f"{sorted(task.affinity)}, expected one full cluster"
                )
        return problems

    def _enforce(self, task: "Task", now: float) -> None:
        """Migrate a queued/running task off a cluster its mask forbids."""
        machine = self._require_machine()
        if task.affinity is None:
            return
        if task.rq_core_id is not None and task.rq_core_id not in task.affinity:
            machine.migrate_queued(task, self.select_core(task, now), now)
        elif task.running_on is not None and task.running_on not in task.affinity:
            core = machine.cores[task.running_on]
            moved = machine.preempt_running(core, now)
            target = self.select_core(moved, now)
            self.enqueue(target, moved, now, is_new=False)
            machine.request_dispatch(target)
