"""Speedup-based scale-slice preemption (Section 4.1, equal progress).

CFS preemption is driven by virtual runtime: whenever a task is enqueued,
``wakeup_preempt_entity`` compares vruntime lag against a bound.  The
paper keeps this machinery but scales the virtual clock: "we apply our
runtime speedup model to update the vruntime of the task by dividing it
... by its speedup value if the triggering core is a big core" -- i.e. a
thread running on a big core burns virtual time *faster* in proportion to
the benefit it receives there.

Consequences reproduced here:

* :meth:`ScaleSlicePolicy.charge_scale` -- on big cores vruntime advances
  at ``predicted_speedup`` per wall millisecond, on little cores at 1.0,
  so equal vruntime means (approximately) equal *progress*, not equal
  time;
* :meth:`ScaleSlicePolicy.slice_for` -- "the slices of threads on big
  cores are relatively shorter than on little cores", dividing the CFS
  slice by the predicted speedup; the selector therefore triggers more
  often on big cores and swaps in other critical threads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.task import Task
    from repro.sim.core import Core


class ScaleSlicePolicy:
    """Vruntime/slice scaling used by COLAB to equalise progress on AMPs."""

    def __init__(
        self,
        sched_latency: float = 6.0,
        min_granularity: float = 0.75,
        wakeup_granularity: float = 1.0,
        enabled: bool = True,
    ) -> None:
        """Create the scaling policy.

        Args:
            sched_latency: CFS target latency in ms (slice numerator).
            min_granularity: Slice floor in ms.
            wakeup_granularity: Vruntime lag bound for wakeup preemption.
            enabled: Ablation switch; when False the policy degenerates to
                plain CFS accounting (equal time instead of equal
                progress).
        """
        self.sched_latency = sched_latency
        self.min_granularity = min_granularity
        self.wakeup_granularity = wakeup_granularity
        self.enabled = enabled

    def charge_scale(self, task: "Task", core: "Core") -> float:
        """Virtual-time units per wall millisecond for ``task`` on ``core``."""
        if self.enabled and core.is_big:
            return max(1.0, task.predicted_speedup)
        return 1.0

    def slice_for(self, task: "Task", core: "Core") -> float:
        """Maximum slice; shortened on big cores by the predicted speedup."""
        nr_running = core.rq.nr_running + 1
        base = max(self.min_granularity, self.sched_latency / nr_running)
        if self.enabled and core.is_big:
            return max(
                self.min_granularity / 2, base / max(1.0, task.predicted_speedup)
            )
        return base
