"""The multi-factor labeler (Section 3.2, "Labels for Core Allocation").

Every labeling period COLAB refreshes each thread's predicted speedup and
blocking level, then assigns a core-allocation label:

* **BIG** -- threads with high predicted big-vs-little speedup: they get
  high priority on big cores;
* **LITTLE** -- threads with *both* low predicted speedup and low blocking
  level (non-critical threads): they get high priority on little cores and
  stay out of the big cores' way;
* **ANY** -- everything else: allocated round-robin over all cores to keep
  both clusters equally occupied.

The paper gives the rule but not numeric thresholds, so they are explicit,
documented parameters here (:class:`LabelerConfig`).  Defaults were chosen
against the modelled speedup range [1.0, 2.9]: "high speedup" means the
thread gains at least ~85% from a big core, "low" means under ~45%, and
"low blocking" means it caused less than 50 microseconds of waiting per
10 ms window -- effectively not a bottleneck.

Thread-selection labels need no extra state: the selector reads the same
smoothed ``blocking_level`` directly (Section 3.2, "Labels for Thread
Selection": the priority of a blocking thread is the same whether the
issuing core is big or little).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.kernel.task import CoreLabel
from repro.model.speedup import SpeedupEstimator
from repro.schedulers.labeling import refresh_estimates

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.task import Task


@dataclass(frozen=True)
class LabelerConfig:
    """Free parameters of the labeling rule (not specified by the paper)."""

    #: Predicted speedup at or above which a thread is labeled BIG.
    speedup_high: float = 1.85
    #: Predicted speedup at or below which a thread counts as low-speedup.
    speedup_low: float = 1.45
    #: Blocking level (ms caused-wait per window, smoothed) below which a
    #: thread counts as non-critical.
    blocking_low: float = 0.05


class MultiFactorLabeler:
    """Periodically refreshes estimates and assigns core-allocation labels."""

    def __init__(
        self,
        estimator: SpeedupEstimator,
        config: LabelerConfig | None = None,
    ) -> None:
        self.estimator = estimator
        self.config = config or LabelerConfig()
        #: Labeling passes performed (diagnostics).
        self.passes = 0

    def label(self, tasks: Iterable["Task"]) -> None:
        """Refresh estimates and relabel every live task."""
        live = [t for t in tasks if not t.is_done]
        refresh_estimates(live, self.estimator, policy="colab")
        for task in live:
            task.core_label = self.classify(task)
        self.passes += 1

    def classify(self, task: "Task") -> CoreLabel:
        """Pure labeling rule for one task (exposed for unit tests)."""
        cfg = self.config
        if task.predicted_speedup >= cfg.speedup_high:
            return CoreLabel.BIG
        if (
            task.predicted_speedup <= cfg.speedup_low
            and task.blocking_level < cfg.blocking_low
        ):
            return CoreLabel.LITTLE
        return CoreLabel.ANY
