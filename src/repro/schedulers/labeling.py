"""Shared periodic estimate refresh used by WASH and COLAB.

Both AMP-aware policies run a pass every 10 ms that, for every live
thread, reads the performance-counter window, updates the predicted
big-vs-little speedup through the runtime model, and folds the futex
caused-wait accumulated in the window into a smoothed blocking level.
The policies then diverge in how they *use* these estimates (a mixed
affinity ranking for WASH; separate allocation/selection labels for
COLAB), which is exactly the paper's point of comparison -- so the shared
measurement code lives here, once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.model.speedup import SpeedupEstimator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.task import Task

#: EMA weight of the newest window (0.5 = equal blend with history).
SPEEDUP_ALPHA = 0.5
BLOCKING_ALPHA = 0.5


def refresh_estimates(
    tasks: Iterable["Task"],
    estimator: SpeedupEstimator,
    speedup_alpha: float = SPEEDUP_ALPHA,
    blocking_alpha: float = BLOCKING_ALPHA,
) -> None:
    """Update ``predicted_speedup`` and ``blocking_level`` on every task.

    Windows are consumed (reset) so the next pass sees fresh deltas.  A
    window with too few instructions leaves the speedup estimate untouched
    (the thread barely ran; its counter ratios are noise).
    """
    for task in tasks:
        if task.is_done:
            continue
        window = task.counters.read_window(reset=True) if task.counters else {}
        estimate = estimator.estimate(task, window)
        if estimate is not None:
            if task.predicted_speedup <= 1.0:
                # First meaningful sample: adopt it outright instead of
                # blending with the uninformative initial value.
                task.predicted_speedup = estimate
            else:
                task.predicted_speedup = (
                    (1 - speedup_alpha) * task.predicted_speedup
                    + speedup_alpha * estimate
                )
        task.blocking_level = (
            (1 - blocking_alpha) * task.blocking_level
            + blocking_alpha * task.caused_wait_window
        )
        task.caused_wait_window = 0.0
