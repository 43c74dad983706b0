"""Scheduling policies under evaluation.

* :mod:`repro.schedulers.cfs` -- the AMP-agnostic Linux CFS baseline;
* :mod:`repro.schedulers.wash` -- the WASH re-implementation (multi-factor
  heuristic controlling *core affinity only*, selection left to CFS);
* :mod:`repro.core.colab` -- the paper's contribution (imported here for
  convenience so all three policies are available from one namespace).
"""

from repro.schedulers.base import Scheduler, SchedulerStats
from repro.schedulers.cfs import CFSScheduler
from repro.schedulers.gts import GTSScheduler
from repro.schedulers.wash import WASHScheduler

#: Every name :func:`make_scheduler` accepts (case-insensitive).
SCHEDULER_NAMES = ("linux", "cfs", "wash", "colab", "gts")


def make_scheduler(name: str, **kwargs) -> Scheduler:
    """Build a scheduler by its evaluation name.

    Names: "linux"/"cfs", "wash", "colab", and the extension baseline
    "gts".  Extra keyword arguments are forwarded to the policy
    constructor (e.g. ``estimator=`` for WASH and COLAB).
    """
    from repro.core.colab import COLABScheduler

    lowered = name.lower()
    if lowered in ("linux", "cfs"):
        return CFSScheduler(**kwargs)
    if lowered == "wash":
        return WASHScheduler(**kwargs)
    if lowered == "colab":
        return COLABScheduler(**kwargs)
    if lowered == "gts":
        return GTSScheduler(**kwargs)
    raise ValueError(
        f"unknown scheduler {name!r}; expected linux/wash/colab/gts"
    )


__all__ = [
    "CFSScheduler",
    "GTSScheduler",
    "SCHEDULER_NAMES",
    "Scheduler",
    "SchedulerStats",
    "WASHScheduler",
    "make_scheduler",
]
