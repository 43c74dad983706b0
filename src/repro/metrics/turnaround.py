"""Heterogeneous turnaround/throughput metrics (Section 5.1).

Classic ANTT/STP (Eyerman & Eeckhout) normalise each co-scheduled
application's turnaround by its isolated runtime.  On AMPs the isolated
runtime itself depends on scheduling (which threads got big cores), so
the paper fixes the baseline instead to the application's runtime **alone
on a system with only big cores** (T_i^SB):

.. math::

    H\\_ANTT = \\frac{1}{n} \\sum_i \\frac{T_i^M}{T_i^{SB}}, \\qquad
    H\\_STP  = \\sum_i \\frac{T_i^{SB}}{T_i^M}, \\qquad
    H\\_NTT  = \\frac{T^M}{T^{SB}}

Lower is better for H_ANTT/H_NTT; higher is better for H_STP.  Figures
5-9 additionally normalise each scheduler's metric to the Linux CFS value
for the same configuration and workload (:func:`normalize_to`).

H_ANTT averages slowdowns; it cannot distinguish "every app 1.5x slower"
from "one app 3x slower, the rest untouched".  The paper's fairness claim
("decisions should not penalize any application disproportionately") is
about the latter, so :func:`fairness_index` measures the slowdown
*distribution*: Jain's index (:func:`jains_index`) over per-app progress
rates, 1.0 = perfectly even, 1/n = maximally skewed.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from repro.errors import ExperimentError


def _validate(name: str, value: float) -> None:
    if value <= 0 or not math.isfinite(value):
        raise ExperimentError(f"{name} must be positive and finite, got {value}")


def h_ntt(turnaround: float, baseline: float) -> float:
    """Heterogeneous normalised turnaround time of a single application."""
    _validate("turnaround", turnaround)
    _validate("baseline", baseline)
    return turnaround / baseline


def _check_apps(
    turnarounds: Mapping[str, float], baselines: Mapping[str, float]
) -> None:
    """Both maps must name the same, non-empty set of applications."""
    if set(turnarounds) != set(baselines):
        raise ExperimentError(
            f"app sets differ: {sorted(turnarounds)} vs {sorted(baselines)}"
        )
    if not turnarounds:
        raise ExperimentError("empty workload")


def h_antt(turnarounds: Mapping[str, float], baselines: Mapping[str, float]) -> float:
    """Average H_NTT over the applications of one mix (lower is better).

    Args:
        turnarounds: app label -> turnaround in the co-scheduled mix.
        baselines: app label -> isolated big-only-system turnaround.

    Raises:
        ExperimentError: if the key sets differ or any value is invalid.
    """
    _check_apps(turnarounds, baselines)
    return sum(
        h_ntt(turnarounds[app], baselines[app]) for app in turnarounds
    ) / len(turnarounds)


def h_stp(turnarounds: Mapping[str, float], baselines: Mapping[str, float]) -> float:
    """System throughput relative to isolated big-only runs (higher is better)."""
    _check_apps(turnarounds, baselines)
    return sum(baselines[app] / turnarounds[app] for app in turnarounds)


def jains_index(values: list[float]) -> float:
    """Jain's fairness index: (sum x)^2 / (n * sum x^2), in (0, 1].

    Applied to per-application *progress rates* (1/slowdown) so that 1.0
    means every application suffered equally from co-scheduling.
    """
    if not values:
        raise ExperimentError("empty values")
    if any(v <= 0 for v in values):
        raise ExperimentError("values must be positive")
    total = sum(values)
    squares = sum(v * v for v in values)
    return (total * total) / (len(values) * squares)


def fairness_index(
    turnarounds: Mapping[str, float], baselines: Mapping[str, float]
) -> float:
    """Jain's index over per-app progress rates (1 = perfectly fair).

    Raises:
        ExperimentError: if the key sets differ or any value is invalid.
    """
    _check_apps(turnarounds, baselines)
    return jains_index(
        [1.0 / h_ntt(turnarounds[app], baselines[app]) for app in turnarounds]
    )


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the aggregation the paper's figures use)."""
    items = list(values)
    if not items:
        raise ExperimentError("geomean of empty sequence")
    for value in items:
        _validate("geomean input", value)
    return math.exp(sum(math.log(v) for v in items) / len(items))


def normalize_to(values: Mapping[str, float], reference_key: str) -> dict[str, float]:
    """Divide every entry by the reference entry (paper: normalise to Linux)."""
    if reference_key not in values:
        raise ExperimentError(f"missing reference {reference_key!r}")
    reference = values[reference_key]
    _validate("reference", reference)
    return {key: value / reference for key, value in values.items()}
