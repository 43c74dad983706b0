"""Evaluation metrics of Section 5.1 (H_NTT / H_ANTT / H_STP) and Jain's
fairness index over per-application slowdowns."""

from repro.metrics.baselines import BaselineCache
from repro.metrics.turnaround import (
    fairness_index,
    geomean,
    h_antt,
    h_ntt,
    h_stp,
    jains_index,
    normalize_to,
)

__all__ = [
    "BaselineCache",
    "fairness_index",
    "geomean",
    "h_antt",
    "h_ntt",
    "h_stp",
    "jains_index",
    "normalize_to",
]
