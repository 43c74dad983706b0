"""The benchmark's workloads: which simulations each one runs, in order.

This module imports nothing from ``repro`` so the parent process can plan
runs without paying the program's import cost.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, replace

#: Uniform work scale of every simulation.  Periodic work (ticks, slice
#: expiries, COLAB/WASH/GTS labelling, time-series samples) grows with
#: simulated time, and so with the scale: on dense runs ``model.speedup``
#: takes 1.1 % of self time at 0.1, 1.9 % at 0.35 and 3.3 % at 1.0 (see
#: README.md).  0.35 keeps most of that work for 1.13x the host time of
#: 0.1; 1.0 would cost another 1.23x.
SCALE = 0.35

#: Expected digests are stored for input seeds ``0 .. N_INPUT_SEEDS-1``.
#: Seed 0 is the default (tuning) seed; the others are held out.
N_INPUT_SEEDS = 8

ALL_CONFIGS = ("2B2S", "2B4S", "4B2S", "4B4S")

EXPECTED_DIR = pathlib.Path(__file__).resolve().parent / "expected"

#: One simulation: (mix, config, scheduler, big cores first).
Run = tuple[str, str, str, bool]


@dataclass(frozen=True)
class Workload:
    """A closed-loop, single-client sweep: each run starts when the last ends."""

    name: str
    mixes: tuple[str, ...]
    configs: tuple[str, ...]
    schedulers: tuple[str, ...]
    #: Use a persistent result cache (fresh temp dir per sweep).
    persistent_cache: bool = False
    #: Trace, publish metrics, sample timeseries, sanitize and export each
    #: run (the ``repro trace`` / ``repro report`` path) instead of
    #: averaging runs into evaluation points.
    observed: bool = False
    #: Sweeps that set the run-time metrics (``run_ms_p50``/``p90``).  A
    #: fixed count keeps their estimator the same on fast and slow hosts;
    #: it is chosen so that they fit in ``run_seconds`` on a slow host.
    timed_sweeps: int = 1
    #: A trace run profiles only the first this many mixes (0: all), so
    #: that it fits the 180 s a benchmark run may take on a slow host.
    #: Their runs come first in the fixed order, so they keep their task
    #: ids and stored digests.
    traced_mixes: int = 0

    def points(self) -> list[tuple[str, str, str]]:
        """Evaluation points in the fixed sweep order."""
        return [
            (mix, config, scheduler)
            for mix in self.mixes
            for config in self.configs
            for scheduler in self.schedulers
        ]

    def runs(self) -> list[Run]:
        """Simulations in the fixed order: both core orders of each point."""
        return [
            (mix, config, scheduler, big_first)
            for mix, config, scheduler in self.points()
            for big_first in (True, False)
        ]

    def traced(self) -> Workload:
        """The part of the workload a trace run profiles."""
        if not self.traced_mixes:
            return self
        return replace(self, mixes=self.mixes[:self.traced_mixes])


WORKLOADS = {
    w.name: w
    for w in (
        # Mixes with >= 16 threads under the model-driven policies.
        Workload(
            "dense",
            mixes=(
                "Sync-2", "Sync-4", "NSync-2", "NSync-4", "Comm-2", "Comm-4",
                "Comp-2", "Comp-4", "Rand-1", "Rand-6", "Rand-7", "Rand-8",
                "Rand-9", "Rand-10",
            ),
            configs=ALL_CONFIGS,
            schedulers=("wash", "colab"),
            persistent_cache=True,
        ),
        # Mixes with <= 10 threads under the model-free policies.
        Workload(
            "sparse",
            mixes=(
                "Sync-1", "Sync-3", "NSync-1", "NSync-3", "Comm-1", "Comm-3",
                "Comp-1", "Comp-3", "Rand-2", "Rand-3", "Rand-4", "Rand-5",
            ),
            configs=ALL_CONFIGS,
            schedulers=("linux", "gts"),
            timed_sweeps=3,
        ),
        # Rand-1..10, ordered so that the traced first half holds both
        # deep (Rand-1, 6, 7) and shallow (Rand-2, 3) runqueues.
        Workload(
            "observed",
            mixes=(
                "Rand-1", "Rand-2", "Rand-6", "Rand-3", "Rand-7",
                "Rand-4", "Rand-8", "Rand-5", "Rand-9", "Rand-10",
            ),
            configs=("2B2S", "4B4S"),
            schedulers=("linux", "wash", "colab"),
            observed=True,
            traced_mixes=5,
        ),
    )
}


def input_seed(seed: int) -> int:
    """The experiment seed a benchmark ``--seed`` runs (one with stored digests)."""
    return seed % N_INPUT_SEEDS


def expected_path(workload: str, seed: int) -> pathlib.Path:
    """Stored digests of ``workload`` at input seed ``seed``."""
    return EXPECTED_DIR / f"{workload}-seed{seed}.json"
