"""Dispatch-trace post-processing.

Traced runs (``MachineConfig(obs=ObsConfig(trace=True))``) record typed
:class:`~repro.obs.tracer.TraceEvent` records in ``RunResult.events``.
These helpers turn that stream into per-core occupancy timelines (the
ASCII Gantt view of ``examples/core_timeline.py``), core-utilisation
figures and migration summaries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.errors import ExperimentError
from repro.obs.tracer import dispatch_slices
from repro.sim.machine import RunResult


def occupancy_rows(
    result: RunResult,
    tid_to_app: dict[int, int],
    n_cores: int,
    buckets: int = 64,
) -> dict[int, list[int | None]]:
    """Bucketised per-core occupancy from a dispatch trace.

    Args:
        result: A run with a non-empty trace.
        tid_to_app: Mapping from task id to application id.
        n_cores: Number of cores in the run's topology.
        buckets: Number of time buckets to quantise the makespan into.

    Returns:
        ``core_id -> list of app ids (or None for idle)`` per bucket.
        A slice ends at its task's deschedule, so idle gaps stay None.

    Raises:
        ExperimentError: if the run carries no trace, has a zero-length
            makespan (nothing to bucketise), or ``buckets < 1``.
    """
    if not result.events:
        raise ExperimentError(
            "run has no trace; enable tracing via "
            "MachineConfig(obs=ObsConfig(trace=True))"
        )
    if buckets < 1:
        raise ExperimentError(f"buckets must be >= 1, got {buckets}")
    horizon = result.makespan
    if horizon <= 0:
        raise ExperimentError(
            f"zero-duration run (makespan={horizon}); occupancy is undefined"
        )
    bucket_len = horizon / buckets
    rows: dict[int, list[int | None]] = {
        core: [None] * buckets for core in range(n_cores)
    }
    for start, end, core_id, tid, _name in dispatch_slices(result.events, horizon):
        first = min(buckets - 1, int(start / bucket_len))
        last = min(buckets - 1, int(end / bucket_len))
        app = tid_to_app.get(tid)
        for bucket in range(first, last + 1):
            rows[core_id][bucket] = app
    return rows


def core_utilization(result: RunResult) -> dict[int, float]:
    """Busy fraction per core over the makespan."""
    if result.makespan <= 0:
        raise ExperimentError("zero-length run")
    return {
        core: busy / result.makespan
        for core, busy in result.core_busy_time.items()
    }


@dataclass
class MigrationSummary:
    """Aggregate migration behaviour of one run."""

    total: int
    per_app: dict[str, int]
    most_migrated_task: str
    most_migrated_count: int


def migration_summary(result: RunResult) -> MigrationSummary:
    """Summarise cross-core migrations per application and per task."""
    per_app: Counter[str] = Counter()
    worst_name = ""
    worst_count = -1
    for task in result.tasks:
        app = result.app_names.get(task.app_id, str(task.app_id))
        per_app[app] += task.migrations
        if task.migrations > worst_count:
            worst_count = task.migrations
            worst_name = task.name
    return MigrationSummary(
        total=result.total_migrations,
        per_app=dict(per_app),
        most_migrated_task=worst_name,
        most_migrated_count=max(worst_count, 0),
    )
