"""Which observability facilities one run turns on.

:class:`ObsConfig` (``MachineConfig.obs``) switches three independent
facilities.  A switch that is off means the facility does not exist for
the run: the machine builds

* a :class:`~repro.obs.tracer.Tracer` (with attribution riding on it)
  only for ``trace``;
* a :class:`~repro.obs.metrics.MachineMetrics` probe, with its own
  registry, only for ``metrics``;
* a :class:`~repro.obs.profiling.Profiler` only for ``profile``,

and holds each directly (``machine.tracer`` / ``metrics`` / ``profiler``,
``None`` when off).  The tracer and the metrics probe sit behind the one
observer seam (:mod:`repro.obs.probe`) next to schedsan and the timeline
sampler; the profiler wraps the machine's hot callables.  The all-off
default attaches no observer and costs a run one ``is None`` check per
engine event and per hook site;
``benchmarks/bench_observer_overhead.py`` bounds what those guards cost.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ObsConfig:
    """Which observability facilities to enable for a run."""

    #: Record typed trace events (dispatches, migrations, decisions, ...).
    trace: bool = False
    #: Publish metrics (counters / gauges / histograms) into the result.
    metrics: bool = False
    #: Measure host wall-clock time of engine/scheduler/model hot paths.
    profile: bool = False
