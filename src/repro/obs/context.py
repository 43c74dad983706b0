"""The per-run observability context: config + tracer + metrics + profiler.

One :class:`Observability` object accompanies each
:class:`~repro.sim.machine.Machine`.  It bundles the three independent
facilities :class:`ObsConfig` switches:

* :attr:`Observability.tracer` -- typed event trace
  (:mod:`repro.obs.tracer`);
* :attr:`Observability.metrics` -- metrics registry
  (:mod:`repro.obs.metrics`);
* :attr:`Observability.profiler` -- host wall-clock profiling
  (:mod:`repro.obs.profiling`).

The machine turns the enabled ones into observers behind its one probe
(:mod:`repro.obs.probe`) -- the tracer with attribution, and a
:class:`~repro.obs.metrics.MachineMetrics` probe, next to schedsan and
the timeline sampler -- and lets the profiler wrap its hot callables.
Disabled facilities are not attached at all, so the default-constructed,
all-off context attaches no observer and costs a run one ``is None``
check per engine event and per hook site;
``benchmarks/bench_observer_overhead.py`` bounds what the seam itself
costs.  Schedulers reach the tracer here for their DECISION records.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import Profiler
from repro.obs.tracer import Tracer


@dataclass(frozen=True)
class ObsConfig:
    """Which observability facilities to enable for a run."""

    #: Record typed trace events (dispatches, migrations, decisions, ...).
    trace: bool = False
    #: Publish metrics (counters / gauges / histograms) into the result.
    metrics: bool = False
    #: Measure host wall-clock time of engine/scheduler/model hot paths.
    profile: bool = False


class Observability:
    """The bundle of per-run observability facilities."""

    __slots__ = ("config", "tracer", "metrics", "profiler")

    def __init__(self, config: ObsConfig | None = None) -> None:
        self.config = config or ObsConfig()
        self.tracer = Tracer(enabled=self.config.trace)
        self.metrics = MetricsRegistry(enabled=self.config.metrics)
        self.profiler = Profiler(enabled=self.config.profile)
