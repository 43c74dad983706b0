"""Metrics registry: counters, gauges, histograms, time-weighted values.

A machine built with ``ObsConfig(metrics=True)`` builds a
:class:`MachineMetrics` probe and attaches it to its observer seam
(:mod:`repro.obs.probe`): it feeds its own :class:`MetricsRegistry` from the runqueue and futex transitions and, at
the end of the run, fills it from the machine's state and the
scheduler's :meth:`~repro.schedulers.base.Scheduler.observe` reading.
The registry is snapshotted into ``RunResult.metrics`` so every run
carries its own metrics catalogue:

* **counters** -- monotonically increasing totals (migrations, futex
  waits, wakeup preemptions, ...);
* **gauges** -- last-written values (per-core utilisation, makespan,
  vruntime spread, ...);
* **histograms** -- full-resolution observation sets with percentile
  summaries (futex wait times, slice lengths);
* **time-weighted values** -- quantities integrated over simulated time
  (runqueue depth), reporting the time-weighted mean rather than the
  per-update mean.

A run without metrics builds no :class:`MachineMetrics` and no registry,
so its hot paths do no metrics work at all.
"""

from __future__ import annotations

from repro.errors import ExperimentError
from repro.obs.probe import DEQUEUE, ENQUEUE, FUTEX_WAKE, Probe
from repro.obs.timeseries import exact_percentile


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Raw-observation histogram with interpolated percentiles.

    Simulated runs produce at most a few hundred thousand observations
    per metric, so keeping the raw values (rather than fixed buckets) is
    affordable and makes the percentile math exact.
    """

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: list[float] = []

    def observe(self, value: float) -> None:
        self._values.append(value)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return sum(self._values)

    def mean(self) -> float:
        if not self._values:
            return 0.0
        return sum(self._values) / len(self._values)

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile, ``q`` in [0, 100].

        Raises:
            ExperimentError: if ``q`` is out of range or no observations
                were recorded.
        """
        if not 0.0 <= q <= 100.0:
            raise ExperimentError(f"percentile {q} outside [0, 100]")
        if not self._values:
            raise ExperimentError("percentile of an empty histogram")
        return exact_percentile(sorted(self._values), q)

    def summary(self) -> dict:
        """JSON-ready summary (count / total / mean / percentiles / max)."""
        if not self._values:
            return {"count": 0, "total": 0.0, "mean": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean(),
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
            "min": min(self._values),
            "max": max(self._values),
        }


class TimeWeighted:
    """A value integrated over simulated time (e.g. runqueue depth).

    Each :meth:`update` closes the interval since the previous update at
    the *old* value, then installs the new one; :meth:`mean` is therefore
    the time-weighted average, which is the right notion of "mean depth"
    for a queue sampled at irregular state changes.
    """

    __slots__ = ("_last_time", "_last_value", "_area", "_elapsed", "_max")

    def __init__(self, start_time: float = 0.0, start_value: float = 0.0) -> None:
        self._last_time = start_time
        self._last_value = start_value
        self._area = 0.0
        self._elapsed = 0.0
        self._max = start_value

    def update(self, now: float, value: float) -> None:
        """Install ``value`` effective at ``now`` (time must not go back)."""
        dt = now - self._last_time
        if dt > 0.0:
            self._area += self._last_value * dt
            self._elapsed += dt
        self._last_time = now
        self._last_value = value
        if value > self._max:
            self._max = value

    def finish(self, now: float) -> None:
        """Close the final interval at the end of the run."""
        self.update(now, self._last_value)

    def mean(self) -> float:
        if self._elapsed <= 0.0:
            return self._last_value
        return self._area / self._elapsed

    @property
    def max(self) -> float:
        return self._max

    def summary(self) -> dict:
        return {"mean": self.mean(), "max": self._max, "last": self._last_value}


class MetricsRegistry:
    """Namespace of named instruments for one run.

    Instruments are created on first access (``registry.counter("x")``)
    and appear in :meth:`snapshot` under their family.  Names use dotted
    paths, e.g. ``"core.0.utilization"`` -- see the metrics catalogue in
    EXPERIMENTS.md.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._time_weighted: dict[str, TimeWeighted] = {}

    # ------------------------------------------------------------------
    # Instrument factories
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram()
        return instrument

    def time_weighted(
        self, name: str, start_time: float = 0.0, start_value: float = 0.0
    ) -> TimeWeighted:
        instrument = self._time_weighted.get(name)
        if instrument is None:
            instrument = self._time_weighted[name] = TimeWeighted(
                start_time, start_value
            )
        return instrument

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready view of every instrument, grouped by family."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
            "time_weighted": {
                n: t.summary() for n, t in sorted(self._time_weighted.items())
            },
        }


class MachineMetrics(Probe):
    """Publishes one machine's run into its own registry (a metrics probe).

    During the run it integrates each runqueue's depth over simulated
    time and records every futex wait period; :meth:`finish` adds the
    end-of-run aggregates and snapshots the registry.
    """

    __slots__ = ("registry", "_clock", "_depth", "_wait_ms")

    kinds = frozenset((ENQUEUE, DEQUEUE, FUTEX_WAKE))

    def __init__(self, machine) -> None:
        self.registry = registry = MetricsRegistry()
        self._clock = machine.engine
        self._depth = [
            registry.time_weighted(f"rq.{core.core_id}.depth")
            for core in machine.cores
        ]
        self._wait_ms = registry.histogram("futex.wait_ms")

    def transition(self, kind: int, task, where, now, detail) -> None:
        if kind == ENQUEUE or kind == DEQUEUE:
            self._depth[where.core_id].update(self._clock.now, len(where))
        elif kind == FUTEX_WAKE:
            self._wait_ms.observe(now - where.since)

    def finish(self, machine, makespan: float, fields: dict) -> None:
        """Fill end-of-run aggregates and snapshot the registry.

        Dispatch, switch and migration totals are read from the counts
        the machine keeps anyway (every dispatch is one scheduler pick).
        """
        registry = self.registry
        cores = machine.cores
        registry.gauge("run.makespan_ms").set(makespan)
        registry.gauge("run.tasks").set(len(machine.tasks))
        busy_total = 0.0
        for core in cores:
            busy_total += core.busy_time
            utilization = core.busy_time / makespan if makespan > 0 else 0.0
            registry.gauge(f"core.{core.core_id}.utilization").set(utilization)
            registry.gauge(f"core.{core.core_id}.busy_ms").set(core.busy_time)
            registry.gauge(f"core.{core.core_id}.preemptions").set(
                core.preemptions
            )
        if cores and makespan > 0:
            registry.gauge("core.mean_utilization").set(
                busy_total / (makespan * len(cores))
            )
        total_migrations = sum(t.migrations for t in machine.tasks)
        if makespan > 0:
            registry.gauge("sched.migration_rate_per_s").set(
                total_migrations / (makespan / 1000.0)
            )
        live_vruntimes = [t.vruntime for t in machine.tasks]
        if live_vruntimes:
            registry.gauge("sched.vruntime_spread_ms").set(
                max(live_vruntimes) - min(live_vruntimes)
            )
        scheduler = machine.scheduler
        registry.counter("sched.dispatches").value = float(scheduler.stats.picks)
        registry.counter("sched.context_switches").value = float(
            sum(core.context_switches for core in cores)
        )
        registry.counter("sched.migrations").value = float(
            sum(core.migrations_in for core in cores)
        )
        futexes = machine.futexes
        registry.counter("futex.waits").value = float(futexes.total_waits)
        registry.counter("futex.wakes").value = float(futexes.total_wakes)
        registry.gauge("futex.total_wait_ms").set(self._wait_ms.total)
        depth_means = []
        for tracker in self._depth:
            tracker.finish(makespan)
            depth_means.append(tracker.mean())
        if depth_means:
            registry.gauge("rq.mean_depth").set(
                sum(depth_means) / len(depth_means)
            )
        engine = machine.engine
        registry.counter("engine.events.suppressed").value = float(
            machine.events_suppressed
        )
        registry.counter("engine.events.discarded").value = float(
            engine.discarded
        )
        registry.counter("engine.events.processed").value = float(
            engine.processed
        )
        counters, gauges = scheduler.observe()
        for name, value in vars(scheduler.stats).items():
            key = f"scheduler.{name}"
            if isinstance(value, (int, float)) and key not in counters:
                registry.gauge(key).set(value)
        for name, value in counters.items():
            registry.counter(name).value = value
        for name, value in gauges.items():
            registry.gauge(name).set(value)
        fields["metrics"] = registry.snapshot()
