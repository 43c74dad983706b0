"""Sim-time metrics timeline: deterministic fixed-cadence counter sampling.

Every other observability layer (tracer, metrics, attribution, ledger)
reports end-of-run aggregates; this module records *how the machine
evolved over simulated time*.  A :class:`TimeseriesSampler` observes the
engine clock -- never the wall clock -- at a fixed sim-time cadence and
folds each sample into fixed windows with exact min/max/mean/p50/p95
statistics, producing the per-phase rate series that sampled-simulation
techniques (Pac-Sim) and tail-latency analyses need as input.

Determinism contract
--------------------
The sampler is strictly read-only and pushes **no events**.  It is a
:class:`~repro.obs.probe.Probe` with only an ``event`` hook: the engine
calls it before each handler, and whenever the event would move the
clock across one or more sample boundaries the sampler records the
pre-event machine state for each crossed boundary.  Event sequence
numbers, heap ordering, RNG streams, and every behavioural outcome are
untouched, so :func:`repro.sim.digest.run_digest` is bit-identical with
sampling on or off (the observer-overhead bench and the obs test-suite
assert this for all four schedulers).  ``RunResult.timeseries`` is
correspondingly excluded from the digest and from cache fingerprints.

Series kinds
------------
* ``gauge`` -- instantaneous state sampled every tick (runqueue depth,
  cluster utilization, futex waiters, vruntime spread); windows carry
  exact ``min/max/mean/p50/p95`` over the window's samples.
* ``rate`` -- monotonic cumulative counters (migrations, preemptions,
  context switches, scheduler decision tiers); windows carry the
  per-window ``delta`` and ``rate_per_s``.
* ``ratio`` -- derived per-window ratios (prediction-cache hit rate);
  windows carry a single ``value``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.obs.probe import Probe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.machine import Machine

#: Bump when the snapshot layout changes shape.
TIMESERIES_SCHEMA_VERSION = 1

#: Cumulative counter names the hit-rate ratio series derives from.
_PRED_HITS = "model.pred_cache.hits"
_PRED_MISSES = "model.pred_cache.misses"
_PRED_HIT_RATE = "model.pred_cache.hit_rate"

#: Tick spacing of the sampler on the *simulated* clock (ms).
SAMPLE_PERIOD_MS = 1.0
#: Ticks aggregated into one window, so a window spans
#: ``SAMPLE_PERIOD_MS * SAMPLES_PER_WINDOW`` sim-ms.
SAMPLES_PER_WINDOW = 8


def exact_percentile(ordered: list[float], q: float) -> float:
    """Linear-interpolated percentile of pre-sorted values, ``q`` in [0, 100].

    The one interpolation in :mod:`repro.obs`: :meth:`repro.obs.metrics.
    Histogram.percentile` delegates here, so window statistics and
    end-of-run histograms agree on definitions.
    """
    if not ordered:
        raise SimulationError("percentile of an empty window")
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


class TimeseriesSampler(Probe):
    """Fixed-cadence, read-only sampler of one machine's evolving state.

    Part of the machine's probe when ``MachineConfig.timeseries`` is set.
    ``next_due`` is the next sample boundary on the simulated clock; a
    run without sampling pays one ``event is None`` check per event.
    """

    __slots__ = (
        "machine",
        "next_due",
        "_ticks",
        "_ticks_in_window",
        "_gauge_buf",
        "_counter_open",
        "_counter_last",
        "_gauge_windows",
        "_rate_windows",
        "_ratio_windows",
        "_finished",
    )

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        #: Next sample boundary (sim-ms); read by the engine's step guard.
        self.next_due = SAMPLE_PERIOD_MS
        self._ticks = 0
        self._ticks_in_window = 0
        self._gauge_buf: dict[str, list[float]] = {}
        self._counter_open: dict[str, float] = {}
        self._counter_last: dict[str, float] = {}
        self._gauge_windows: dict[str, list[dict]] = {}
        self._rate_windows: dict[str, list[dict]] = {}
        self._ratio_windows: dict[str, list[dict]] = {}
        self._finished = False

    # ------------------------------------------------------------------
    # Probe hooks
    # ------------------------------------------------------------------
    def event(self, event, now: float) -> None:
        """Sample every boundary the clock is about to cross."""
        if event.time >= self.next_due:
            self.on_clock_advance(event.time)

    def finish(self, machine, makespan: float, fields: dict) -> None:
        fields["timeseries"] = self.snapshot(makespan)

    def on_clock_advance(self, event_time: float) -> None:
        """Record every sample boundary in ``(now, event_time]``.

        Called from :meth:`event` *before* the clock advances, so each
        boundary observes the machine state that held since the previous
        event -- the left limit, which is the state in effect at the
        boundary instant.  Boundary times are exact tick multiples
        (``SAMPLE_PERIOD_MS * k``), never accumulated sums, so cadence never
        drifts with float error.
        """
        next_due = self.next_due
        while next_due <= event_time:
            self._sample()
            self._ticks += 1
            self._ticks_in_window += 1
            if self._ticks_in_window == SAMPLES_PER_WINDOW:
                self._close_window(
                    SAMPLE_PERIOD_MS * (self._ticks - SAMPLES_PER_WINDOW),
                    SAMPLE_PERIOD_MS * self._ticks,
                )
            next_due = SAMPLE_PERIOD_MS * (self._ticks + 1)
        self.next_due = next_due

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _observe_gauge(self, name: str, value: float) -> None:
        buf = self._gauge_buf.get(name)
        if buf is None:
            buf = self._gauge_buf[name] = []
        buf.append(value)

    def _observe_counter(self, name: str, cumulative: float) -> None:
        # Counters are cumulative-from-zero, so a series first observed
        # mid-run still gets its full count attributed to its first
        # window instead of silently losing it.
        self._counter_open.setdefault(name, 0.0)
        self._counter_last[name] = cumulative

    def _sample(self) -> None:
        """Observe the machine once.  Strictly read-only."""
        machine = self.machine
        cores = machine.cores
        depth_sum = 0.0
        busy_big = 0
        busy_little = 0
        migrations = 0
        switches = 0
        preemptions = 0
        for core in cores:
            depth = float(len(core.rq))
            self._observe_gauge(f"rq.depth.core{core.core_id}", depth)
            depth_sum += depth
            if core.current is not None:
                if core.is_big:
                    busy_big += 1
                else:
                    busy_little += 1
            migrations += core.migrations_in
            switches += core.context_switches
            preemptions += core.preemptions
        if cores:
            self._observe_gauge("rq.depth.mean", depth_sum / len(cores))
        if machine.big_cores:
            self._observe_gauge(
                "util.big", busy_big / len(machine.big_cores)
            )
        if machine.little_cores:
            self._observe_gauge(
                "util.little", busy_little / len(machine.little_cores)
            )
        self._observe_gauge(
            "futex.waiters", float(machine.futexes.waiter_total())
        )
        lo = None
        hi = None
        for task in machine.tasks:
            if task.is_done:
                continue
            vruntime = task.vruntime
            if lo is None or vruntime < lo:
                lo = vruntime
            if hi is None or vruntime > hi:
                hi = vruntime
        self._observe_gauge(
            "sched.vruntime_spread_ms",
            (hi - lo) if lo is not None and hi is not None else 0.0,
        )
        counters, gauges = machine.scheduler.observe()
        for name, value in gauges.items():
            self._observe_gauge(name, float(value))

        self._observe_counter("sched.migrations", float(migrations))
        self._observe_counter("sched.context_switches", float(switches))
        self._observe_counter("sched.preemptions", float(preemptions))
        self._observe_counter(
            "engine.events_processed", float(machine.engine.processed)
        )
        for name, value in counters.items():
            self._observe_counter(name, float(value))

    # ------------------------------------------------------------------
    # Window aggregation
    # ------------------------------------------------------------------
    def _close_window(self, t0: float, t1: float) -> None:
        for name, samples in self._gauge_buf.items():
            if not samples:
                continue
            ordered = sorted(samples)
            windows = self._gauge_windows.get(name)
            if windows is None:
                windows = self._gauge_windows[name] = []
            windows.append(
                {
                    "t0": t0,
                    "t1": t1,
                    "n": len(samples),
                    "min": ordered[0],
                    "max": ordered[-1],
                    "mean": sum(samples) / len(samples),
                    "p50": exact_percentile(ordered, 50.0),
                    "p95": exact_percentile(ordered, 95.0),
                }
            )
            samples.clear()

        span_s = (t1 - t0) / 1000.0
        deltas: dict[str, float] = {}
        for name, cumulative in self._counter_last.items():
            delta = cumulative - self._counter_open.get(name, 0.0)
            deltas[name] = delta
            windows = self._rate_windows.get(name)
            if windows is None:
                windows = self._rate_windows[name] = []
            windows.append(
                {
                    "t0": t0,
                    "t1": t1,
                    "delta": delta,
                    "rate_per_s": (delta / span_s) if span_s > 0.0 else 0.0,
                }
            )
            self._counter_open[name] = cumulative

        if _PRED_HITS in deltas or _PRED_MISSES in deltas:
            hits = deltas.get(_PRED_HITS, 0.0)
            misses = deltas.get(_PRED_MISSES, 0.0)
            lookups = hits + misses
            windows = self._ratio_windows.get(_PRED_HIT_RATE)
            if windows is None:
                windows = self._ratio_windows[_PRED_HIT_RATE] = []
            windows.append(
                {
                    "t0": t0,
                    "t1": t1,
                    "value": (hits / lookups) if lookups > 0.0 else 0.0,
                }
            )

        self._ticks_in_window = 0

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------
    def _close_trailing(self, makespan: float) -> None:
        """Close the trailing partial window (idempotent)."""
        if self._finished:
            return
        self._finished = True
        if self._ticks_in_window > 0:
            self._close_window(
                SAMPLE_PERIOD_MS * (self._ticks - self._ticks_in_window),
                SAMPLE_PERIOD_MS * self._ticks,
            )
        del makespan  # cadence is tick-anchored; makespan lives in snapshot meta

    def snapshot(self, makespan: float) -> dict:
        """JSON-ready timeline: deterministic, sorted, schema-versioned."""
        self._close_trailing(makespan)
        series: dict[str, dict] = {}
        for name in sorted(self._gauge_windows):
            series[name] = {
                "kind": "gauge",
                "windows": self._gauge_windows[name],
            }
        for name in sorted(self._rate_windows):
            series[name] = {
                "kind": "rate",
                "windows": self._rate_windows[name],
            }
        for name in sorted(self._ratio_windows):
            series[name] = {
                "kind": "ratio",
                "windows": self._ratio_windows[name],
            }
        return {
            "schema_version": TIMESERIES_SCHEMA_VERSION,
            "sample_period_ms": SAMPLE_PERIOD_MS,
            "samples_per_window": SAMPLES_PER_WINDOW,
            "window_ms": SAMPLE_PERIOD_MS * SAMPLES_PER_WINDOW,
            "samples": self._ticks,
            "makespan_ms": makespan,
            "series": series,
        }


def series_value(series: dict, window: dict) -> float:
    """The one representative value of ``window`` for counter tracks/charts.

    Gauges plot their window mean, rates their per-second rate, ratios
    their value -- the single number a Perfetto counter track shows per
    window.
    """
    kind = series.get("kind", "gauge")
    if kind == "rate":
        return float(window.get("rate_per_s", 0.0))
    if kind == "ratio":
        return float(window.get("value", 0.0))
    return float(window.get("mean", 0.0))
