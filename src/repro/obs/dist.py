"""Cross-process sweep telemetry: bundles, deterministic merge, progress.

``repro.obs`` (PR 1) observes a single process; since the sweep went
parallel (PR 3) the workers' wall-time, cache outcomes, and simulator
counters were invisible to the parent except as one ``busy_s`` scalar.
This module closes that gap:

* each worker records :class:`~repro.obs.spans.Span` records and counter
  deltas per evaluation point and ships one compact
  :class:`PointTelemetry` bundle back alongside the point's result;
* the parent's :class:`DistTelemetry` merges bundles **deterministically
  -- keyed by evaluation point in submission order, never by arrival
  order** -- into a unified multi-process Perfetto timeline (one track
  per worker plus a parent orchestration track), an aggregated report
  (per-point wall-time histograms, worker utilisation, cache hit ratio,
  queue-wait vs compute breakdown), and the context's metrics registry;
* :class:`SweepProgress` renders a live one-line progress display (points
  done/total, ETA from a running mean, current stragglers) while the pool
  drains.

Telemetry is observational by contract: bundles never enter the result
cache (:mod:`repro.parallel.fingerprint` excludes them from key material
and payloads), and a telemetry-enabled sweep returns bit-identical
results to a plain one.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, TextIO

from repro.errors import ExperimentError
from repro.obs.metrics import Histogram
from repro.obs.spans import SpanCollector, SpanEvent, Span

#: Bump when the sweep-report JSON layout changes.
REPORT_SCHEMA_VERSION = 1

#: One evaluation point: (mix index, config, scheduler).
Point = tuple[str, str, str]


def point_label(point: Point) -> str:
    """Canonical display form of an evaluation point."""
    return "/".join(point)


@dataclass(slots=True)
class PointTelemetry:
    """One worker's telemetry bundle for one evaluation point.

    Attributes:
        point: The evaluation point this bundle describes.
        pid: OS pid of the worker process (display only; the merge never
            keys on it).
        submit_s: Parent wall clock when the point was submitted.
        start_s: Worker wall clock when evaluation began.
        end_s: Worker wall clock when evaluation finished.
        spans: Worker spans recorded during this point (drained per
            point, so nesting is self-contained).
        events: Worker span-events recorded during this point.
        counters: Counter deltas accumulated during this point (sim
            event totals, run-cache hits/misses, ...).
    """

    point: Point
    pid: int
    submit_s: float
    start_s: float
    end_s: float
    spans: list[Span] = field(default_factory=list)
    events: list[SpanEvent] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def queue_wait_s(self) -> float:
        """Host seconds between submission and the worker picking it up."""
        return max(0.0, self.start_s - self.submit_s)

    @property
    def compute_s(self) -> float:
        """Host seconds the worker spent evaluating the point."""
        return max(0.0, self.end_s - self.start_s)


class SweepProgress:
    """A live single-line progress display for one telemetry-enabled sweep.

    Rendering is throttled (``min_interval_s``) and written with a ``\\r``
    prefix so the line updates in place; :meth:`finish` terminates it with
    a newline.  Everything is injectable (stream, clock) so tests can
    drive it deterministically.
    """

    __slots__ = ("total", "enabled", "poll_interval_s", "min_interval_s",
                 "_stream", "_clock", "_start", "_last_emit", "_last_width",
                 "done")

    def __init__(
        self,
        total: int,
        stream: TextIO | None = None,
        enabled: bool = True,
        min_interval_s: float = 0.2,
        poll_interval_s: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.total = total
        self.enabled = enabled
        self.min_interval_s = min_interval_s
        self.poll_interval_s = poll_interval_s
        self._stream = stream if stream is not None else sys.stderr
        self._clock = clock
        self._start = clock()
        self._last_emit = float("-inf")
        self._last_width = 0
        self.done = 0

    def line(self, done: int, stragglers: tuple[Point, ...] = ()) -> str:
        """The progress line for ``done`` completed points."""
        elapsed = max(0.0, self._clock() - self._start)
        pct = (100.0 * done / self.total) if self.total else 100.0
        parts = [
            f"sweep {done}/{self.total} ({pct:.0f}%)",
            f"elapsed {elapsed:.1f}s",
        ]
        if 0 < done < self.total:
            if elapsed > 0.0:
                # ETA from the running mean seconds-per-point so far.
                eta = elapsed / done * (self.total - done)
                parts.append(f"eta {eta:.1f}s")
            else:
                # All done work completed within clock resolution: the
                # mean seconds-per-point is indistinguishable from zero,
                # so any extrapolation would be garbage.
                parts.append("eta --")
        if stragglers:
            shown = ", ".join(point_label(p) for p in stragglers[:2])
            extra = len(stragglers) - 2
            if extra > 0:
                shown += f" +{extra}"
            parts.append(f"in flight: {shown}")
        return " | ".join(parts)

    def update(
        self, done: int, stragglers: tuple[Point, ...] = (),
        force: bool = False,
    ) -> None:
        """Render (throttled) the current state of the sweep."""
        self.done = done
        if not self.enabled:
            return
        now = self._clock()
        if not force and done < self.total and (
            now - self._last_emit
        ) < self.min_interval_s:
            return
        self._last_emit = now
        text = self.line(done, stragglers)
        padded = text.ljust(self._last_width)
        self._last_width = len(text)
        self._stream.write("\r" + padded)
        self._stream.flush()

    def finish(self) -> None:
        """Emit the final line and terminate it with a newline."""
        if not self.enabled:
            return
        self.update(self.total, force=True)
        self._stream.write("\n")
        self._stream.flush()


class DistTelemetry:
    """Parent-side collector + deterministic merger for one sweep.

    Lifecycle (driven by :func:`repro.experiments.runner.sweep` and its
    pool, :func:`repro.parallel.executor.evaluate_on_pool`)::

        telemetry = DistTelemetry(progress=SweepProgress(total))
        telemetry.begin(points, jobs)
        telemetry.record_cached(point)          # per cache-resolved point
        telemetry.record_bundle(point, bundle)  # per executed point
        telemetry.record_pool(busy, points, elapsed)  # if a pool ran
        telemetry.finish()
        telemetry.merged_timeline()             # Perfetto document
        telemetry.report()                      # JSON summary

    The merge is keyed by evaluation point: :meth:`bundles_in_point_order`
    iterates the submission-order point list, so the merged timeline and
    the report are pure functions of the bundles -- repeated merges of the
    same sweep are identical, and arrival order can never leak in.
    """

    def __init__(
        self,
        trace_id: str | None = None,
        progress: SweepProgress | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.trace_id = trace_id or ""
        self.progress = progress
        self.parent = SpanCollector(actor="parent", clock=clock)
        self._clock = clock
        self.points: list[Point] = []
        self.jobs = 1
        self.start_s: float = 0.0
        self.end_s: float = 0.0
        self.pool_elapsed_s: float = 0.0
        self.cached: set[Point] = set()
        self.bundles: dict[Point, PointTelemetry] = {}
        self.busy_by_pid: dict[int, float] = {}
        self.points_by_pid: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def begin(self, points: list[Point], jobs: int) -> None:
        """Install the submission-order point list and open the sweep."""
        self.points = list(points)
        self.jobs = jobs
        self.start_s = self._clock()
        if not self.trace_id:
            material = json.dumps([list(p) for p in self.points])
            self.trace_id = hashlib.sha256(material.encode()).hexdigest()[:16]
        self.parent.trace_id = self.trace_id

    def record_cached(self, point: Point) -> None:
        """Mark a point as served by the parent-side result cache."""
        self.cached.add(point)
        self.parent.event("cache_hit", point=point_label(point))

    def record_bundle(self, point: Point, bundle: PointTelemetry) -> None:
        """Attach one worker bundle, keyed by its evaluation point."""
        self.bundles[point] = bundle

    def record_pool(
        self,
        busy_by_pid: dict[int, float],
        points_by_pid: dict[int, int],
        pool_elapsed_s: float,
    ) -> None:
        """Install the executor's per-worker pool accounting."""
        self.busy_by_pid = dict(busy_by_pid)
        self.points_by_pid = dict(points_by_pid)
        self.pool_elapsed_s = pool_elapsed_s

    def finish(self) -> None:
        """Close the sweep."""
        self.end_s = self._clock()

    # ------------------------------------------------------------------
    # Deterministic views
    # ------------------------------------------------------------------
    def bundles_in_point_order(self) -> list[PointTelemetry]:
        """Bundles ordered by the submission-order point list."""
        return [
            self.bundles[point]
            for point in self.points
            if point in self.bundles
        ]

    def worker_pids_in_point_order(self) -> list[int]:
        """Worker pids by first appearance over the ordered bundles.

        This -- not pid value, not completion order -- defines worker
        track numbering, so repeated merges of one sweep (and reruns of a
        deterministic sweep) assign tracks identically.
        """
        seen: list[int] = []
        for bundle in self.bundles_in_point_order():
            if bundle.pid not in seen:
                seen.append(bundle.pid)
        return seen

    # ------------------------------------------------------------------
    # Outputs
    # ------------------------------------------------------------------
    def merged_timeline(self) -> dict:
        """The unified multi-process Perfetto document for this sweep."""
        from repro.obs.exporters import merged_sweep_trace

        return merged_sweep_trace(
            parent_spans=self.parent.spans,
            parent_events=self.parent.events,
            bundles=self.bundles_in_point_order(),
            t0=self.start_s,
            trace_id=self.trace_id,
        )

    def report(self) -> dict:
        """JSON-ready sweep summary (the ``sweep-report`` payload)."""
        bundles = self.bundles_in_point_order()
        point_wall = Histogram()
        queue_wait = Histogram()
        compute = Histogram()
        counters: dict[str, float] = {}
        for bundle in bundles:
            point_wall.observe(bundle.end_s - bundle.submit_s)
            queue_wait.observe(bundle.queue_wait_s)
            compute.observe(bundle.compute_s)
            for name, value in bundle.counters.items():
                counters[name] = counters.get(name, 0.0) + value

        pids = self.worker_pids_in_point_order()
        elapsed = self.pool_elapsed_s
        workers = []
        for index, pid in enumerate(pids):
            busy = self.busy_by_pid.get(pid, 0.0)
            workers.append(
                {
                    "track": index,
                    "pid": pid,
                    "points": self.points_by_pid.get(pid, 0),
                    "busy_s": busy,
                    "utilization": (busy / elapsed) if elapsed > 0 else 0.0,
                }
            )

        total = len(self.points)
        executed = len(bundles)
        cached = len(self.cached)
        queue_total = sum(b.queue_wait_s for b in bundles)
        compute_total = sum(b.compute_s for b in bundles)
        per_point = [
            {
                "point": point_label(bundle.point),
                "worker_track": pids.index(bundle.pid),
                "queue_wait_s": bundle.queue_wait_s,
                "compute_s": bundle.compute_s,
            }
            for bundle in bundles
        ]
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "trace_id": self.trace_id,
            "jobs": self.jobs,
            "points_total": total,
            "points_executed": executed,
            "points_from_cache": cached,
            "cache_hit_ratio": (cached / total) if total else 0.0,
            "wall_s": max(0.0, self.end_s - self.start_s),
            "pool_elapsed_s": elapsed,
            "queue_wait_total_s": queue_total,
            "compute_total_s": compute_total,
            "histograms": {
                "point_wall_s": point_wall.summary(),
                "queue_wait_s": queue_wait.summary(),
                "compute_s": compute.summary(),
            },
            "workers": workers,
            "counters": {k: counters[k] for k in sorted(counters)},
            "points": per_point,
        }

    def aggregate_into(self, registry) -> None:
        """Publish the merged aggregates into a metrics registry."""
        if not registry.enabled:
            return
        bundles = self.bundles_in_point_order()
        for bundle in bundles:
            registry.histogram("sweep.point_wall_s").observe(
                bundle.end_s - bundle.submit_s
            )
            registry.histogram("sweep.queue_wait_s").observe(
                bundle.queue_wait_s
            )
            registry.histogram("sweep.compute_s").observe(bundle.compute_s)
            for name, value in sorted(bundle.counters.items()):
                registry.counter(f"sweep.{name}").inc(value)
        total = len(self.points)
        registry.gauge("sweep.cache_hit_ratio").set(
            (len(self.cached) / total) if total else 0.0
        )
        registry.gauge("sweep.wall_s").set(max(0.0, self.end_s - self.start_s))


def load_sweep_report(path: str | pathlib.Path) -> dict:
    """Read a sweep-report JSON written by ``repro sweep --report``.

    Raises:
        ExperimentError: when the file is missing, is not JSON (e.g. cut
            short mid-write) or holds no JSON object.
    """
    source = pathlib.Path(path)
    if not source.is_file():
        raise ExperimentError(f"sweep report {source} does not exist")
    try:
        report = json.loads(source.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ExperimentError(
            f"sweep report {source} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(report, dict):
        raise ExperimentError(f"sweep report {source} holds no JSON object")
    return report


def render_sweep_report(report: dict) -> str:
    """Human-readable rendering of a :meth:`DistTelemetry.report` payload."""
    lines = [
        f"sweep report (trace {report.get('trace_id', '?')}, "
        f"jobs={report.get('jobs', '?')})",
        f"  points   : {report['points_executed']} executed, "
        f"{report['points_from_cache']} from cache "
        f"({report['cache_hit_ratio'] * 100:.0f}% hit ratio), "
        f"{report['points_total']} total",
        f"  wall     : {report['wall_s']:.2f}s "
        f"(pool {report['pool_elapsed_s']:.2f}s)",
        f"  queue/compute: {report['queue_wait_total_s']:.2f}s waiting vs "
        f"{report['compute_total_s']:.2f}s computing",
    ]
    for name in ("point_wall_s", "queue_wait_s", "compute_s"):
        summary = report["histograms"][name]
        if summary.get("count"):
            lines.append(
                f"  {name:<13}: mean {summary['mean']:.3f}s  "
                f"p50 {summary['p50']:.3f}s  p95 {summary['p95']:.3f}s  "
                f"max {summary['max']:.3f}s  (n={summary['count']})"
            )
    for worker in report.get("workers", []):
        lines.append(
            f"  worker {worker['track']} (pid {worker['pid']}): "
            f"{worker['points']} points, busy {worker['busy_s']:.2f}s, "
            f"utilization {worker['utilization'] * 100:.0f}%"
        )
    counters = report.get("counters", {})
    if counters:
        shown = ", ".join(
            f"{name}={value:.0f}" for name, value in counters.items()
        )
        lines.append(f"  counters : {shown}")
    return "\n".join(lines)


def timeline_shape(document: dict) -> dict:
    """Track-assignment-independent shape of a merged timeline.

    Collapses the document to (name, category, phase) -> count multisets,
    split into the parent track (pid 0) and *all* worker tracks combined.
    Two sweeps of the same points agree on this shape regardless of how
    many workers ran them or which worker drew which point -- the form in
    which ``jobs=1`` and ``jobs=4`` merged timelines are comparable
    (timestamps and pids legitimately differ between executions).
    """
    parent: dict[tuple, int] = {}
    workers: dict[tuple, int] = {}
    for record in document.get("traceEvents", []):
        if record.get("ph") == "M":
            continue
        key = (record.get("name"), record.get("cat"), record.get("ph"))
        bucket = parent if record.get("pid") == 0 else workers
        bucket[key] = bucket.get(key, 0) + 1
    return {
        "parent": sorted((k, v) for k, v in parent.items()),
        "workers": sorted((k, v) for k, v in workers.items()),
    }
