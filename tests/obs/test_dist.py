"""Deterministic-merge and reporting contract of repro.obs.dist.

The properties under test mirror the sweep telemetry contract: merges are
keyed by evaluation point in submission order (never arrival order),
worker tracks are assigned by first appearance, repeated merges of one
sweep are identical, and jobs=1 vs jobs=N timelines agree on their
track-assignment-independent shape.
"""

from __future__ import annotations

import io
import json

from repro.obs.dist import (
    REPORT_SCHEMA_VERSION,
    DistTelemetry,
    PointTelemetry,
    SweepProgress,
    point_label,
    render_sweep_report,
    timeline_shape,
)
from repro.obs.spans import Span, SpanEvent


class FakeClock:
    def __init__(self, start: float = 1000.0, step: float = 0.5) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


POINTS = [
    ("Sync-1", "2B2S", "linux"),
    ("Sync-1", "2B2S", "colab"),
    ("NSync-1", "2B2S", "linux"),
    ("NSync-1", "2B2S", "colab"),
]


def bundle(point, pid, submit_s=1.0, start_s=2.0, end_s=5.0, counters=None):
    label = point_label(point)
    return PointTelemetry(
        point=point,
        pid=pid,
        submit_s=submit_s,
        start_s=start_s,
        end_s=end_s,
        spans=[
            Span(
                name=label, actor=f"pid-{pid}", span_id=1, parent_id=None,
                start_s=start_s, end_s=end_s,
            )
        ],
        events=[SpanEvent(name="run_cache_hit", actor=f"pid-{pid}", time_s=start_s)],
        counters=counters or {"sim.events_processed": 10.0},
    )


def telemetry_with_bundles(arrival_order, pids=None):
    """A finished DistTelemetry whose bundles arrived in ``arrival_order``."""
    pids = pids or {}
    telemetry = DistTelemetry(clock=FakeClock())
    telemetry.begin(POINTS, jobs=2)
    for index in arrival_order:
        point = POINTS[index]
        telemetry.record_bundle(point, bundle(point, pids.get(index, 7)))
    telemetry.record_pool(
        busy_by_pid={7: 3.0}, points_by_pid={7: len(arrival_order)},
        pool_elapsed_s=4.0,
    )
    telemetry.finish()
    return telemetry


class TestPointTelemetry:
    def test_queue_wait_and_compute_split(self):
        record = bundle(POINTS[0], pid=1, submit_s=1.0, start_s=3.0, end_s=7.5)
        assert record.queue_wait_s == 2.0
        assert record.compute_s == 4.5

    def test_clock_skew_clamps_to_zero(self):
        record = bundle(POINTS[0], pid=1, submit_s=5.0, start_s=4.9, end_s=4.8)
        assert record.queue_wait_s == 0.0
        assert record.compute_s == 0.0


class TestDeterministicMerge:
    def test_bundles_ordered_by_point_not_arrival(self):
        forward = telemetry_with_bundles([0, 1, 2, 3])
        scrambled = telemetry_with_bundles([3, 1, 0, 2])
        assert [b.point for b in forward.bundles_in_point_order()] == POINTS
        assert [b.point for b in scrambled.bundles_in_point_order()] == POINTS

    def test_worker_tracks_by_first_appearance_in_point_order(self):
        # pid 9 evaluated the *later* points but arrived first; track 0
        # still belongs to the pid owning the first submission-order point.
        pids = {0: 5, 1: 5, 2: 9, 3: 9}
        scrambled = telemetry_with_bundles([3, 2, 1, 0], pids=pids)
        assert scrambled.worker_pids_in_point_order() == [5, 9]

    def test_repeated_merges_are_identical(self):
        telemetry = telemetry_with_bundles([2, 0, 3, 1])
        first = json.dumps(telemetry.merged_timeline(), sort_keys=True)
        second = json.dumps(telemetry.merged_timeline(), sort_keys=True)
        assert first == second

    def test_arrival_order_never_changes_the_timeline(self):
        a = telemetry_with_bundles([0, 1, 2, 3])
        b = telemetry_with_bundles([3, 2, 1, 0])
        # Same trace id (derived from the point list), same bundles ->
        # byte-identical merged documents.
        assert json.dumps(a.merged_timeline(), sort_keys=True) == json.dumps(
            b.merged_timeline(), sort_keys=True
        )


class TestMergedTimeline:
    def test_document_reparses_and_has_all_tracks(self):
        pids = {0: 5, 1: 5, 2: 9, 3: 9}
        telemetry = telemetry_with_bundles([0, 1, 2, 3], pids=pids)
        with telemetry.parent.span("orchestrate"):
            pass
        document = json.loads(json.dumps(telemetry.merged_timeline()))
        names = {
            record["args"]["name"]
            for record in document["traceEvents"]
            if record["ph"] == "M" and record["name"] == "process_name"
        }
        assert "sweep parent [orchestration]" in names
        assert "worker 0 [pid 5]" in names
        assert "worker 1 [pid 9]" in names
        assert document["otherData"]["workers"] == 2
        assert document["otherData"]["trace_id"] == telemetry.trace_id

    def test_queue_wait_rendered_as_explicit_slice(self):
        telemetry = telemetry_with_bundles([0])
        document = telemetry.merged_timeline()
        queue = [
            record
            for record in document["traceEvents"]
            if record.get("cat") == "queue"
        ]
        assert len(queue) == 1
        assert queue[0]["name"] == "queue-wait"
        assert queue[0]["dur"] > 0

    def test_timeline_shape_ignores_worker_assignment(self):
        one_worker = telemetry_with_bundles([0, 1, 2, 3])
        two_workers = telemetry_with_bundles(
            [0, 1, 2, 3], pids={0: 5, 1: 9, 2: 5, 3: 9}
        )
        assert timeline_shape(one_worker.merged_timeline()) == timeline_shape(
            two_workers.merged_timeline()
        )

    def test_timeline_shape_separates_parent_from_workers(self):
        telemetry = telemetry_with_bundles([0])
        with telemetry.parent.span("orchestrate"):
            pass
        shape = timeline_shape(telemetry.merged_timeline())
        parent_names = {key[0] for key, _count in shape["parent"]}
        worker_names = {key[0] for key, _count in shape["workers"]}
        assert "orchestrate" in parent_names
        assert "orchestrate" not in worker_names


class TestReport:
    def test_report_layout_and_aggregates(self):
        telemetry = telemetry_with_bundles([0, 1, 2])
        telemetry.record_cached(POINTS[3])
        report = telemetry.report()
        assert report["schema_version"] == REPORT_SCHEMA_VERSION
        assert report["points_total"] == 4
        assert report["points_executed"] == 3
        assert report["points_from_cache"] == 1
        assert report["cache_hit_ratio"] == 0.25
        assert report["histograms"]["point_wall_s"]["count"] == 3
        assert report["histograms"]["queue_wait_s"]["mean"] == 1.0
        assert report["histograms"]["compute_s"]["mean"] == 3.0
        assert report["counters"]["sim.events_processed"] == 30.0
        assert report["workers"][0]["pid"] == 7
        assert report["workers"][0]["utilization"] == 0.75
        assert len(report["points"]) == 3
        json.dumps(report)  # JSON-serialisable by construction

    def test_render_report_mentions_key_facts(self):
        telemetry = telemetry_with_bundles([0, 1, 2, 3])
        text = render_sweep_report(telemetry.report())
        assert "4 executed" in text
        assert "waiting vs" in text
        assert "worker 0 (pid 7)" in text
        assert "sim.events_processed" in text

    def test_aggregate_into_registry(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry(enabled=True)
        telemetry = telemetry_with_bundles([0, 1])
        telemetry.aggregate_into(registry)
        snapshot = registry.snapshot()
        assert snapshot["histograms"]["sweep.point_wall_s"]["count"] == 2
        assert snapshot["counters"]["sweep.sim.events_processed"] == 20.0
        assert "sweep.cache_hit_ratio" in snapshot["gauges"]

    def test_aggregate_into_disabled_registry_is_noop(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry(enabled=False)
        telemetry_with_bundles([0]).aggregate_into(registry)
        snapshot = registry.snapshot()
        assert all(not family for family in snapshot.values())


class TestSweepProgress:
    def make(self, total=4, **kwargs):
        stream = io.StringIO()
        clock = FakeClock(start=0.0, step=1.0)
        kwargs.setdefault("min_interval_s", 0.0)
        return SweepProgress(total, stream=stream, clock=clock, **kwargs), stream

    def test_line_reports_done_eta_and_stragglers(self):
        progress, _stream = self.make()
        line = progress.line(2, stragglers=tuple(POINTS[:3]))
        assert "sweep 2/4" in line
        assert "eta" in line
        assert "in flight: Sync-1/2B2S/linux, Sync-1/2B2S/colab +1" in line

    def test_update_writes_carriage_return_line(self):
        progress, stream = self.make()
        progress.update(1)
        assert stream.getvalue().startswith("\r")
        assert "sweep 1/4" in stream.getvalue()

    def test_throttle_suppresses_rapid_updates(self):
        progress, stream = self.make(min_interval_s=10.0)
        progress.update(1)
        progress.update(2)  # within the throttle window -> suppressed
        assert "sweep 2/4" not in stream.getvalue()
        progress.update(3, force=True)
        assert "sweep 3/4" in stream.getvalue()

    def test_finish_emits_final_line_and_newline(self):
        progress, stream = self.make()
        progress.finish()
        assert stream.getvalue().endswith("\n")
        assert "sweep 4/4 (100%)" in stream.getvalue()

    def test_disabled_progress_never_writes(self):
        progress, stream = self.make(enabled=False)
        progress.update(1, force=True)
        progress.finish()
        assert stream.getvalue() == ""


class TestTraceId:
    def test_trace_id_is_deterministic_in_the_point_list(self):
        a = DistTelemetry(clock=FakeClock())
        b = DistTelemetry(clock=FakeClock())
        a.begin(POINTS, jobs=2)
        b.begin(POINTS, jobs=4)  # jobs does not enter the id
        assert a.trace_id == b.trace_id
        c = DistTelemetry(clock=FakeClock())
        c.begin(POINTS[:2], jobs=2)
        assert c.trace_id != a.trace_id

    def test_explicit_trace_id_wins(self):
        telemetry = DistTelemetry(trace_id="abc123", clock=FakeClock())
        telemetry.begin(POINTS, jobs=2)
        assert telemetry.trace_id == "abc123"
        assert telemetry.parent.trace_id == "abc123"


class TestProgressEtaGuard:
    def test_zero_elapsed_renders_eta_placeholder(self):
        stream = io.StringIO()
        progress = SweepProgress(
            4, stream=stream, clock=FakeClock(start=0.0, step=0.0),
            min_interval_s=0.0,
        )
        line = progress.line(2)
        assert "eta --" in line
        assert "eta 0.0s" not in line

    def test_nonzero_elapsed_still_extrapolates(self):
        stream = io.StringIO()
        progress = SweepProgress(
            4, stream=stream, clock=FakeClock(start=0.0, step=1.0),
            min_interval_s=0.0,
        )
        assert "eta 1.0s" in progress.line(2)
