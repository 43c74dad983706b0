"""Exporter round-trip tests: JSONL and Chrome/Perfetto trace_event."""

from __future__ import annotations

import io
import json

from repro.obs.context import ObsConfig
from repro.obs.exporters import (
    to_chrome_trace,
    to_jsonl,
    write_jsonl,
)
from repro.obs.tracer import SCHEMA_VERSION, EventKind
from tests.conftest import make_machine, make_simple_task

FREE = dict(context_switch_cost=0.0, migration_cost=0.0)


def traced_result(n_tasks: int = 3):
    machine = make_machine(1, 1, obs=ObsConfig(trace=True), **FREE)
    for i in range(n_tasks):
        machine.add_task(make_simple_task(f"t{i}", work=4.0, app_id=i))
    return machine, machine.run()


class TestJsonl:
    def test_every_line_is_valid_json(self):
        _machine, result = traced_result()
        lines = to_jsonl(result.events)
        assert len(lines) == len(result.events)
        for line in lines:
            record = json.loads(line)
            assert record["v"] == SCHEMA_VERSION
            assert "t" in record and "kind" in record

    def test_roundtrip_preserves_event_content(self):
        _machine, result = traced_result()
        records = [json.loads(line) for line in to_jsonl(result.events)]
        for event, record in zip(result.events, records):
            assert record["t"] == event.time
            assert record["kind"] == event.kind.value
            if event.core_id is not None:
                assert record["core"] == event.core_id
            if event.args:
                assert record["args"] == event.args

    def test_write_jsonl_counts_lines(self):
        _machine, result = traced_result()
        buffer = io.StringIO()
        count = write_jsonl(result.events, buffer)
        assert count == len(result.events)
        assert len(buffer.getvalue().splitlines()) == count


class TestChromeTrace:
    def test_document_is_valid_json(self):
        _machine, result = traced_result()
        document = to_chrome_trace(
            result.events,
            metadata=result.trace_metadata,
            end_time=result.makespan,
        )
        decoded = json.loads(json.dumps(document))
        assert decoded["displayTimeUnit"] == "ms"
        assert decoded["otherData"]["schema_version"] == SCHEMA_VERSION
        assert isinstance(decoded["traceEvents"], list)

    def test_per_core_thread_metadata(self):
        _machine, result = traced_result()
        document = to_chrome_trace(
            result.events, metadata=result.trace_metadata
        )
        names = {
            e["tid"]: e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names[0].startswith("core 0")
        assert names[1].startswith("core 1")
        # Kind annotations come from the machine's trace metadata.
        assert "(big)" in names[0]
        assert "(little)" in names[1]

    def test_complete_slices_cover_dispatches(self):
        _machine, result = traced_result()
        document = to_chrome_trace(
            result.events, end_time=result.makespan
        )
        slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
        dispatches = [
            e for e in result.events if e.kind is EventKind.DISPATCH
        ]
        assert len(slices) == len(dispatches)
        for entry in slices:
            assert entry["dur"] >= 0.0
            assert entry["ts"] >= 0.0
            # ms -> us conversion keeps everything inside the makespan.
            assert entry["ts"] + entry["dur"] <= result.makespan * 1000 + 1e-6

    def test_empty_trace_exports_cleanly(self):
        document = to_chrome_trace([])
        json.dumps(document)
        assert all(e["ph"] == "M" for e in document["traceEvents"])


class TestTaskTracks:
    def document(self, task_tracks=True):
        _machine, result = traced_result()
        return to_chrome_trace(
            result.events,
            metadata=result.trace_metadata,
            end_time=result.makespan,
            task_tracks=task_tracks,
        ), result

    def test_default_export_has_no_task_process(self):
        document, _result = self.document(task_tracks=False)
        assert all(e["pid"] == 0 for e in document["traceEvents"])

    def test_task_tracks_add_a_second_process(self):
        document, _result = self.document()
        names = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert any("tasks" in name for name in names)

    def test_one_named_thread_per_task(self):
        document, result = self.document()
        task_tids = {
            e.tid for e in result.events
            if e.kind is EventKind.DISPATCH
        }
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == 1
        }
        assert set(thread_names) == task_tids
        assert all(name.startswith("t") for name in thread_names.values())

    def test_state_slices_stay_inside_the_run(self):
        from repro.obs.attribution import STATE_NAMES

        document, result = self.document()
        slices = [
            e for e in document["traceEvents"]
            if e["ph"] == "X" and e["pid"] == 1
        ]
        assert slices
        for entry in slices:
            assert entry["cat"] == "state"
            assert entry["name"] in STATE_NAMES
            assert entry["ts"] >= 0.0 and entry["dur"] >= 0.0
            assert entry["ts"] + entry["dur"] <= result.makespan * 1000 + 1e-6
