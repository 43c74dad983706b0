"""Trace exporters: JSONL and Chrome/Perfetto ``trace_event`` format.

Two complementary outputs of the same typed event stream:

* :func:`to_jsonl` / :func:`write_jsonl` -- one JSON object per line,
  lossless, for programmatic analysis (pandas, jq, ...);
* :func:`to_chrome_trace` -- the Chrome ``trace_event`` JSON Array
  Format, loadable in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``.  Each simulated core becomes one named track
  (thread) of a single "machine" process; dispatch/deschedule pairs
  become complete ("X") duration slices named after the running task,
  and migrations / DVFS transitions / scheduler decisions become instant
  ("i") events on the affected core's track.

Simulated time is in milliseconds; the Chrome format wants microseconds,
so timestamps are multiplied by 1000 on export.
"""

from __future__ import annotations

import json
from typing import IO, Iterable

from repro.obs.tracer import SCHEMA_VERSION, EventKind, TraceEvent, dispatch_slices

#: trace_event phase codes used below.
_PH_COMPLETE = "X"
_PH_COUNTER = "C"
_PH_INSTANT = "i"
_PH_METADATA = "M"

#: Event kinds rendered as instants on their core's track.
_INSTANT_KINDS = (
    EventKind.MIGRATE,
    EventKind.DVFS,
    EventKind.DECISION,
    EventKind.FUTEX_WAIT,
    EventKind.FUTEX_WAKE,
    EventKind.LABEL,
)


def to_jsonl(events: Iterable[TraceEvent]) -> list[str]:
    """One compact JSON document per event, schema-versioned via field 'v'."""
    lines = []
    for event in events:
        record = event.to_dict()
        record["v"] = SCHEMA_VERSION
        lines.append(json.dumps(record, sort_keys=True))
    return lines


def write_jsonl(events: Iterable[TraceEvent], handle: IO[str]) -> int:
    """Write events as JSONL; returns the number of lines written."""
    count = 0
    for line in to_jsonl(events):
        handle.write(line + "\n")
        count += 1
    return count


def _ms_to_us(time_ms: float) -> float:
    return time_ms * 1000.0


def to_chrome_trace(
    events: list[TraceEvent],
    metadata: dict | None = None,
    end_time: float | None = None,
    task_tracks: bool = False,
    timeseries: dict | None = None,
) -> dict:
    """Build a Chrome ``trace_event`` document from a typed event stream.

    Args:
        events: Trace in emission order (as recorded by the tracer).
        metadata: Run-level context (``RunResult.trace_metadata``);
            recognised keys: ``cores`` (core_id -> kind string),
            ``scheduler``, ``topology``.
        end_time: Timestamp closing still-running slices (the makespan).
            Defaults to the last event's timestamp.
        task_tracks: Also emit one annotation track per task (a second
            "tasks" process) whose slices are the task's attribution
            states -- running/runnable/blocked -- reconstructed from the
            event stream (:func:`repro.obs.attribution.task_state_slices`).
        timeseries: ``RunResult.timeseries`` snapshot from a sampled run
            (:mod:`repro.obs.timeseries`); each series becomes one
            Perfetto counter ("C") track alongside the span/instant
            tracks.

    Returns:
        ``{"traceEvents": [...], "displayTimeUnit": "ms", ...}`` -- JSON
        serialisable and directly loadable in Perfetto.
    """
    metadata = metadata or {}
    if end_time is None:
        end_time = events[-1].time if events else 0.0

    trace_events: list[dict] = []
    core_kinds: dict = metadata.get("cores", {})
    process_name = "machine"
    if metadata.get("scheduler") or metadata.get("topology"):
        process_name = (
            f"{metadata.get('topology', 'machine')}"
            f" [{metadata.get('scheduler', '?')}]"
        )
    trace_events.append(
        {
            "ph": _PH_METADATA,
            "name": "process_name",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    )

    seen_cores = sorted(
        {e.core_id for e in events if e.core_id is not None} | set(core_kinds)
    )
    for core_id in seen_cores:
        kind = core_kinds.get(core_id)
        label = f"core {core_id}" + (f" ({kind})" if kind else "")
        trace_events.append(
            {
                "ph": _PH_METADATA,
                "name": "thread_name",
                "pid": 0,
                "tid": core_id,
                "args": {"name": label},
            }
        )
        # Keep Perfetto's track order aligned with core ids.
        trace_events.append(
            {
                "ph": _PH_METADATA,
                "name": "thread_sort_index",
                "pid": 0,
                "tid": core_id,
                "args": {"sort_index": core_id},
            }
        )

    for start, end, core_id, tid, name in dispatch_slices(events, end_time):
        trace_events.append(
            {
                "ph": _PH_COMPLETE,
                "name": name,
                "cat": "run",
                "pid": 0,
                "tid": core_id,
                "ts": _ms_to_us(start),
                "dur": max(0.0, _ms_to_us(end - start)),
                "args": {"tid": tid},
            }
        )

    for event in events:
        if event.kind not in _INSTANT_KINDS:
            continue
        args = dict(event.args or {})
        if event.tid is not None:
            args.setdefault("tid", event.tid)
        if event.name is not None:
            args.setdefault("task", event.name)
        trace_events.append(
            {
                "ph": _PH_INSTANT,
                "name": event.kind.value,
                "cat": event.kind.value,
                "pid": 0,
                "tid": event.core_id if event.core_id is not None else 0,
                "ts": _ms_to_us(event.time),
                "s": "t",
                "args": args,
            }
        )

    if task_tracks:
        trace_events.extend(
            _task_state_records(events, metadata, end_time)
        )

    if timeseries:
        trace_events.extend(timeseries_counter_records(timeseries))

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema_version": SCHEMA_VERSION,
            **{
                k: v
                for k, v in metadata.items()
                if k in ("scheduler", "topology", "seed")
            },
        },
    }


#: Document pid of the per-task state-annotation process.
_TASK_TRACK_PID = 1

#: Document pid of the sim-time counter-track process.
_COUNTER_TRACK_PID = 2


def timeseries_counter_records(timeseries: dict) -> list[dict]:
    """Perfetto counter ("C") tracks from a timeline snapshot.

    One counter track per series (pid 2, "timeline"), one sample per
    window at the window's start time carrying the window's
    representative value (:func:`repro.obs.timeseries.series_value`),
    plus a closing sample at the last window's end so the staircase spans
    the whole run.  A pure function of the snapshot -- identical inputs
    produce identical records, which the export-determinism tests pin.
    """
    from repro.obs.timeseries import series_value

    series = timeseries.get("series") or {}
    if not series:
        return []
    records: list[dict] = [
        {
            "ph": _PH_METADATA,
            "name": "process_name",
            "pid": _COUNTER_TRACK_PID,
            "tid": 0,
            "args": {"name": "timeline [sim-time counters]"},
        },
        {
            "ph": _PH_METADATA,
            "name": "process_sort_index",
            "pid": _COUNTER_TRACK_PID,
            "tid": 0,
            "args": {"sort_index": _COUNTER_TRACK_PID},
        },
    ]
    for name in sorted(series):
        entry = series[name]
        windows = entry.get("windows") or []
        if not windows:
            continue
        for window in windows:
            records.append(
                {
                    "ph": _PH_COUNTER,
                    "name": name,
                    "cat": "timeseries",
                    "pid": _COUNTER_TRACK_PID,
                    "tid": 0,
                    "ts": _ms_to_us(window["t0"]),
                    "args": {"value": series_value(entry, window)},
                }
            )
        last = windows[-1]
        records.append(
            {
                "ph": _PH_COUNTER,
                "name": name,
                "cat": "timeseries",
                "pid": _COUNTER_TRACK_PID,
                "tid": 0,
                "ts": _ms_to_us(last["t1"]),
                "args": {"value": series_value(entry, last)},
            }
        )
    return records


def _task_state_records(
    events: list[TraceEvent], metadata: dict, end_time: float
) -> list[dict]:
    """Per-task attribution-state annotation tracks (pid 1, "tasks")."""
    from repro.obs.attribution import task_state_slices

    slices = task_state_slices(events, metadata=metadata, end_time=end_time)
    if not slices:
        return []
    records: list[dict] = [
        {
            "ph": _PH_METADATA,
            "name": "process_name",
            "pid": _TASK_TRACK_PID,
            "tid": 0,
            "args": {"name": "tasks [attribution states]"},
        },
        {
            "ph": _PH_METADATA,
            "name": "process_sort_index",
            "pid": _TASK_TRACK_PID,
            "tid": 0,
            "args": {"sort_index": _TASK_TRACK_PID},
        },
    ]
    named: set[int] = set()
    for start, end, tid, task_name, state in slices:
        if tid not in named:
            named.add(tid)
            records.append(
                {
                    "ph": _PH_METADATA,
                    "name": "thread_name",
                    "pid": _TASK_TRACK_PID,
                    "tid": tid,
                    "args": {"name": task_name},
                }
            )
            records.append(
                {
                    "ph": _PH_METADATA,
                    "name": "thread_sort_index",
                    "pid": _TASK_TRACK_PID,
                    "tid": tid,
                    "args": {"sort_index": tid},
                }
            )
        records.append(
            {
                "ph": _PH_COMPLETE,
                "name": state,
                "cat": "state",
                "pid": _TASK_TRACK_PID,
                "tid": tid,
                "ts": _ms_to_us(start),
                "dur": max(0.0, _ms_to_us(end - start)),
                "args": {"tid": tid, "task": task_name},
            }
        )
    return records

