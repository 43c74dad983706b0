"""Structured event tracing for simulation runs.

``ObsConfig(trace=True)`` is the one trace switch.  A traced run records
typed :class:`TraceEvent` records into ``RunResult.events`` covering every
scheduling-relevant occurrence: dispatches, deschedules (with their
reason), cross-core migrations, futex wait/wake pairs, DVFS transitions,
labeling passes, and scheduler decisions annotated with the factor scores
that drove them.  The DISPATCH records are the run's one dispatch record:
:func:`repro.sim.digest.run_digest` hashes them.

Zero-overhead-when-disabled contract
------------------------------------
The machine, runqueue and futex records come through the one observer
seam (:mod:`repro.obs.probe`): an enabled tracer is attached to the
machine's probe and :meth:`Tracer.transition` turns each reported state
change into its record, while a disabled tracer is simply not attached,
so untraced runs build no event object, argument dict, or string.  The
schedulers' DECISION records keep an explicit guard::

    if tracer.enabled:
        tracer.emit(now, EventKind.DECISION, op=..., tid=...)

:mod:`benchmarks.bench_observer_overhead` bounds what the disabled seam
costs a run.

Events are consumed by the exporters (:mod:`repro.obs.exporters`) -- JSONL
for programmatic analysis, Chrome ``trace_event`` JSON for interactive
inspection in Perfetto / ``chrome://tracing`` -- and by the trace
post-processing in :mod:`repro.analysis.traces`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.obs.probe import (
    BLOCK,
    DESCHEDULE,
    DISPATCH,
    DONE,
    DVFS,
    FUTEX_WAIT,
    FUTEX_WAKE,
    LABEL,
    Probe,
)


class EventKind(enum.Enum):
    """Typed trace-record kinds.

    The values are the stable wire names used by the JSONL exporter; do
    not rename without bumping the schema version below.
    """

    #: A task started running on a core.
    DISPATCH = "dispatch"
    #: A task stopped running on a core; ``args["reason"]`` is one of
    #: ``slice_expiry`` / ``wakeup_preemption`` / ``forced_preemption`` /
    #: ``blocked`` / ``sleep`` / ``done`` / ``run_end``.
    DESCHEDULE = "deschedule"
    #: A task was dispatched on a different core than it last ran on.
    MIGRATE = "migrate"
    #: A task parked on a futex (``args["futex"]``, ``args["sync"]`` kind).
    FUTEX_WAIT = "futex_wait"
    #: A waker released a parked task (``args["waited_ms"]`` charged to it).
    FUTEX_WAKE = "futex_wake"
    #: A core changed DVFS frequency scale.
    DVFS = "dvfs"
    #: A scheduler decision with the factor scores that drove it
    #: (``args``: op, tier, blocking, speedup, label, vruntime, ...).
    DECISION = "decision"
    #: A periodic labeling / estimate-refresh pass ran.
    LABEL = "label"


#: Bump when the meaning of TraceEvent fields or EventKind values changes.
SCHEMA_VERSION = 1


@dataclass(slots=True)
class TraceEvent:
    """One typed trace record.

    Attributes:
        time: Simulated timestamp in milliseconds.
        kind: What happened.
        core_id: Core involved, if any.
        tid: Task involved, if any.
        name: Human-readable task (or subject) name, if any.
        args: Kind-specific payload (small, JSON-serialisable values only).
    """

    time: float
    kind: EventKind
    core_id: int | None = None
    tid: int | None = None
    name: str | None = None
    args: dict | None = None

    def to_dict(self) -> dict:
        """Flat JSON-ready view (used by the JSONL exporter)."""
        record: dict = {"t": self.time, "kind": self.kind.value}
        if self.core_id is not None:
            record["core"] = self.core_id
        if self.tid is not None:
            record["tid"] = self.tid
        if self.name is not None:
            record["name"] = self.name
        if self.args:
            record["args"] = self.args
        return record


class Tracer(Probe):
    """Collects :class:`TraceEvent` records for one run.

    As a :class:`~repro.obs.probe.Probe` it records the machine's
    dispatches, deschedules, migrations, futex traffic, DVFS changes and
    labeling passes.

    Args:
        enabled: When False every :meth:`emit` is skipped; call sites are
            expected to check :attr:`enabled` *before* building arguments
            so a disabled tracer is effectively free.
    """

    __slots__ = ("enabled", "events", "metadata")

    kinds = frozenset(
        (DISPATCH, DESCHEDULE, BLOCK, DONE, FUTEX_WAIT, FUTEX_WAKE, DVFS, LABEL)
    )

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.events: list[TraceEvent] = []
        #: Run-level context (topology / scheduler / core kinds) attached
        #: by the machine; exporters use it to label tracks.
        self.metadata: dict = {}

    def emit(
        self,
        time: float,
        kind: EventKind,
        core_id: int | None = None,
        tid: int | None = None,
        name: str | None = None,
        **args: object,
    ) -> None:
        """Record one event (no-op when disabled)."""
        if not self.enabled:
            return
        self.events.append(
            TraceEvent(
                time=time,
                kind=kind,
                core_id=core_id,
                tid=tid,
                name=name,
                args=args or None,
            )
        )

    def transition(self, kind: int, task, where, now, detail) -> None:
        """Record the trace events of one machine transition."""
        if kind == DISPATCH:
            if detail is not None and detail != where.core_id:
                self.emit(
                    now, EventKind.MIGRATE, core_id=where.core_id,
                    tid=task.tid, name=task.name, from_core=detail,
                )
            self.emit(
                now, EventKind.DISPATCH, core_id=where.core_id,
                tid=task.tid, name=task.name, app=task.app_id,
            )
        elif kind == DESCHEDULE or kind == BLOCK or kind == DONE:
            if kind == BLOCK:
                reason = "blocked"
            elif kind == DONE:
                reason = "done"
            else:
                reason = detail
            self.emit(
                now, EventKind.DESCHEDULE, core_id=where.core_id,
                tid=task.tid, name=task.name, reason=reason,
            )
        elif kind == FUTEX_WAIT:
            self.emit(
                now, EventKind.FUTEX_WAIT, tid=task.tid, name=task.name,
                core_id=task.last_core_id, futex=where.futex_id, sync=detail,
            )
        elif kind == FUTEX_WAKE:
            self.emit(
                now, EventKind.FUTEX_WAKE, tid=task.tid, name=task.name,
                core_id=task.last_core_id, futex=where.futex_id,
                waited_ms=now - where.since,
                waker=detail.tid if detail is not None else None,
            )
        elif kind == DVFS:
            self.emit(
                now, EventKind.DVFS, core_id=where.core_id,
                scale=detail, prev_scale=where.freq_scale,
            )
        elif kind == LABEL:
            self.emit(
                now, EventKind.LABEL, name=where.name,
                pass_index=where.stats.label_passes,
            )

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: EventKind) -> list[TraceEvent]:
        """All recorded events of one kind, in emission order."""
        return [e for e in self.events if e.kind is kind]


def dispatch_slices(
    events: list[TraceEvent], end_time: float
) -> list[tuple[float, float, int, int, str]]:
    """Pair dispatch/deschedule events into per-core execution slices.

    Args:
        events: Typed trace in emission (time) order.
        end_time: Close any still-open slice at this timestamp (makespan).

    Returns:
        ``(start, end, core_id, tid, task_name)`` tuples sorted by start
        time.  A slice covers one uninterrupted occupancy of one core by
        one task.
    """
    open_slices: dict[int, tuple[float, int, str]] = {}
    slices: list[tuple[float, float, int, int, str]] = []
    for event in events:
        if event.kind is EventKind.DISPATCH and event.core_id is not None:
            open_slices[event.core_id] = (
                event.time,
                event.tid if event.tid is not None else -1,
                event.name or f"tid{event.tid}",
            )
        elif event.kind is EventKind.DESCHEDULE and event.core_id is not None:
            started = open_slices.pop(event.core_id, None)
            if started is not None:
                start, tid, name = started
                slices.append((start, event.time, event.core_id, tid, name))
    for core_id, (start, tid, name) in open_slices.items():
        slices.append((start, max(start, end_time), core_id, tid, name))
    slices.sort()
    return slices
