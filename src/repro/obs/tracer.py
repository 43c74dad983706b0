"""Structured event tracing for simulation runs.

``ObsConfig(trace=True)`` is the one trace switch.  A traced run records
typed :class:`TraceEvent` records into ``RunResult.events`` covering every
scheduling-relevant occurrence: dispatches, deschedules (with their
reason), cross-core migrations, futex wait/wake pairs, DVFS transitions,
labeling passes, and scheduler decisions annotated with the factor scores
that drove them.  The DISPATCH records are the run's one dispatch record:
:func:`repro.sim.digest.run_digest` hashes them.

An untraced run has no tracer
-----------------------------
Every record comes through the one observer seam
(:mod:`repro.obs.probe`).  A traced machine builds a :class:`Tracer` and
attaches it to its probe; :meth:`Tracer.transition` turns each reported
state change into its record, and the DECISION kind is routed straight to
:meth:`Tracer.decision`.  An untraced machine builds no tracer, so its
hook sites find ``None`` in the hook table and build no event object,
argument dict, or string -- the schedulers' decision sites included::

    hook = machine.hooks[DECISION]
    if hook is not None:
        hook(DECISION, task, core_id, now, {"op": ..., ...})

:mod:`benchmarks.bench_observer_overhead` bounds what those guards cost
a run.

Events are consumed by the exporters (:mod:`repro.obs.exporters`) -- JSONL
for programmatic analysis, Chrome ``trace_event`` JSON for interactive
inspection in Perfetto / ``chrome://tracing`` -- and by
:func:`dispatch_slices` and :func:`occupancy_rows` below.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ExperimentError
from repro.obs.probe import (
    BLOCK,
    DECISION,
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
    dispatches, deschedules, migrations, futex traffic, DVFS changes,
    labeling passes and the schedulers' decisions.
    """

    __slots__ = ("events",)

    kinds = frozenset(
        (DISPATCH, DESCHEDULE, BLOCK, DONE, FUTEX_WAIT, FUTEX_WAKE, DVFS, LABEL,
         DECISION)
    )

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def emit(
        self,
        time: float,
        kind: EventKind,
        core_id: int | None = None,
        tid: int | None = None,
        name: str | None = None,
        **args: object,
    ) -> None:
        """Record one event."""
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

    def hooks(self) -> tuple:
        """The transition table, with DECISION routed to :meth:`decision`."""
        table = list(super().hooks())
        table[DECISION] = self.decision
        return tuple(table)

    def decision(self, kind: int, task, core_id, now: float, factors: dict) -> None:
        """Record one scheduler decision and the factors that drove it."""
        self.events.append(
            TraceEvent(
                time=now,
                kind=EventKind.DECISION,
                core_id=core_id,
                tid=task.tid if task is not None else None,
                name=task.name if task is not None else None,
                args=factors,
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

    def finish(self, machine, makespan: float, fields: dict) -> None:
        """Hand over the trace and the run-level context (topology,
        scheduler, seed, core kinds) the exporters label tracks with."""
        fields["events"] = self.events
        fields["trace_metadata"] = {
            "topology": machine.topology.name,
            "scheduler": machine.scheduler.name,
            "seed": machine.config.seed,
            "cores": {c.core_id: c.kind_name for c in machine.cores},
        }


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


def occupancy_rows(
    result,
    tid_to_app: dict[int, int],
    n_cores: int,
    buckets: int = 64,
) -> dict[int, list[int | None]]:
    """Bucketised per-core occupancy of a traced run (an ASCII Gantt view).

    Args:
        result: A :class:`~repro.sim.machine.RunResult` with a non-empty
            trace.
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
