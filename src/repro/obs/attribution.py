"""Per-task time-state attribution and decision→outcome linkage.

The paper's explanations are stated in time-attribution terms: COLAB wins
because bottleneck threads spend less time runnable-behind-big-queues, and
loses on thread-overloaded systems because extra migrations burn time in
cache-warmup penalties (Section 5).  This module gives every run that
vocabulary: for each task, its turnaround is decomposed into seven
mutually exclusive states --

======================  ==================================================
state                   meaning
======================  ==================================================
``running_big``         executing on a big core (penalty already consumed)
``running_little``      executing on a little core
``runnable_big``        READY, queued on a big core's runqueue
``runnable_little``     READY, queued on a little core's runqueue
``blocked_futex``       parked on a futex (lock/barrier/cond/pipe)
``blocked_sleep``       in a timed sleep
``migrating``           consuming pending context-switch/migration penalty
======================  ==================================================

The account is observational, deliberately outside
:func:`repro.sim.digest.run_digest` and the cache fingerprints, and rides
on the trace: :class:`AttributionAccounting` is a
:class:`~repro.obs.probe.Probe` the machine attaches only when tracing is
on (``ObsConfig(trace=True)``, as ``repro report`` runs), so untraced runs
pay nothing for it.  It turns the transitions the machine, runqueues and
futex table report into state windows.

Each task's timeline lives in the accounting object, keyed by tid, and
only its methods write it.  State times telescope over transition
timestamps, so each task's state sum equals its turnaround up to
float-addition rounding (~1e-9 ms per transition).

The second half of the module links DECISION trace events (``colab_pick``
tiers, ``wash_affinity`` flips, ``idle_balance`` steals) to the placement
they produced -- the next dispatch of the decided task, its core kind, how
long the task then held the core, and why it let go -- yielding the
per-scheduler "decision quality" tables surfaced by ``repro report``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Iterable

from repro.obs.probe import (
    BLOCK,
    DISPATCH,
    DONE,
    ENQUEUE,
    EXEC,
    FUTEX_WAIT,
    SPAWN,
    Probe,
)
from repro.obs.tracer import EventKind, TraceEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.task import Task

#: Attribution summary layout version (bump on breaking changes).
ATTRIBUTION_SCHEMA_VERSION = 1

# State codes: indices into a task's timeline list.  Kept as plain ints so
# the per-event accounting is a fixed-offset list write, not an enum hash.
RUNNING_BIG = 0
RUNNING_LITTLE = 1
RUNNABLE_BIG = 2
RUNNABLE_LITTLE = 3
BLOCKED_FUTEX = 4
BLOCKED_SLEEP = 5
MIGRATING = 6
N_STATES = 7

#: Index-aligned state names used in summaries and reports.
STATE_NAMES = (
    "running_big",
    "running_little",
    "runnable_big",
    "runnable_little",
    "blocked_futex",
    "blocked_sleep",
    "migrating",
)

#: Code meaning "no open state window" (before first enqueue / after done).
NO_STATE = -1

#: Timeline slots after the seven state times: the open state's code and
#: the start of its window.
OPEN_STATE = N_STATES
WINDOW_START = N_STATES + 1


class AttributionAccounting(Probe):
    """The single owner of every task's attribution timeline.

    As a probe it maps the machine's transitions onto state windows;
    the state methods below are also usable directly.  All hooks are O(1)
    and allocation-free after :meth:`begin`, because they run inside the
    simulator's hottest paths.

    Args:
        machine: The machine to observe: its engine clock times runqueue
            entries and its core kinds pick the runnable state.  Only
            needed when attached as a probe.
    """

    __slots__ = ("timelines", "futex_waits", "_clock", "_runnable", "_sleep")

    kinds = frozenset((SPAWN, ENQUEUE, DISPATCH, EXEC, BLOCK, DONE, FUTEX_WAIT))

    def __init__(self, machine=None) -> None:
        # Imported here: the workloads package imports the kernel, which
        # imports this package.
        from repro.workloads.actions import Sleep

        self._sleep = Sleep
        #: tid -> the task's timeline: the seven state times (ms), then
        #: the open state (:data:`OPEN_STATE`) and the start of its window
        #: (:data:`WINDOW_START`).
        self.timelines: dict[int, list] = {}
        #: tid -> number of futex parks (wait-side hook, kernel/futex.py).
        self.futex_waits: dict[int, int] = {}
        self._clock = machine.engine if machine is not None else None
        #: core id -> the runnable state of a task queued there.
        self._runnable = (
            [RUNNABLE_BIG if c.is_big else RUNNABLE_LITTLE for c in machine.cores]
            if machine is not None
            else []
        )

    # -- probe ---------------------------------------------------------
    def hooks(self) -> tuple:
        """The transition table, with EXEC routed straight to :meth:`on_exec`.

        EXEC comes once per accounting step, the most frequent kind, so
        it skips :meth:`transition`'s dispatch on ``kind``.
        """
        table = list(super().hooks())
        table[EXEC] = self.on_exec
        return tuple(table)

    def transition(self, kind: int, task, where, now, detail) -> None:
        if kind == ENQUEUE:
            self.enter(task, self._runnable[where.core_id], self._clock.now)
        elif kind == DISPATCH:
            self.enter(task, RUNNING_BIG if where.is_big else RUNNING_LITTLE, now)
        elif kind == BLOCK:
            self.enter(
                task,
                BLOCKED_SLEEP if isinstance(detail, self._sleep) else BLOCKED_FUTEX,
                now,
            )
        elif kind == SPAWN:
            self.begin(task, now)
        elif kind == DONE:
            self.enter(task, NO_STATE, now)
        elif kind == FUTEX_WAIT:
            self.note_futex_wait(task)

    def finish(self, machine, makespan: float, fields: dict) -> None:
        fields["attribution"] = summarize_attribution(machine.tasks, self)

    # -- lifecycle -----------------------------------------------------
    def begin(self, task: "Task", now: float) -> list:
        """Open the timeline at spawn; the first enqueue sets the state."""
        timeline = [0.0] * N_STATES + [NO_STATE, now]
        self.timelines[task.tid] = timeline
        return timeline

    def enter(self, task: "Task", state: int, now: float) -> None:
        """Close the open state window (if any) and enter ``state``.

        A task never passed through :meth:`begin` (hand-built in a unit
        test, enqueued straight onto a runqueue) gets its timeline opened
        here -- the machine always begins tasks at their spawn wakeup.
        """
        try:
            timeline = self.timelines[task.tid]
        except KeyError:
            timeline = self.begin(task, now)
        prev = timeline[OPEN_STATE]
        if prev >= 0:
            timeline[prev] += now - timeline[WINDOW_START]
        timeline[OPEN_STATE] = state
        timeline[WINDOW_START] = now

    def on_exec(
        self, kind: int, task: "Task", core, now: float, penalty_used: float
    ) -> None:
        """The EXEC hook: split one window accounted by ``_account``.

        EXEC is reported before ``core.run_started`` moves, so the window
        ``now - core.run_started`` is exactly the machine's ``elapsed``
        (and equals ``now`` minus the window start: the machine keeps the
        two in lockstep).  The penalty share is migration/switch overhead,
        the rest productive running.
        """
        running_state = RUNNING_BIG if core.is_big else RUNNING_LITTLE
        elapsed = now - core.run_started
        try:
            timeline = self.timelines[task.tid]
        except KeyError:
            timeline = self.begin(task, now - elapsed)
        timeline[MIGRATING] += penalty_used
        timeline[running_state] += elapsed - penalty_used
        timeline[OPEN_STATE] = running_state
        timeline[WINDOW_START] = now

    # -- futex wait-side counter (kernel/futex.py hook) ----------------
    def note_futex_wait(self, task: "Task") -> None:
        waits = self.futex_waits
        waits[task.tid] = waits.get(task.tid, 0) + 1


def summarize_attribution(
    tasks: Iterable["Task"], accounting: AttributionAccounting
) -> dict:
    """JSON-able per-task + aggregate attribution summary of one run.

    Each task's ``state_ms`` decomposes its turnaround
    (``finish_time - spawn_time``); ``residual_ms`` is the float-telescoping
    leftover (zero up to addition rounding), exposed rather than hidden so
    tests can assert on it.
    """
    rows = []
    totals = [0.0] * N_STATES
    timelines = accounting.timelines
    for task in tasks:
        timeline = timelines.get(task.tid)
        if timeline is None:
            continue
        attr = timeline[:N_STATES]
        finish = task.finish_time if task.finish_time is not None else 0.0
        turnaround = finish - task.spawn_time
        for index in range(N_STATES):
            totals[index] += attr[index]
        rows.append(
            {
                "tid": task.tid,
                "name": task.name,
                "app_id": task.app_id,
                "spawn_ms": task.spawn_time,
                "finish_ms": finish,
                "turnaround_ms": turnaround,
                "state_ms": {
                    STATE_NAMES[i]: attr[i] for i in range(N_STATES)
                },
                "residual_ms": turnaround - sum(attr),
                "migrations": task.migrations,
                "futex_waits": accounting.futex_waits.get(task.tid, 0),
            }
        )
    return {
        "schema_version": ATTRIBUTION_SCHEMA_VERSION,
        "states": list(STATE_NAMES),
        "tasks": rows,
        "totals_ms": {STATE_NAMES[i]: totals[i] for i in range(N_STATES)},
    }


# ----------------------------------------------------------------------
# Decision -> outcome linkage
# ----------------------------------------------------------------------

#: DESCHEDULE reasons that return the task to a runqueue (vs. blocking).
_RUNNABLE_REASONS = ("slice_expiry", "wakeup_preemption", "forced_preemption")


def _decision_detail(event: TraceEvent) -> str:
    """The per-decision grouping key within one decision op."""
    args = event.args or {}
    op = args.get("op")
    if op == "colab_pick":
        return f"tier={args.get('tier')}"
    if op == "wash_affinity":
        return "pin=big" if args.get("pinned_big") else "pin=little"
    if op == "idle_balance":
        return "steal"
    return ""


def link_decisions(
    events: list[TraceEvent],
    metadata: dict | None = None,
    end_time: float | None = None,
) -> list[dict]:
    """Join each DECISION event to the placement outcome it produced.

    For every DECISION carrying a tid, finds that task's next DISPATCH at
    or after the decision time (the placement the decision produced), the
    matching end of that occupancy (next DESCHEDULE of the tid), and
    reports dispatch latency, core kind, held time, and the end reason.

    Returns one record per linked decision::

        {"op", "detail", "time", "tid", "dispatch_latency_ms",
         "core_id", "core_kind", "held_ms", "end_reason"}

    Decisions whose task never dispatches again (e.g. a wash_affinity
    update on a finishing task) are dropped.
    """
    metadata = metadata or {}
    core_kinds: dict = metadata.get("cores", {})
    if end_time is None:
        end_time = events[-1].time if events else 0.0

    # Per-tid dispatch/deschedule timelines (emission order == time order).
    dispatches: dict[int, list[tuple[float, int]]] = {}
    deschedules: dict[int, list[tuple[float, str]]] = {}
    for event in events:
        if event.kind is EventKind.DISPATCH:
            dispatches.setdefault(event.tid, []).append(
                (event.time, event.core_id)
            )
        elif event.kind is EventKind.DESCHEDULE:
            reason = (event.args or {}).get("reason", "")
            deschedules.setdefault(event.tid, []).append((event.time, reason))

    records: list[dict] = []
    for event in events:
        if event.kind is not EventKind.DECISION or event.tid is None:
            continue
        timeline = dispatches.get(event.tid)
        if not timeline:
            continue
        index = bisect_left(timeline, (event.time, -1))
        if index >= len(timeline):
            continue
        dispatch_time, core_id = timeline[index]
        held_end = end_time
        end_reason = "run_end"
        tid_deschedules = deschedules.get(event.tid, ())
        start = bisect_left(tid_deschedules, (dispatch_time, ""))
        for desched_time, reason in tid_deschedules[start:]:
            if desched_time > dispatch_time or reason in ("done", "blocked"):
                held_end = desched_time
                end_reason = reason
                break
        kind = core_kinds.get(core_id, core_kinds.get(str(core_id), ""))
        records.append(
            {
                "op": (event.args or {}).get("op", ""),
                "detail": _decision_detail(event),
                "time": event.time,
                "tid": event.tid,
                "dispatch_latency_ms": dispatch_time - event.time,
                "core_id": core_id,
                "core_kind": kind,
                "held_ms": held_end - dispatch_time,
                "end_reason": end_reason,
            }
        )
    return records


def decision_quality(linked: list[dict]) -> list[dict]:
    """Aggregate linked decisions into per-(op, detail) quality rows.

    Each row reports how many decisions the group saw, how quickly their
    tasks reached a core, where they landed (big-core share), how long
    they held it, and the end-reason mix -- the "did the decision pay off"
    table of ``repro report``.
    """
    groups: dict[tuple[str, str], list[dict]] = {}
    for record in linked:
        groups.setdefault((record["op"], record["detail"]), []).append(record)
    rows = []
    for (op, detail), members in sorted(groups.items()):
        count = len(members)
        latencies = [m["dispatch_latency_ms"] for m in members]
        held = [m["held_ms"] for m in members]
        big = sum(1 for m in members if m["core_kind"] == "big")
        reasons: dict[str, int] = {}
        for member in members:
            reason = member["end_reason"]
            reasons[reason] = reasons.get(reason, 0) + 1
        rows.append(
            {
                "op": op,
                "detail": detail,
                "count": count,
                "mean_dispatch_latency_ms": sum(latencies) / count,
                "max_dispatch_latency_ms": max(latencies),
                "mean_held_ms": sum(held) / count,
                "big_share": big / count,
                "end_reasons": dict(sorted(reasons.items())),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Trace-derived per-task state timeline (Perfetto annotation tracks)
# ----------------------------------------------------------------------

def task_state_slices(
    events: list[TraceEvent],
    metadata: dict | None = None,
    end_time: float | None = None,
) -> list[tuple[float, float, int, str, str]]:
    """Reconstruct per-task state segments from a traced run.

    Returns ``(start, end, tid, task_name, state_name)`` tuples covering
    each task's life from first dispatch-relevant event to ``end_time``.
    Wait states are classified from the event stream: a DESCHEDULE with
    reason ``blocked`` whose tid has a FUTEX_WAIT at the same timestamp is
    ``blocked_futex``, otherwise ``blocked_sleep``; preemption/expiry
    deschedules open ``runnable_*`` segments on the descheduling core's
    kind.  (The counter-based attribution in :class:`RunResult.attribution`
    is authoritative for totals -- it also splits out ``migrating`` time,
    which the event stream cannot see; these slices exist to draw
    annotation tracks in the Perfetto exporter.)
    """
    metadata = metadata or {}
    core_kinds: dict = metadata.get("cores", {})
    if end_time is None:
        end_time = events[-1].time if events else 0.0

    def kind_of(core_id) -> str:
        return core_kinds.get(core_id, core_kinds.get(str(core_id), "big"))

    futex_wait_at: set[tuple[int, float]] = {
        (e.tid, e.time) for e in events if e.kind is EventKind.FUTEX_WAIT
    }
    slices: list[tuple[float, float, int, str, str]] = []
    open_state: dict[int, tuple[float, str, str]] = {}  # tid -> (start, state, name)

    def close(tid: int, now: float) -> None:
        opened = open_state.pop(tid, None)
        if opened is not None:
            start, state, name = opened
            if now > start:
                slices.append((start, now, tid, name, state))

    for event in events:
        tid = event.tid
        if tid is None:
            continue
        if event.kind is EventKind.DISPATCH:
            close(tid, event.time)
            state = "running_" + kind_of(event.core_id)
            open_state[tid] = (event.time, state, event.name or f"tid {tid}")
        elif event.kind is EventKind.DESCHEDULE:
            close(tid, event.time)
            reason = (event.args or {}).get("reason", "")
            name = event.name or f"tid {tid}"
            if reason in _RUNNABLE_REASONS:
                state = "runnable_" + kind_of(event.core_id)
                open_state[tid] = (event.time, state, name)
            elif reason == "blocked":
                if (tid, event.time) in futex_wait_at:
                    state = "blocked_futex"
                else:
                    state = "blocked_sleep"
                open_state[tid] = (event.time, state, name)
            # reason == "done": task ended; leave closed.
        elif event.kind is EventKind.FUTEX_WAKE:
            close(tid, event.time)
            state = "runnable_" + kind_of(event.core_id)
            open_state[tid] = (event.time, state, event.name or f"tid {tid}")
    for tid in list(open_state):
        close(tid, end_time)
    slices.sort(key=lambda s: (s[2], s[0]))
    return slices


# ----------------------------------------------------------------------
# Report rendering
# ----------------------------------------------------------------------

def render_attribution(summary: dict, top: int = 12) -> str:
    """Fixed-width text table of a :func:`summarize_attribution` summary."""
    states = summary["states"]
    header = f"{'task':<24}{'turnaround':>11}" + "".join(
        f"{s:>16}" for s in states
    )
    lines = [header, "-" * len(header)]
    tasks = sorted(
        summary["tasks"], key=lambda r: r["turnaround_ms"], reverse=True
    )
    for row in tasks[:top]:
        cells = "".join(f"{row['state_ms'][s]:>16.2f}" for s in states)
        lines.append(
            f"{row['name']:<24}{row['turnaround_ms']:>11.2f}{cells}"
        )
    if len(tasks) > top:
        lines.append(f"... {len(tasks) - top} more tasks")
    totals = summary["totals_ms"]
    cells = "".join(f"{totals[s]:>16.2f}" for s in states)
    lines.append("-" * len(header))
    lines.append(f"{'TOTAL':<24}{'':>11}{cells}")
    return "\n".join(lines)


def render_decision_quality(rows: list[dict]) -> str:
    """Fixed-width text table of :func:`decision_quality` rows."""
    if not rows:
        return "(no linked scheduler decisions -- trace had no DECISION events)"
    header = (
        f"{'decision':<16}{'detail':<14}{'count':>6}{'latency':>9}"
        f"{'held':>9}{'big%':>7}  end reasons"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        reasons = " ".join(
            f"{k}:{v}" for k, v in row["end_reasons"].items()
        )
        lines.append(
            f"{row['op']:<16}{row['detail']:<14}{row['count']:>6}"
            f"{row['mean_dispatch_latency_ms']:>8.3f} "
            f"{row['mean_held_ms']:>8.2f} {row['big_share']:>6.0%}  {reasons}"
        )
    return "\n".join(lines)
