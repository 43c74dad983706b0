"""Behavioural digest of a :class:`~repro.sim.machine.RunResult`.

:func:`run_digest` hashes every *behavioural* field of a run -- schedule
outcomes, per-task accounting, per-core residency, and the DISPATCH
records of a traced run's ``events`` -- into one hex string.  Two runs
are scheduling-equivalent iff their digests match; the stored digests
under ``hostbench/expected/`` and the observer-neutrality fuzz test use
this to assert that a change to the simulator or an enabled observer
leaves behaviour bit-identical.

Floats are hashed through ``repr`` (the shortest round-tripping form), so
any bit-level drift in a single accounting value changes the digest.

Deliberately excluded fields are enumerated (with rationales) in
:data:`DIGEST_EXCLUDED_FIELDS`.  A test changes each ``RunResult`` and
``TaskStats`` field in turn and asserts that the digest changes exactly
when the field is not named there.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

from repro.obs.tracer import EventKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.machine import RunResult

#: RunResult fields :func:`run_digest` deliberately does not hash, with
#: the contract that keeps each exclusion sound:
#:
#: * ``scheduler_stats`` -- a policy-specific stats object with no stable
#:   canonical form; every behavioural quantity it derives from (switches,
#:   migrations, per-task accounting) is hashed via its own field.
#: * ``trace_metadata`` -- exporter context (topology, scheduler, seed,
#:   core kinds) fixed by the run's inputs.
#: * ``events_processed`` / ``events_discarded`` / ``events_suppressed``
#:   / ``metrics`` -- engine bookkeeping counters; they count how stale
#:   events were suppressed or discarded, which an engine optimisation
#:   may change without changing behaviour.
#: * ``attribution`` -- observational per-task time accounting, derived
#:   from the same dispatch stream the digest already hashes.
#: * ``timeseries`` -- observational windowed aggregates sampled from the
#:   same event stream by a read-only hook; whether sampling ran (and at
#:   what cadence) changes no behavioural outcome, which the sampling
#:   on/off parity tests pin for all four schedulers.
#:
#: ``events`` is hashed only in part: of a traced run's typed records just
#: the DISPATCH ``(time, core_id, tid)`` triples, which pin who ran where
#: and when.  The other kinds carry observational payloads (names,
#: reasons, factor scores) around outcomes already hashed above.
DIGEST_EXCLUDED_FIELDS = (
    "attribution",
    "events_discarded",
    "events_processed",
    "events_suppressed",
    "metrics",
    "scheduler_stats",
    "timeseries",
    "trace_metadata",
)


def run_digest(result: "RunResult") -> str:
    """SHA-256 over the behavioural fields of ``result``."""
    hasher = hashlib.sha256()

    def put(*parts: object) -> None:
        for part in parts:
            hasher.update(repr(part).encode())
            hasher.update(b"\x1f")

    put("topology", result.topology_name)
    put("scheduler", result.scheduler_name)
    put("makespan", result.makespan)
    for app_id in sorted(result.app_turnaround):
        put(
            "app",
            app_id,
            result.app_names.get(app_id, ""),
            result.app_turnaround[app_id],
        )
    for t in result.tasks:
        put(
            "task",
            t.tid,
            t.name,
            t.app_id,
            t.finish_time,
            t.cpu_time_big,
            t.cpu_time_little,
            t.work_done,
            t.own_wait_time,
            t.caused_wait_time,
            t.migrations,
        )
    put("context_switches", result.total_context_switches)
    put("migrations", result.total_migrations)
    for core_id in sorted(result.core_busy_time):
        put("busy", core_id, result.core_busy_time[core_id])
    for core_id in sorted(result.core_busy_by_scale):
        residency = result.core_busy_by_scale[core_id]
        for scale in sorted(residency):
            put("busy_scale", core_id, scale, residency[scale])
    for e in result.events:
        if e.kind is EventKind.DISPATCH:
            put("dispatch", e.time, e.core_id, e.tid)
    return hasher.hexdigest()
