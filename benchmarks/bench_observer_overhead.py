"""Observer overhead: disabled observers must be effectively free.

Every observer of a run -- tracer (with attribution, which rides on
it), metrics, schedsan, the sim-time sampler -- sits behind the one
probe seam (``repro.obs.probe``).  A facility that is off is not built,
and a default run attaches no observer (its probe is the null
``Probe``), so what a facility can still cost a default run is its
guards:

* one ``is None`` check in the engine per event, for an observer with an
  ``event`` hook (schedsan, the sampler);
* one ``is None`` check on the probe's hook table at each hook site of a
  transition kind it watches (``ENQUEUE``, ``EXEC``, ``PICK``,
  ``DRAIN``, the schedulers' ``DECISION``, ...).

For each facility this bench, on a reference run:

* times the run with the facility off and on, on fresh machines each
  round (wall-clock medians over :data:`ROUNDS` rounds);
* counts those guards in a plain run, times that many skipped guards
  against a default run's probe (charged 4x; a median over as many
  rounds), and asserts the bound stays under 5% of the plain run's
  wall time;
* asserts the read-only contract: the outcome (makespan, per-app
  turnaround) is identical with each facility on and off, and so is
  ``run_digest`` for schedsan and sampling, for all four schedulers.

It writes ``BENCH_observers.json`` so ``check_regression.py`` tracks the
trajectory across changes.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time
from collections import Counter

from benchmarks.conftest import bench_artifact, bench_assert, emit
from repro.kernel.task import reset_tid_counter
from repro.obs.context import ObsConfig
from repro.obs.probe import DRAIN, N_KINDS, Probe, combine
from repro.sim.digest import run_digest
from repro.sim.machine import Machine, MachineConfig
from repro.workloads.mixes import MIXES
from repro.workloads.programs import ProgramEnv

#: Reference point: a synchronisation-heavy mix exercises every hook site
#: (runqueue mutations, futex traffic, picks, migrations, decision tiers).
MIX, CONFIG, SCHEDULER = "Sync-2", "2B2S", "colab"
#: Each timing is a median over this many rounds: the runs take tens of
#: milliseconds, so fewer rounds let one slow moment on a shared host
#: move a median by more than ``check_regression.py``'s tolerance.
ROUNDS = 15
#: Acceptance bound: disabled-observer overhead vs the plain run.
MAX_DISABLED_OVERHEAD = 0.05
#: Digest parity is asserted for every policy the paper compares.
PARITY_SCHEDULERS = ("linux", "gts", "wash", "colab")

#: facility -> the MachineConfig switches turning it on.
FACILITIES = {
    "obs": {"obs": ObsConfig(trace=True, metrics=True)},
    "sanitize": {"sanitize": True},
    "timeseries": {"timeseries": True},
}
#: Facilities whose runs must keep ``run_digest``.  Tracing is not among
#: them: the DISPATCH records of ``RunResult.events`` are digest
#: material, so ``obs`` is held to the outcome check only.
DIGEST_NEUTRAL = ("sanitize", "timeseries")

ARTIFACT = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_observers.json"
)


class _KindCounter(Probe):
    """Counts transitions by kind (attached beside the machine's probe)."""

    def __init__(self) -> None:
        self.seen: Counter = Counter()

    def transition(self, kind, task, where, now, detail) -> None:
        self.seen[kind] += 1


def build(ctx, scheduler: str, **switches) -> Machine:
    """A fresh reference machine; task ids restart so digests compare."""
    reset_tid_counter()
    machine = Machine(
        ctx.topology(CONFIG, big_first=True),
        ctx.make_scheduler(scheduler),
        MachineConfig(seed=ctx.seed, **switches),
    )
    env = ProgramEnv.for_machine(machine, work_scale=ctx.work_scale)
    for instance in MIXES[MIX].instantiate(env):
        machine.add_program(instance)
    return machine


def timed_run(ctx, scheduler: str = SCHEDULER, **switches):
    """Wall-clock one fresh reference run; returns (seconds, result)."""
    machine = build(ctx, scheduler, **switches)
    started = time.perf_counter()
    result = machine.run()
    return time.perf_counter() - started, result


def transition_counts(ctx) -> tuple[Counter, int]:
    """Transitions by kind, and events processed, in a plain reference run."""
    machine = build(ctx, SCHEDULER)
    counter = _KindCounter()
    # Widen every hook site's table (the machine's own, each runqueue's
    # and the futex table's) so the counter sees all kinds.
    hooks = combine([machine.probe, counter]).hooks()
    machine.hooks = machine.futexes.hooks = hooks
    for core in machine.cores:
        core.rq.hooks = hooks
    result = machine.run()
    return counter.seen, result.events_processed


def facility_guards(
    ctx, switches: dict, counts: Counter, events: int
) -> tuple[int, int]:
    """The (hook-site, engine) guards a run with the facility off still
    executes for it."""
    plain = build(ctx, SCHEDULER).probe
    on = build(ctx, SCHEDULER, **switches).probe
    plain_hooks, on_hooks = plain.hooks(), on.hooks()
    sites = sum(
        counts[kind]
        for kind in range(N_KINDS)
        if on_hooks[kind] is not None and plain_hooks[kind] is None
    )
    return sites, (events if on.event is not None else 0)


def guard_cost_seconds(ctx, sites: int, events: int) -> float:
    """Wall time of that many skipped guards on a default run's probe."""
    probe = build(ctx, SCHEDULER).probe
    hooks = probe.hooks()
    started = time.perf_counter()
    for _ in range(sites):
        hook = hooks[DRAIN]
        if hook is not None:
            hook(DRAIN, None, None, None, None)
    for _ in range(events):
        on_event = probe.event if probe is not None else None
        if on_event is not None:
            on_event(None, 0.0)
    return time.perf_counter() - started


def measure(ctx) -> dict:
    plain_times = []
    on_times: dict[str, list[float]] = {name: [] for name in FACILITIES}
    outcome_identical = True
    for _ in range(ROUNDS):
        seconds, plain = timed_run(ctx)
        plain_times.append(seconds)
        for name, switches in FACILITIES.items():
            seconds, result = timed_run(ctx, **switches)
            on_times[name].append(seconds)
            outcome_identical &= result.makespan == plain.makespan and (
                result.app_turnaround == plain.app_turnaround
            )

    plain_s = statistics.median(plain_times)
    counts, events = transition_counts(ctx)
    plain_digests = {
        scheduler: run_digest(timed_run(ctx, scheduler)[1])
        for scheduler in PARITY_SCHEDULERS
    }
    report: dict = {
        "mix": MIX,
        "config": CONFIG,
        "scheduler": SCHEDULER,
        "rounds": ROUNDS,
        "plain_run_s": plain_s,
        "events_processed": plain.events_processed,
        "outcome_bit_identical": outcome_identical,
        "facilities": {},
    }
    for name, switches in FACILITIES.items():
        sites, event_guards = facility_guards(ctx, switches, counts, events)
        guards = sites + event_guards
        guard_checks = guards * 4
        guard_s = statistics.median(
            guard_cost_seconds(ctx, sites * 4, event_guards * 4)
            for _ in range(ROUNDS)
        )
        on_s = statistics.median(on_times[name])
        parity = {
            scheduler: run_digest(timed_run(ctx, scheduler, **switches)[1])
            == digest
            for scheduler, digest in plain_digests.items()
            if name in DIGEST_NEUTRAL
        }
        report["facilities"][name] = {
            "enabled_run_s": on_s,
            "enabled_over_disabled": on_s / plain_s,
            "guards": guards,
            "guard_checks_timed": guard_checks,
            "guard_cost_s": guard_s,
            "disabled_overhead_fraction": guard_s / plain_s,
            "digest_parity": parity,
            "digest_parity_all": all(parity.values()),
        }
    return report


def to_artifact(report: dict) -> dict:
    """Map the raw measurement onto the unified BENCH schema."""
    timings = {"plain_run_s": report["plain_run_s"]}
    asserts = {
        "outcome_bit_identical": bench_assert(
            report["outcome_bit_identical"], True, "=="
        ),
    }
    derived: dict = {"events_processed": report["events_processed"]}
    for name, facility in report["facilities"].items():
        timings[f"{name}.enabled_run_s"] = facility["enabled_run_s"]
        timings[f"{name}.guard_cost_s"] = facility["guard_cost_s"]
        asserts[f"{name}.disabled_overhead_fraction"] = bench_assert(
            facility["disabled_overhead_fraction"], MAX_DISABLED_OVERHEAD, "<"
        )
        if name in DIGEST_NEUTRAL:
            asserts[f"{name}.digest_parity_all"] = bench_assert(
                float(facility["digest_parity_all"]), 1.0, ">="
            )
        for key in (
            "enabled_over_disabled", "guards", "guard_checks_timed",
            "disabled_overhead_fraction", "digest_parity",
        ):
            derived[f"{name}.{key}"] = facility[key]
    return bench_artifact(
        name="observer_overhead",
        params={
            "mix": report["mix"],
            "config": report["config"],
            "scheduler": report["scheduler"],
            "rounds": report["rounds"],
        },
        timings=timings,
        asserts=asserts,
        derived=derived,
    )


def test_observer_disabled_overhead(benchmark, ctx):
    report = benchmark.pedantic(lambda: measure(ctx), rounds=1, iterations=1)
    ARTIFACT.write_text(
        json.dumps(to_artifact(report), indent=2, sort_keys=True) + "\n"
    )
    lines = [
        f"Observer overhead ({report['events_processed']} events at the "
        f"reference point, plain run {report['plain_run_s'] * 1e3:.1f} ms)"
    ]
    for name, facility in report["facilities"].items():
        parity = " ".join(
            f"{sched}={'ok' if ok else 'MISMATCH'}"
            for sched, ok in facility["digest_parity"].items()
        )
        lines.append(
            f"  {name:<10} on {facility['enabled_run_s'] * 1e3:8.1f} ms "
            f"({facility['enabled_over_disabled']:.2f}x); off costs "
            f"<= {facility['guard_cost_s'] * 1e6:8.1f} us "
            f"({facility['disabled_overhead_fraction'] * 100:.3f}%); {parity}"
        )
    lines.append(f"  wrote {ARTIFACT.name}")
    emit(benchmark, "\n".join(lines))
    assert report["outcome_bit_identical"], "an observer changed the outcome"
    for name, facility in report["facilities"].items():
        # Every facility leaves guards behind; none may go uncounted.
        assert facility["guards"], name
        if name in DIGEST_NEUTRAL:
            assert facility["digest_parity_all"], (name, facility["digest_parity"])
        assert (
            facility["disabled_overhead_fraction"] < MAX_DISABLED_OVERHEAD
        ), (name, facility)
