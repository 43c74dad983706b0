"""Single-run hot path: measure the speedup the PR claims, prove parity.

Two measurements on the paper's reference single-run configuration
(4B4S topology, Random-8 mix):

* wall-clock A/B -- interleaved repeats of the same (workload, seed)
  run with ``MachineConfig(hotpath=False)`` (the reference path, which
  keeps the seed's event-loop costs) and ``hotpath=True`` (tuple-heap
  engine, stale-event suppression, fast discard, event pooling, memoized
  speedup predictions); the ratio of the per-path minima is the reported
  speedup, measured on the ``colab`` scheduler;
* parity sweep -- for all four schedulers (linux, gts, wash, colab) the
  hot path must produce the same :func:`repro.sim.digest.run_digest` as
  the reference path, including with the runtime sanitizer enabled and
  with tracing enabled (traced runs are digested against a traced
  reference, since the digest hashes the DISPATCH records of
  ``RunResult.events``).

Acceptance:

* parity digests identical for every scheduler/variant (always asserted);
* hot path >= 1.3x over reference on (4B4S, Rand-8, colab), asserted
  unless ``REPRO_BENCH_HOTPATH_ASSERT_SPEEDUP=0`` (CI smoke runs at a
  reduced work scale where per-run fixed costs dominate, so it checks
  parity only and records the measured ratio).

Writes ``BENCH_hotpath.json`` at the repo root so CI can diff the perf
trajectory across sessions.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from benchmarks.conftest import BENCH_SEED, bench_artifact, bench_assert, emit
from repro.experiments.runner import standard_topologies
from repro.kernel.task import reset_tid_counter
from repro.model.speedup import OracleSpeedupModel
from repro.obs.context import ObsConfig
from repro.schedulers import make_scheduler
from repro.sim.digest import run_digest
from repro.sim.machine import Machine, MachineConfig
from repro.workloads.mixes import MIXES
from repro.workloads.programs import ProgramEnv

#: The reference single-run configuration of the speedup claim.
TOPOLOGY = "4B4S"
MIX = "Rand-8"
TIMED_SCHEDULER = "colab"
SCHEDULERS = ("linux", "gts", "wash", "colab")

#: Timing work scale: 1.0 is the claim's configuration; CI smoke runs
#: reduce it (and skip the ratio assert -- see module docstring).
SCALE = float(os.environ.get("REPRO_BENCH_HOTPATH_SCALE", "1.0"))
#: Parity runs only need structure, not duration.
PARITY_SCALE = min(SCALE, 0.3)
ROUNDS = int(os.environ.get("REPRO_BENCH_HOTPATH_ROUNDS", "5"))

MIN_HOTPATH_SPEEDUP = 1.3
ASSERT_SPEEDUP = os.environ.get("REPRO_BENCH_HOTPATH_ASSERT_SPEEDUP", "1") == "1"

ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"


def build_machine(
    scheduler: str,
    hotpath: bool,
    work_scale: float,
    sanitize: bool = False,
    trace: bool = False,
) -> Machine:
    """One reference-configuration machine, fully loaded, not yet run.

    The global tid counter is reset per build: task ids are digest
    fields, so every run must allocate the same ids.
    """
    reset_tid_counter()
    topo = standard_topologies()[TOPOLOGY].with_order(True)
    estimator = OracleSpeedupModel(noise_std=0.0, seed=BENCH_SEED)
    if scheduler in ("wash", "colab"):
        sched = make_scheduler(scheduler, estimator=estimator)
    else:
        sched = make_scheduler(scheduler)
    obs = ObsConfig(trace=True, metrics=True) if trace else None
    machine = Machine(
        topo,
        sched,
        MachineConfig(seed=BENCH_SEED, hotpath=hotpath, sanitize=sanitize, obs=obs),
    )
    env = ProgramEnv.for_machine(machine, work_scale=work_scale)
    for inst in MIXES[MIX].instantiate(env):
        machine.add_program(inst)
    return machine


def digest_of(scheduler: str, hotpath: bool, **variant) -> str:
    machine = build_machine(scheduler, hotpath, PARITY_SCALE, **variant)
    return run_digest(machine.run())


def measure() -> dict:
    # -- wall-clock A/B (interleaved so load spikes hit both paths) ------
    build_machine(TIMED_SCHEDULER, True, SCALE).run()  # warmup
    ref_times: list[float] = []
    hot_times: list[float] = []
    counters = {"suppressed": 0, "discarded": 0}
    for _ in range(ROUNDS):
        for hotpath, times in ((False, ref_times), (True, hot_times)):
            machine = build_machine(TIMED_SCHEDULER, hotpath, SCALE)
            started = time.perf_counter()
            machine.run()
            times.append(time.perf_counter() - started)
            if hotpath:
                counters["suppressed"] = machine.events_suppressed
                counters["discarded"] = machine.engine.discarded

    # -- parity sweep ----------------------------------------------------
    parity: dict[str, dict[str, bool]] = {}
    for scheduler in SCHEDULERS:
        reference = digest_of(scheduler, hotpath=False)
        traced_reference = digest_of(scheduler, hotpath=False, trace=True)
        parity[scheduler] = {
            "plain": digest_of(scheduler, hotpath=True) == reference,
            "sanitize": digest_of(scheduler, hotpath=True, sanitize=True)
            == reference,
            "trace": digest_of(scheduler, hotpath=True, trace=True)
            == traced_reference,
        }

    ref_s = min(ref_times)
    hot_s = min(hot_times)
    return {
        "topology": TOPOLOGY,
        "mix": MIX,
        "timed_scheduler": TIMED_SCHEDULER,
        "work_scale": SCALE,
        "rounds": ROUNDS,
        "reference_s": ref_s,
        "hotpath_s": hot_s,
        "hotpath_speedup": ref_s / hot_s,
        "events_suppressed": counters["suppressed"],
        "events_discarded": counters["discarded"],
        "parity": parity,
        "min_hotpath_speedup": MIN_HOTPATH_SPEEDUP,
        "speedup_asserted": ASSERT_SPEEDUP,
    }


def to_artifact(report: dict) -> dict:
    """Map the raw measurement onto the unified BENCH schema."""
    asserts = {
        "hotpath_speedup": bench_assert(
            report["hotpath_speedup"],
            report["min_hotpath_speedup"],
            ">=",
            skipped_reason=(
                None
                if report["speedup_asserted"]
                else "REPRO_BENCH_HOTPATH_ASSERT_SPEEDUP=0"
            ),
        ),
        "events_suppressed": bench_assert(
            report["events_suppressed"], 0, ">"
        ),
        "events_discarded": bench_assert(report["events_discarded"], 0, ">"),
    }
    for scheduler, checks in report["parity"].items():
        for variant, ok in checks.items():
            asserts[f"parity_{scheduler}_{variant}"] = bench_assert(
                ok, True, "=="
            )
    return bench_artifact(
        name="run_hotpath",
        params={
            "topology": report["topology"],
            "mix": report["mix"],
            "timed_scheduler": report["timed_scheduler"],
            "work_scale": report["work_scale"],
            "rounds": report["rounds"],
        },
        timings={
            "reference_s": report["reference_s"],
            "hotpath_s": report["hotpath_s"],
        },
        asserts=asserts,
        derived={
            "hotpath_speedup": report["hotpath_speedup"],
            "events_suppressed": report["events_suppressed"],
            "events_discarded": report["events_discarded"],
        },
    )


def test_run_hotpath_speedup_and_parity(benchmark):
    report = benchmark.pedantic(measure, rounds=1, iterations=1)
    ARTIFACT.write_text(
        json.dumps(to_artifact(report), indent=2, sort_keys=True) + "\n"
    )
    parity_lines = "\n".join(
        f"  parity {name:6s}: "
        + " ".join(
            f"{variant}={'OK' if ok else 'MISMATCH'}"
            for variant, ok in checks.items()
        )
        for name, checks in report["parity"].items()
    )
    emit(
        benchmark,
        f"Single-run hot path ({report['topology']}, {report['mix']}, "
        f"{report['timed_scheduler']}, scale={report['work_scale']})\n"
        f"  reference : {report['reference_s']:7.3f} s\n"
        f"  hot path  : {report['hotpath_s']:7.3f} s "
        f"({report['hotpath_speedup']:.2f}x)\n"
        f"  suppressed pushes : {report['events_suppressed']}\n"
        f"  discarded stale   : {report['events_discarded']}\n"
        f"{parity_lines}\n"
        f"  wrote {ARTIFACT.name}",
        hotpath_speedup=report["hotpath_speedup"],
    )
    for name, checks in report["parity"].items():
        for variant, ok in checks.items():
            assert ok, f"digest mismatch: scheduler={name} variant={variant}"
    assert report["events_suppressed"] > 0, report
    assert report["events_discarded"] > 0, report
    if ASSERT_SPEEDUP:
        assert report["hotpath_speedup"] >= MIN_HOTPATH_SPEEDUP, report
