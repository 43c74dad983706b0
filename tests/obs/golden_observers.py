"""Golden observer outputs: SHA-256 digests of every observer's artifacts.

The fixture ``observers_golden.json`` pins, for each (scheduler, mix) on
2B2S at a small scale with every observer on, the SHA-256 of the
canonical JSON of:

* ``events`` -- the typed trace (``TraceEvent.to_dict`` per record);
* ``chrome`` -- the Chrome/Perfetto document with task and counter tracks;
* ``timeseries`` -- the sim-time timeline snapshot;
* ``attribution`` -- the per-task time-state summary;
* ``metrics`` -- the metrics snapshot (host-time ``profile`` removed),
  with the scheduler counters that moved from ``gauges`` to ``counters``
  (see :data:`MOVED_TO_COUNTERS`) moved back before hashing;
* ``checks_run`` -- how many schedsan checks the run executed.

Regenerate (only when an observer's output is meant to change) with::

    PYTHONPATH=src python -m tests.obs.golden_observers
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib

from repro.experiments.runner import ExperimentContext
from repro.kernel import futex as futex_module
from repro.kernel.task import reset_tid_counter
from repro.model.speedup import OracleSpeedupModel
from repro.obs.context import ObsConfig
from repro.obs.exporters import to_chrome_trace
from repro.sanitize.schedsan import SchedSanitizer
from repro.sim.machine import Machine, MachineConfig
from repro.workloads.mixes import MIXES
from repro.workloads.programs import ProgramEnv
from tests.conftest import observer_of

FIXTURE = pathlib.Path(__file__).with_name("observers_golden.json")

SCHEDULERS = ("linux", "wash", "colab", "gts")
MIXES_COVERED = ("Sync-2", "Rand-1")
CONFIG = "2B2S"
SCALE = 0.1
SEED = 0


def canonical_sha(payload) -> str:
    """SHA-256 of ``payload`` as sorted, compact JSON."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


#: Scheduler metrics the snapshot once published as gauges and now
#: publishes as counters, as the timeline always treated them
#: (``Scheduler.observe`` feeds both).  Names ending in ``.`` are prefixes.
MOVED_TO_COUNTERS = (
    "scheduler.picks",
    "scheduler.steals",
    "scheduler.wakeup_preemptions",
    "colab.label_passes",
    "colab.pick.",
)


def _moved(name: str) -> bool:
    return any(
        name.startswith(m) if m.endswith(".") else name == m
        for m in MOVED_TO_COUNTERS
    )


def comparable_metrics(metrics: dict) -> dict:
    """``metrics`` without ``profile``, moved counters back in ``gauges``."""
    out = {k: v for k, v in metrics.items() if k != "profile"}
    counters = dict(out.get("counters", {}))
    gauges = dict(out.get("gauges", {}))
    for name in [n for n in counters if _moved(n)]:
        gauges[name] = counters.pop(name)
    out["counters"] = counters
    out["gauges"] = gauges
    return out


def sanitizer_checks(machine: Machine) -> int:
    return observer_of(machine, SchedSanitizer).checks_run


def observed_run(scheduler: str, mix: str):
    """One run with tracing, metrics, profiling, schedsan and sampling on."""
    reset_tid_counter()
    # Futex ids appear in trace records; restart them so a run's digests
    # do not depend on what ran earlier in the process.
    futex_module._futex_ids = itertools.count(1)
    ctx = ExperimentContext(
        seed=SEED,
        work_scale=SCALE,
        estimator=OracleSpeedupModel(noise_std=0.0, seed=3),
    )
    machine = Machine(
        ctx.topology(CONFIG, big_first=True),
        ctx.make_scheduler(scheduler),
        MachineConfig(
            seed=SEED,
            obs=ObsConfig(trace=True, metrics=True, profile=True),
            sanitize=True,
            timeseries=True,
        ),
    )
    env = ProgramEnv.for_machine(machine, work_scale=SCALE)
    for instance in MIXES[mix].instantiate(env):
        machine.add_program(instance)
    return machine, machine.run()


def digests(machine: Machine, result) -> dict:
    """The fixture entry of one run."""
    chrome = to_chrome_trace(
        result.events,
        metadata=result.trace_metadata,
        end_time=result.makespan,
        task_tracks=True,
        timeseries=result.timeseries,
    )
    return {
        "events": canonical_sha([e.to_dict() for e in result.events]),
        "chrome": canonical_sha(chrome),
        "timeseries": canonical_sha(result.timeseries),
        "attribution": canonical_sha(result.attribution),
        "metrics": canonical_sha(comparable_metrics(result.metrics)),
        "checks_run": sanitizer_checks(machine),
    }


def generate() -> dict:
    return {
        f"{scheduler}/{mix}": digests(*observed_run(scheduler, mix))
        for scheduler in SCHEDULERS
        for mix in MIXES_COVERED
    }


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(generate(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
