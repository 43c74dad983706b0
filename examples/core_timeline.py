#!/usr/bin/env python3
"""Visualise scheduling decisions as an ASCII per-core timeline.

Runs a small synchronization-heavy mix under Linux CFS and under COLAB
with dispatch tracing enabled, then renders which application occupied
each core over time.  The contrast shows COLAB routing the high-speedup
program to the big cores while still rotating bottleneck threads.

Run with::

    python examples/core_timeline.py
"""

from __future__ import annotations

from repro import (
    Machine,
    MachineConfig,
    ObsConfig,
    ProgramEnv,
    make_scheduler,
    make_topology,
)
from repro.obs.tracer import occupancy_rows
from repro.workloads.benchmarks import instantiate_benchmark

#: One render column per this many simulated milliseconds.
BUCKET_MS = 4.0
WIDTH = 72


def render_timeline(machine, result) -> str:
    """One row per core; letters are app ids, '.' is idle."""
    symbols = {app_id: chr(ord("a") + app_id) for app_id in result.app_names}
    symbols[None] = "."
    n_buckets = min(WIDTH, max(1, int(result.makespan / BUCKET_MS)))
    tid_to_app = {t.tid: t.app_id for t in machine.tasks}
    rows = occupancy_rows(result, tid_to_app, len(machine.cores), n_buckets)

    lines = []
    for core in machine.cores:
        label = f"core{core.core_id}({core.kind.value[0].upper()})"
        cells = "".join(symbols[app] for app in rows[core.core_id])
        lines.append(f"  {label:<9} {cells}")
    return "\n".join(lines)


def run(scheduler_name: str) -> None:
    machine = Machine(
        make_topology(2, 2),
        make_scheduler(scheduler_name),
        MachineConfig(seed=11, obs=ObsConfig(trace=True)),
    )
    env = ProgramEnv.for_machine(machine, work_scale=0.25)
    machine.add_program(instantiate_benchmark("lu_cb", env, 0, n_threads=3))
    machine.add_program(instantiate_benchmark("dedup", env, 1, n_threads=6))
    result = machine.run()
    legend = "  ".join(
        f"{chr(ord('a') + app_id)}={name}" for app_id, name in result.app_names.items()
    )
    print(f"{scheduler_name}:  makespan {result.makespan:.0f} ms   ({legend})")
    print(render_timeline(machine, result))
    print()


def main() -> None:
    print("lu_cb(3, compute-bound) + dedup(6, pipeline) on 2B2S\n")
    for name in ("linux", "colab"):
        run(name)


if __name__ == "__main__":
    main()
