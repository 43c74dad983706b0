#!/usr/bin/env python3
"""Extension demo: energy and fairness views of a scheduling decision.

Runs one Table 4 mix under all four policies (Linux CFS, ARM GTS, WASH,
COLAB) and reports, side by side:

* H_ANTT (the paper's turnaround metric, lower = better),
* Jain's fairness index over per-application progress (1.0 = perfectly
  even treatment),
* energy and energy-delay product under an A57/A53-like power model.

Run with::

    python examples/energy_and_fairness.py [MIX] [CONFIG]
"""

from __future__ import annotations

import sys

from repro.experiments.runner import ExperimentContext, evaluate_mix, run_mix_once
from repro.metrics.turnaround import fairness_index
from repro.sim.energy import energy_of
from repro.sim.topology import standard_topologies
from repro.workloads.mixes import MIXES

SCHEDULERS = ("linux", "gts", "wash", "colab")


def main() -> None:
    mix_index = sys.argv[1] if len(sys.argv) > 1 else "Comp-4"
    config = sys.argv[2] if len(sys.argv) > 2 else "2B2S"
    mix = MIXES[mix_index]
    topology = standard_topologies()[config]
    print(f"workload: {mix}\nconfiguration: {config}\n")

    ctx = ExperimentContext(seed=42, work_scale=0.5)
    baselines = ctx.baselines_for(mix, config)

    header = f"{'scheduler':<10} {'H_ANTT':>8} {'fairness':>9} {'energy J':>9} {'EDP Js':>8}"
    print(header)
    for scheduler in SCHEDULERS:
        metrics = evaluate_mix(ctx, mix_index, config, scheduler)
        fairness = fairness_index(metrics.turnarounds, baselines)
        result = run_mix_once(ctx, mix, config, scheduler, big_first=True)
        report = energy_of(result, topology.with_order(True))
        print(
            f"{scheduler:<10} {metrics.h_antt:>8.3f} {fairness:>9.3f} "
            f"{report.total_j:>9.2f} {report.edp:>8.2f}"
        )
    print(
        "\nCOLAB trades a little extra big-core energy for turnaround and "
        "fairness; GTS is AMP-aware but blind to criticality."
    )


if __name__ == "__main__":
    main()
