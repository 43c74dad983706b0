"""Host-time benchmark of the simulator: run one workload, print one result.

From the repository root::

    python3 hostbench/run.py --workload {dense,sparse,observed} --seed N \
        --seconds S --trace {0,1}

Every process this starts runs alone and serially: an untimed warm-up,
set-up probes, then one process that sets up and sweeps the workload
(``--trace 0``) or profiles it (``--trace 1``).  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
Without the program's source (``src/repro``), or when a process fails,
it exits nonzero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from hostbench.stats import percentile, samples_beyond  # noqa: E402
from hostbench.workloads import WORKLOADS, input_seed  # noqa: E402

#: The metrics to print: ``end_to_end`` untraced, ``per_layer`` traced.
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Set-up is timed in this many fresh processes; the last one also sweeps.
SETUP_SAMPLES = 3

#: Wall-clock budget of one invocation, seconds.
BUDGET_S = 175.0

#: One busy process: keep numeric libraries from starting thread pools.
SERIAL_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class ProcessFailed(RuntimeError):
    pass


def start(mode: str, workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Run ``hostbench.measure`` in a fresh process; its last output line."""
    command = [
        sys.executable, "-m", "hostbench.measure", mode,
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env={**os.environ, **SERIAL_ENV},
            stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ProcessFailed(f"{mode} process exceeded the time budget") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise ProcessFailed(f"{mode} process exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(setups: list[float], out: dict) -> dict[str, float]:
    """End-to-end metrics; every time at the reference speed."""
    run_s = out["run_ref_s"]
    return {
        "setup_s": statistics.median(setups),
        "sweep_s": statistics.median(out["sweep_ref_s"]),
        "run_ms_p50": percentile(run_s, 0.5) * 1000.0,
        "run_ms_p90": percentile(run_s, 0.9) * 1000.0,
        "sim_s_per_s": statistics.median(
            sim / wall for sim, wall in zip(out["sim_s"], out["sweep_ref_s"])
        ),
        "peak_rss_mb": out["peak_rss_mb"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 hostbench/run.py")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("hostbench: program source src/repro not found", file=sys.stderr)
        return 2

    spec = json.loads(SPEC_PATH.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + BUDGET_S
    seed = input_seed(args.seed)
    try:
        start("warmup", args.workload, seed, args.seconds, deadline)
        if args.trace:
            out = start("trace", args.workload, seed, args.seconds, deadline)
            metrics = out["metrics"]
            print(f"trace report: {out['report']} (and .md)")
        else:
            setups = [
                start("setup", args.workload, seed, args.seconds, deadline)["setup_ref_s"]
                for _ in range(SETUP_SAMPLES - 1)
            ]
            out = start("measure", args.workload, seed, args.seconds, deadline)
            setups.append(out["setup"]["setup_ref_s"])
            metrics = end_to_end(setups, out)
            n = len(out["run_ref_s"])
            print(
                f"{args.workload} (input seed {seed}): {len(out['sweep_s'])} sweep(s), "
                f"{n} timed runs; p90 has {samples_beyond(n, 0.9)} samples beyond it; "
                f"set-up median of {len(setups)} processes; wall sweep_s "
                f"{statistics.median(out['sweep_s']):.3f}; reference kernel "
                f"{out['kernel_ms']:.3f} ms"
            )
    except ProcessFailed as exc:
        print(f"hostbench: {exc}", file=sys.stderr)
        return 1
    for problem in out["problems"]:
        print(f"hostbench: FAILED {problem}", file=sys.stderr)
    print(f"{out['failed']} failed of {out['attempted']} runs")
    print(json.dumps({
        "correct": out["failed"] == 0 and not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            metric["name"]: {"value": metrics[metric["name"]], "unit": metric["unit"]}
            for metric in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
