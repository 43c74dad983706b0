"""Steadiness helper: how much the benchmark's figures move between runs.

From the repository root::

    python3 hostbench/steady.py run --workload dense --runs 10 --out a.json
    python3 hostbench/steady.py compare a.json b.json

``run`` calls ``run.py`` once per seed (``--first-seed`` onwards), one
process at a time, with ``run_seconds`` from ``BENCHMARK.json``.  For each
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``) and IQR/median, and checks the spread
against the metric's bound and against a third of it.  ``compare`` checks, per
metric, that the second set's median is not worse than the first's by
more than the bound.  Both exit 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from hostbench.stats import spread  # noqa: E402


def end_to_end_spec() -> tuple[dict, dict[str, dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {metric["name"]: metric for metric in spec["end_to_end"]}


def cmd_run(args: argparse.Namespace) -> int:
    spec, metrics = end_to_end_spec()
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [
                sys.executable, str(ROOT / "hostbench" / "run.py"),
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        if done.returncode != 0:
            print(f"seed {seed}: run.py exited with {done.returncode}")
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        values = {name: entry["value"] for name, entry in result["metrics"].items()}
        runs.append({"seed": seed, "correct": result["correct"], "metrics": values})
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{name}={value:.4g}" for name, value in values.items()),
              flush=True)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "run_seconds": spec["run_seconds"], "runs": runs},
            indent=1,
        ) + "\n")
    ok = all(run["correct"] for run in runs)
    print(f"\n{args.workload}: {len(runs)} runs")
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'iqr/med':>9}{'bound':>7}  verdict")
    for name, metric in metrics.items():
        row = spread([run["metrics"][name] for run in runs])
        ratio, bound = row["iqr_over_median"], metric["bound"]
        if ratio > bound:
            verdict, ok = "OVER BOUND", False
        else:
            verdict = "steady" if ratio < bound / 3 else "within bound, above a third"
        print(f"{name:<14}{row['median']:>12.5g}{row['q1']:>12.5g}{row['q3']:>12.5g}"
              f"{ratio:>9.2%}{bound:>7.0%}  {verdict}")
    return 0 if ok else 1


def cmd_compare(args: argparse.Namespace) -> int:
    _, metrics = end_to_end_spec()
    first = json.loads(pathlib.Path(args.first).read_text())
    second = json.loads(pathlib.Path(args.second).read_text())
    if first["workload"] != second["workload"]:
        print("the two sets ran different workloads")
        return 1
    ok = True
    print(f"{first['workload']}: {len(first['runs'])} vs {len(second['runs'])} runs")
    for name, metric in metrics.items():
        a = statistics.median(run["metrics"][name] for run in first["runs"])
        b = statistics.median(run["metrics"][name] for run in second["runs"])
        worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
        within = worse <= metric["bound"]
        ok = ok and within
        print(f"{name:<14}{a:>12.5g}{b:>12.5g}  worse by {worse:+.2%} "
              f"(bound {metric['bound']:.0%}) {'ok' if within else 'REGRESSED'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 hostbench/steady.py")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run one workload on consecutive seeds")
    run.add_argument("--workload", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=0)
    run.add_argument("--out", help="write the set of results here (JSON)")
    compare = commands.add_parser("compare", help="compare two sets' medians")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args(argv)
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
