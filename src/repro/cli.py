"""Command-line entry point: regenerate any table or figure.

Examples::

    colab-repro fig4                 # Figure 4 at reference scale
    colab-repro fig5 --scale 0.4     # faster, same structure
    colab-repro summary --oracle     # 312-run summary with oracle model
    colab-repro tables               # Tables 1-4
    colab-repro train                # Table 2 pipeline only
    colab-repro run --mix Sync-1,Sync-2 --config 2B2S,4B4S  # cross product
    colab-repro --jobs 4 run ...     # the same on a process pool
    colab-repro report --mix Sync-2  # per-task time attribution of one run
    colab-repro report --out t.json  # + Perfetto trace of that run
    colab-repro report --timeseries --out t.json  # + sim-time counter tracks
    colab-repro ledger list          # recorded runs and sweep points
    colab-repro diff a.jsonl b.jsonl # explain a run_digest mismatch
    colab-repro lint src/repro       # static checks, one sorted report
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.experiments import multi_program, single_program, tables
from repro.experiments.report import render_bars, render_figures
from repro.experiments.runner import ExperimentContext


def _ledger_path(args: argparse.Namespace):
    """Explicit ledger path from ``--ledger-dir``, else ``None`` (default)."""
    if getattr(args, "ledger_dir", None) is not None:
        import pathlib

        return pathlib.Path(args.ledger_dir) / "ledger.db"
    return None


def _open_ledger(args: argparse.Namespace):
    """A :class:`repro.obs.ledger.Ledger`, or ``None`` when disabled.

    A broken default ledger location degrades to a warning -- the run is
    worth more than its record -- but an explicit ``--ledger-dir`` that
    cannot be opened is a hard error.
    """
    if getattr(args, "no_ledger", False):
        return None
    from repro.errors import ExperimentError
    from repro.obs.ledger import Ledger

    try:
        return Ledger(_ledger_path(args))
    except ExperimentError as error:
        if getattr(args, "ledger_dir", None) is not None:
            raise
        print(
            f"warning: run ledger unavailable, not recording: {error}",
            file=sys.stderr,
        )
        return None


def _cache_dir(args: argparse.Namespace):
    """``--cache-dir``, else the default location; ``None`` under ``--no-cache``."""
    if args.no_cache:
        return None
    if args.cache_dir is not None:
        return args.cache_dir
    from repro.parallel.cache import default_cache_dir

    return default_cache_dir()


def _context(args: argparse.Namespace) -> ExperimentContext:
    return ExperimentContext(
        seed=args.seed,
        work_scale=args.scale,
        use_learned_model=not args.oracle,
        jobs=args.jobs,
        cache_dir=_cache_dir(args),
        ledger=_open_ledger(args),
    )


def _names(text: str, what: str) -> list[str]:
    """Split a comma-separated CLI list; an empty result is an error."""
    from repro.errors import ExperimentError

    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise ExperimentError(f"no {what} given in {text!r}")
    return names


def _cmd_train(args: argparse.Namespace) -> None:
    from repro.model.training import train_speedup_model

    _model, report = train_speedup_model(seed=args.seed, cache_dir=_cache_dir(args))
    print(tables.table2_speedup_model(report))


def _cmd_tables(args: argparse.Namespace) -> None:
    from repro.model.training import default_training_report

    ctx = _context(args)
    print(tables.table1_related_work())
    print()
    print(tables.table2_speedup_model(default_training_report(ctx.cache_dir)))
    print()
    print(tables.table3_categorization(ctx))
    print()
    print(tables.table4_workloads())


def _cmd_fig4(args: argparse.Namespace) -> None:
    _results, figure = single_program.figure4(_context(args))
    if args.bars:
        print(render_bars(figure, reference=None))
    else:
        print(figure.render())


def _figure_command(builder):
    def run(args: argparse.Namespace) -> None:
        panels = builder(_context(args))
        if args.bars:
            print("\n\n".join(render_bars(panel) for panel in panels))
        else:
            print(render_figures(panels))

    return run


def _cmd_summary(args: argparse.Namespace) -> None:
    result = multi_program.summary(_context(args))
    print(result.render())


def _cmd_run(args: argparse.Namespace) -> None:
    """Evaluate a mixes x configs x schedulers cross product."""
    import json

    from repro.experiments.runner import sweep
    from repro.metrics.turnaround import fairness_index
    from repro.obs.progress import SweepProgress
    from repro.workloads.mixes import MIXES

    mixes = _names(args.mix, "mixes")
    configs = tuple(_names(args.config, "configs"))
    schedulers = tuple(_names(args.schedulers, "schedulers"))
    ctx = _context(args)
    total = len(mixes) * len(configs) * len(schedulers)
    points = sweep(
        ctx, mixes, configs=configs, schedulers=schedulers,
        sanitize=args.sanitize,
        progress=SweepProgress(total, enabled=sys.stderr.isatty()),
    )
    for metrics in points:
        baselines = ctx.baselines_for(MIXES[metrics.mix_index], metrics.config)
        fairness = fairness_index(metrics.turnarounds, baselines)
        apps = "  ".join(
            f"{app}={value:.0f}ms" for app, value in metrics.turnarounds.items()
        )
        print(
            f"{metrics.mix_index}/{metrics.config}/{metrics.scheduler:<8} "
            f"H_ANTT={metrics.h_antt:.3f} H_STP={metrics.h_stp:.3f} "
            f"fairness={fairness:.3f}  {apps}"
        )
    if args.json:
        records = [
            {
                "mix": point.mix_index,
                "config": point.config,
                "scheduler": point.scheduler,
                "h_antt": point.h_antt,
                "h_stp": point.h_stp,
                "makespan_ms": point.makespan,
                "turnarounds_ms": dict(point.turnarounds),
            }
            for point in points
        ]
        payload = {"points": records, "count": len(records)}
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nwrote {args.json}")


def _write_traces(args: argparse.Namespace, result) -> None:
    """Write the files ``report`` was asked for; notes go to stderr."""
    import json

    from repro.obs.exporters import to_chrome_trace, write_jsonl

    if args.out:
        document = to_chrome_trace(
            result.events, metadata=result.trace_metadata,
            end_time=result.makespan, task_tracks=args.task_tracks,
            timeseries=result.timeseries if args.timeseries else None,
        )
        with open(args.out, "w") as handle:
            json.dump(document, handle)
        print(
            f"wrote {args.out}: {len(result.events)} events, "
            f"{len(document['traceEvents'])} trace_event records "
            f"(open at https://ui.perfetto.dev)",
            file=sys.stderr,
        )
        if args.timeseries:
            print(
                f"timeline: {len(result.timeseries['series'])} counter "
                f"tracks over {result.timeseries['samples']} samples "
                f"(window {result.timeseries['window_ms']:.1f} sim-ms)",
                file=sys.stderr,
            )
    if args.jsonl:
        with open(args.jsonl, "w") as handle:
            lines = write_jsonl(result.events, handle)
        print(f"wrote {args.jsonl}: {lines} JSONL records", file=sys.stderr)
    if args.metrics:
        with open(args.metrics, "w") as handle:
            json.dump(result.metrics, handle, indent=2, sort_keys=True)
        print(f"wrote {args.metrics}", file=sys.stderr)


def _render_profile(result) -> str:
    """The run's eight costliest ``engine.handle.*`` host-time buckets."""
    profile = result.metrics["profile"]
    buckets = sorted(
        (
            (name, stats)
            for name, stats in profile.items()
            if name.startswith("engine.handle.")
        ),
        key=lambda item: item[1]["total_s"],
        reverse=True,
    )[:8]
    loop = profile["engine.run"]["total_s"]
    lines = [f"host-time profile (event loop {loop * 1e3:.1f} ms):"]
    for name, stats in buckets:
        lines.append(
            f"  {name:<36} {stats['total_s'] * 1e3:8.2f} ms  "
            f"n={stats['count']:<6d} mean={stats['mean_us']:.1f} us"
        )
    return "\n".join(lines)


def _cmd_report(args: argparse.Namespace) -> int:
    """Trace one run: attribution, decision quality and trace exports."""
    import json

    from repro.errors import ExperimentError
    from repro.experiments.runner import run_mix_once
    from repro.obs.attribution import (
        decision_quality,
        link_decisions,
        render_attribution,
        render_decision_quality,
    )
    from repro.obs.context import ObsConfig
    from repro.workloads.mixes import MIXES

    ctx = _context(args)
    mix = MIXES.get(args.mix)
    if mix is None:
        raise ExperimentError(f"unknown mix {args.mix!r}")
    result = run_mix_once(
        ctx, mix, args.config, args.scheduler, big_first=True,
        obs=ObsConfig(trace=True, metrics=True, profile=args.profile),
        sanitize=args.sanitize, timeseries=args.timeseries,
    )
    _write_traces(args, result)
    linked = link_decisions(
        result.events, metadata=result.trace_metadata, end_time=result.makespan
    )
    quality = decision_quality(linked)
    if ctx.ledger is not None:
        import sqlite3

        try:
            ctx.ledger.record_run(
                mix=args.mix,
                config=args.config,
                scheduler=args.scheduler,
                seed=ctx.seed,
                work_scale=ctx.work_scale,
                metrics={"makespan": result.makespan},
                attribution=result.attribution,
                extra={"decisions_linked": len(linked)},
            )
        except (sqlite3.Error, OSError):
            pass
    if args.json:
        print(
            json.dumps(
                {
                    "mix": args.mix,
                    "config": args.config,
                    "scheduler": args.scheduler,
                    "makespan": result.makespan,
                    "attribution": result.attribution,
                    "decision_quality": quality,
                    "decisions": linked,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    gauges = result.metrics["gauges"]
    print(
        f"{args.scheduler} on {args.config}, mix {args.mix}: "
        f"makespan={result.makespan:.1f}ms, {len(linked)} decisions linked"
    )
    print(
        f"migrations={result.metrics['counters']['sched.migrations']:.0f} "
        f"switches={result.total_context_switches} "
        f"mean core utilization={gauges.get('core.mean_utilization', 0.0):.3f} "
        f"mean rq depth={gauges.get('rq.mean_depth', 0.0):.3f} "
        f"futex wait={gauges['futex.total_wait_ms']:.1f}ms"
    )
    print()
    print(render_attribution(result.attribution, top=args.top))
    print()
    print(render_decision_quality(quality))
    if args.profile:
        print()
        print(_render_profile(result))
    return 0


def _cmd_ledger(args: argparse.Namespace) -> int:
    """Query the persistent run ledger (list/show/compare/trend)."""
    import json

    from repro.obs.ledger import (
        Ledger,
        render_ledger_record,
        render_ledger_rows,
        render_trend,
    )

    with Ledger(_ledger_path(args)) as ledger:
        if args.ledger_command == "list":
            rows = ledger.list_runs(
                limit=args.limit, kind=args.kind, mix=args.mix,
                config=args.config, scheduler=args.scheduler,
            )
            if args.json:
                print(json.dumps(rows, indent=2, sort_keys=True))
            else:
                print(render_ledger_rows(rows))
            return 0
        if args.ledger_command == "show":
            record = ledger.get_run(args.run_id)
            if args.json:
                print(json.dumps(record, indent=2, sort_keys=True))
            else:
                print(render_ledger_record(record))
            return 0
        if args.ledger_command == "compare":
            comparison = ledger.compare(args.id_a, args.id_b)
            if args.json:
                print(json.dumps(comparison, indent=2, sort_keys=True))
                return 0
            print(f"ledger row {args.id_a} -> row {args.id_b}")
            for key, cell in sorted(comparison["metrics"].items()):
                rel = (
                    f"  ({(cell['ratio'] - 1.0) * 100.0:+.1f}%)"
                    if cell["ratio"] is not None
                    else ""
                )
                print(
                    f"  {key:<24} {cell['a']:>12.3f} -> {cell['b']:>12.3f}{rel}"
                )
            if comparison["attribution_ms"]:
                print("  attribution totals (ms):")
                for state, cell in comparison["attribution_ms"].items():
                    print(
                        f"    {state:<18} {cell['a']:>12.1f} -> {cell['b']:>12.1f}"
                    )
            return 0
        result = ledger.trend(
            mix=args.mix, config=args.config, scheduler=args.scheduler,
            metric=args.metric, history=args.history,
            tolerance=args.tolerance, kind=args.kind,
        )
        if args.json:
            print(json.dumps(result, indent=2, sort_keys=True))
        else:
            print(render_trend(result))
        return 1 if result["regressed"] else 0


def _cmd_diff(args: argparse.Namespace) -> int:
    """Explain the first divergence between two JSONL traces."""
    from repro.obs.diff import diff_trace_files, render_trace_diff

    diff = diff_trace_files(args.trace_a, args.trace_b, context=args.context)
    print(render_trace_diff(diff))
    return 0 if diff.identical else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run every lint rule and analysis; exit 0 iff no active findings."""
    import pathlib

    from repro.sanitize import (
        render_json,
        render_sarif,
        render_text,
        rule_catalogue,
        run_lint,
    )

    if args.list_rules:
        print(rule_catalogue())
        return 0
    report = run_lint(args.paths)
    if args.sarif:
        pathlib.Path(args.sarif).write_text(
            render_sarif(report), encoding="utf-8"
        )
        print(f"note: SARIF written to {args.sarif}", file=sys.stderr)
    render = {"json": render_json, "sarif": render_sarif}.get(
        args.format, render_text
    )
    print(render(report))
    return 0 if report.ok else 1


def _cmd_all(args: argparse.Namespace) -> None:
    ctx = _context(args)
    start = time.time()
    _results, fig4 = single_program.figure4(ctx)
    print(fig4.render())
    for builder in (
        multi_program.figure5,
        multi_program.figure6,
        multi_program.figure7,
        multi_program.figure8,
        multi_program.figure9,
    ):
        print()
        print(render_figures(builder(ctx)))
    print()
    print(multi_program.summary(ctx).render())
    print(f"\n[elapsed: {time.time() - start:.1f}s]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colab-repro",
        description="Regenerate tables/figures of the COLAB (CGO 2020) paper.",
    )
    parser.add_argument("--seed", type=int, default=42, help="master seed")
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="uniform work scale (smaller = faster, same structure)",
    )
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="use the oracle speedup model instead of the trained one",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweeps (1 = serial; results are "
        "bit-identical either way)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent cache directory: sweep points and the speedup "
        "model's training set (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent on-disk cache (points and training set)",
    )
    parser.add_argument(
        "--ledger-dir",
        default=None,
        help="directory holding the append-only run ledger "
        "(default: $REPRO_LEDGER_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not record runs/sweep points in the run ledger",
    )
    parser.add_argument(
        "--bars",
        action="store_true",
        help="render figures as ASCII bar charts instead of tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("train", help="run the Table 2 training pipeline").set_defaults(
        func=_cmd_train
    )
    sub.add_parser("tables", help="regenerate Tables 1-4").set_defaults(
        func=_cmd_tables
    )
    sub.add_parser("fig4", help="Figure 4 (single-program)").set_defaults(
        func=_cmd_fig4
    )
    for name, builder in (
        ("fig5", multi_program.figure5),
        ("fig6", multi_program.figure6),
        ("fig7", multi_program.figure7),
        ("fig8", multi_program.figure8),
        ("fig9", multi_program.figure9),
    ):
        sub.add_parser(name, help=f"Figure {name[3:]}").set_defaults(
            func=_figure_command(builder)
        )
    sub.add_parser("summary", help="312-experiment summary").set_defaults(
        func=_cmd_summary
    )
    run = sub.add_parser(
        "run",
        help="evaluate a mixes x configs x schedulers cross product "
        "(a live progress line on a terminal's stderr)",
    )
    run.add_argument(
        "--mix", default="Sync-2", help="comma-separated Table 4 mix indices"
    )
    run.add_argument(
        "--config", default="2B2S",
        help="comma-separated hardware configs: 2B2S/2B4S/4B2S/4B4S",
    )
    run.add_argument(
        "--schedulers",
        default="linux,wash,colab",
        help="comma-separated: linux/wash/colab/gts",
    )
    run.add_argument("--json", default=None, help="write results as JSON")
    run.add_argument(
        "--sanitize",
        action="store_true",
        help="run under the scheduler sanitizer (schedsan); outcomes are "
        "bit-identical but invariant violations fail loudly",
    )
    run.set_defaults(func=_cmd_run)
    report = sub.add_parser(
        "report",
        help="trace one fresh run: per-task time attribution, "
        "decision quality and trace exports (recorded rows: ledger show "
        "RUN_ID)",
    )
    report.add_argument("--mix", default="Sync-2", help="Table 4 mix index")
    report.add_argument("--config", default="2B2S", help="2B2S/2B4S/4B2S/4B4S")
    report.add_argument(
        "--scheduler", default="colab", help="linux/wash/colab/gts"
    )
    report.add_argument(
        "--top", type=int, default=12, metavar="N",
        help="tasks to show in the attribution table",
    )
    report.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )
    report.add_argument(
        "--sanitize", action="store_true",
        help="run under the scheduler sanitizer (schedsan)",
    )
    report.add_argument(
        "--out", default=None,
        help="write a Perfetto/Chrome trace to this path",
    )
    report.add_argument(
        "--jsonl", default=None, help="write raw events as JSONL"
    )
    report.add_argument(
        "--metrics", default=None, help="write the metrics snapshot JSON"
    )
    report.add_argument(
        "--task-tracks",
        action="store_true",
        help="with --out: one attribution-state annotation track per task "
        "(a second 'tasks' process in the Perfetto view)",
    )
    report.add_argument(
        "--timeseries",
        action="store_true",
        help="sample the sim-time metrics timeline; with --out, one "
        "Perfetto counter track per series (a 'timeline' process)",
    )
    report.add_argument(
        "--profile",
        action="store_true",
        help="profile host wall-clock hot paths; the text report ends "
        "with the costliest engine.handle.* buckets",
    )
    report.set_defaults(func=_cmd_report)
    ledger_cmd = sub.add_parser(
        "ledger", help="query the append-only run ledger"
    )
    ledger_sub = ledger_cmd.add_subparsers(dest="ledger_command", required=True)
    ledger_list = ledger_sub.add_parser("list", help="recent ledger rows")
    ledger_list.add_argument("--limit", type=int, default=20)
    ledger_list.add_argument("--kind", default=None, help="run/sweep-point/bench")
    ledger_list.add_argument("--mix", default=None)
    ledger_list.add_argument("--config", default=None)
    ledger_list.add_argument("--scheduler", default=None)
    ledger_list.add_argument("--json", action="store_true")
    ledger_list.set_defaults(func=_cmd_ledger)
    ledger_show = ledger_sub.add_parser(
        "show", help="one row: header, metrics and attribution table"
    )
    ledger_show.add_argument("run_id", type=int, help="ledger row id")
    ledger_show.add_argument("--json", action="store_true")
    ledger_show.set_defaults(func=_cmd_ledger)
    ledger_compare = ledger_sub.add_parser(
        "compare", help="metric + attribution deltas between two rows"
    )
    ledger_compare.add_argument("id_a", type=int)
    ledger_compare.add_argument("id_b", type=int)
    ledger_compare.add_argument("--json", action="store_true")
    ledger_compare.set_defaults(func=_cmd_ledger)
    ledger_trend = ledger_sub.add_parser(
        "trend",
        help="judge the latest point of a (mix, config, scheduler) group "
        "against the median of its history (exit 1 on regression)",
    )
    ledger_trend.add_argument("--mix", default=None)
    ledger_trend.add_argument("--config", default=None)
    ledger_trend.add_argument("--scheduler", default=None)
    ledger_trend.add_argument("--metric", default="makespan")
    ledger_trend.add_argument("--history", type=int, default=5)
    ledger_trend.add_argument("--tolerance", type=float, default=0.10)
    ledger_trend.add_argument("--kind", default=None)
    ledger_trend.add_argument("--json", action="store_true")
    ledger_trend.set_defaults(func=_cmd_ledger)
    diff = sub.add_parser(
        "diff",
        help="first divergence between two JSONL traces (exit 1 if any)",
    )
    diff.add_argument("trace_a", help="first JSONL trace (written by report --jsonl)")
    diff.add_argument("trace_b", help="second JSONL trace")
    diff.add_argument(
        "--context", type=int, default=3,
        help="records of context to show around the divergence",
    )
    diff.set_defaults(func=_cmd_diff)
    lint = sub.add_parser(
        "lint",
        help="static checks: per-file rules (DET/KERN/PERF/ERR) and "
        "the whole-program taint analysis (ANA001)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format",
    )
    lint.add_argument(
        "--sarif", default=None, metavar="PATH",
        help="also write a SARIF 2.1.0 document to PATH (for CI artifacts)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    lint.set_defaults(func=_cmd_lint)
    sub.add_parser("all", help="everything (long)").set_defaults(func=_cmd_all)
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.errors import ExperimentError

    args = build_parser().parse_args(argv)
    try:
        result = args.func(args)
        sys.stdout.flush()
    except ExperimentError as exc:
        print(f"colab-repro: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Point it at devnull
        # so the interpreter's exit-time flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return int(result or 0)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
