#!/usr/bin/env python
"""Compare fresh BENCH_*.json artifacts against the committed baselines.

The four bench harnesses each write one unified artifact (see
``benchmarks/conftest.py:bench_artifact``)::

    {"schema_version": 1, "name": ..., "host": {...},
     "params": {...}, "timings": {...}, "asserts": {...}, "derived": {...}}

This checker compares a freshly produced set against a baseline set:

* every ``timings`` entry (seconds, lower is better) present in both
  sides must satisfy ``fresh <= baseline * (1 + tolerance)``;
* every fresh ``asserts`` entry must not have ``ok: false`` (skipped
  checks -- ``ok: null`` with a ``skipped_reason`` -- are reported, not
  failed);
* schema-version mismatches and baselines missing a fresh counterpart
  are reported as informational (the trajectory record is append-only;
  a renamed timing key starts a new series rather than failing).

Exit status is nonzero on any regression or failed assert, unless
``--report-only`` is given (CI uses report-only while the trajectory
record accumulates; local runs gate by default).  ``--enforce-asserts``
makes failed ``asserts`` entries fail the check even under
``--report-only`` -- correctness claims gate, wall-clock timings stay
report-only.

With ``--ledger-dir`` the checker additionally consults the persistent
run ledger (:mod:`repro.obs.ledger`): each fresh timing is judged
against the *median* of its last ``--history`` recorded values when at
least two history points exist (a tolerance band around the median is
much more robust to one noisy CI run than a two-point diff); timings
without enough history fall back to the baseline comparison.
``--record`` appends the fresh timings as ``kind='bench'`` rows after
judging, so the fresh point never contaminates its own baseline.

Usage::

    python benchmarks/check_regression.py \
        --baseline-dir . --fresh-dir /tmp/fresh [--tolerance 0.5] \
        [--report-only] [--enforce-asserts] \
        [--ledger-dir .ledger --history 5 --record]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

#: Wall-clock benches on shared machines are noisy; the default band is
#: deliberately generous -- this gate exists to catch order-of-magnitude
#: slips, not single-digit percent drift.
DEFAULT_TOLERANCE = 0.5

BENCH_GLOB = "BENCH_*.json"


def load_artifacts(directory: pathlib.Path) -> dict[str, dict]:
    """filename -> parsed artifact for every BENCH_*.json in ``directory``."""
    artifacts: dict[str, dict] = {}
    for path in sorted(directory.glob(BENCH_GLOB)):
        try:
            artifacts[path.name] = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"  WARN {path}: unreadable ({exc})")
    return artifacts


def compare_artifact(
    name: str,
    baseline: dict,
    fresh: dict,
    tolerance: float,
    skip_keys: set[str] | None = None,
) -> tuple[list[str], list[str]]:
    """(problems, notes) of one fresh artifact vs its baseline.

    ``skip_keys`` names timings already judged by the ledger-history
    band; they are excluded from the two-point comparison.
    """
    problems: list[str] = []
    notes: list[str] = []
    skip_keys = skip_keys or set()

    base_version = baseline.get("schema_version")
    fresh_version = fresh.get("schema_version")
    if base_version != fresh_version:
        notes.append(
            f"{name}: schema_version {base_version} -> {fresh_version}; "
            "timings not compared"
        )
        return problems, notes

    base_timings = baseline.get("timings", {})
    fresh_timings = fresh.get("timings", {})
    for key in sorted(base_timings):
        if key in skip_keys:
            continue
        if key not in fresh_timings:
            notes.append(f"{name}: timing {key} absent from fresh run")
            continue
        base_value = base_timings[key]
        fresh_value = fresh_timings[key]
        if not isinstance(base_value, (int, float)) or base_value <= 0:
            continue
        limit = base_value * (1.0 + tolerance)
        if fresh_value > limit:
            problems.append(
                f"{name}: {key} regressed {base_value:.4f}s -> "
                f"{fresh_value:.4f}s (limit {limit:.4f}s at "
                f"+{tolerance * 100:.0f}%)"
            )
        else:
            notes.append(
                f"{name}: {key} {base_value:.4f}s -> {fresh_value:.4f}s ok"
            )
    for key in sorted(set(fresh_timings) - set(base_timings)):
        notes.append(f"{name}: new timing {key} (no baseline; recorded)")
    return problems, notes


def check_asserts(name: str, fresh: dict) -> tuple[list[str], list[str]]:
    """(problems, notes) from one fresh artifact's asserts section."""
    problems: list[str] = []
    notes: list[str] = []
    for key, record in sorted(fresh.get("asserts", {}).items()):
        ok = record.get("ok")
        if ok is False:
            problems.append(
                f"{name}: assert {key} failed "
                f"({record.get('measured')} {record.get('op')} "
                f"{record.get('bound')} is false)"
            )
        elif ok is None:
            notes.append(
                f"{name}: assert {key} skipped "
                f"({record.get('skipped_reason', 'no reason recorded')})"
            )
    return problems, notes


def open_ledger(ledger_dir: pathlib.Path):
    """A ``repro.obs.ledger.Ledger`` for ``ledger_dir`` (src/ on sys.path)."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from repro.obs.ledger import Ledger

    return Ledger(ledger_dir / "ledger.db")


def history_check(
    ledger, name: str, timings: dict, history: int, tolerance: float
) -> tuple[list[str], list[str], set[str]]:
    """Judge fresh timings against the median of their ledger history.

    Returns (problems, notes, judged_keys).  A timing is judged only
    when at least two prior points exist -- the fresh value is compared
    against ``median(history) * (1 + tolerance)`` (seconds, lower is
    better); everything else stays with the two-point baseline path.
    """
    problems: list[str] = []
    notes: list[str] = []
    judged: set[str] = set()
    for key in sorted(timings):
        fresh_value = timings[key]
        if not isinstance(fresh_value, (int, float)):
            continue
        series = ledger.history(
            mix=name, config=None, scheduler=None, metric=key,
            limit=history, kind="bench",
        )
        if len(series) < 2:
            continue
        judged.add(key)
        baseline = statistics.median(value for _, value in series)
        limit = baseline * (1.0 + tolerance)
        if fresh_value > limit:
            problems.append(
                f"{name}: {key} regressed vs {len(series)}-point history "
                f"median {baseline:.4f}s -> {fresh_value:.4f}s "
                f"(limit {limit:.4f}s at +{tolerance * 100:.0f}%)"
            )
        else:
            notes.append(
                f"{name}: {key} {fresh_value:.4f}s within history band "
                f"(median {baseline:.4f}s over {len(series)} points)"
            )
    return problems, notes, judged


def record_fresh(ledger, name: str, fresh: dict) -> None:
    """Append one fresh artifact's timings as a ``kind='bench'`` row."""
    timings = {
        key: value
        for key, value in fresh.get("timings", {}).items()
        if isinstance(value, (int, float))
    }
    ledger.record_run(
        kind="bench",
        mix=name,
        metrics=timings,
        extra={"params": fresh.get("params", {})},
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir", type=pathlib.Path, default=pathlib.Path("."),
        help="directory holding the committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--fresh-dir", type=pathlib.Path, required=True,
        help="directory holding the freshly produced BENCH_*.json files",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed fractional slowdown per timing "
        f"(default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--report-only", action="store_true",
        help="print the comparison but always exit 0",
    )
    parser.add_argument(
        "--enforce-asserts", action="store_true",
        help="failed `asserts` entries (ok: false) exit nonzero even "
        "under --report-only; timings stay report-only",
    )
    parser.add_argument(
        "--ledger-dir", type=pathlib.Path, default=None,
        help="run-ledger directory: judge timings against the median of "
        "their recorded history instead of a two-point baseline diff",
    )
    parser.add_argument(
        "--history", type=int, default=5,
        help="ledger history points per timing (default 5)",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="append the fresh timings to the ledger (kind='bench') "
        "after judging",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-timing notes"
    )
    args = parser.parse_args(argv)

    baselines = load_artifacts(args.baseline_dir)
    fresh = load_artifacts(args.fresh_dir)
    if not fresh:
        print(f"no {BENCH_GLOB} files in {args.fresh_dir}")
        return 0 if args.report_only else 1

    ledger = open_ledger(args.ledger_dir) if args.ledger_dir else None
    assert_problems: list[str] = []
    timing_problems: list[str] = []
    notes: list[str] = []
    for name, fresh_artifact in sorted(fresh.items()):
        failed_asserts, assert_notes = check_asserts(name, fresh_artifact)
        assert_problems.extend(failed_asserts)
        notes.extend(assert_notes)
        judged: set[str] = set()
        if ledger is not None:
            history_problems, history_notes, judged = history_check(
                ledger, name, fresh_artifact.get("timings", {}),
                args.history, args.tolerance,
            )
            timing_problems.extend(history_problems)
            notes.extend(history_notes)
        baseline = baselines.get(name)
        if baseline is None:
            notes.append(f"{name}: no baseline (new bench; recorded)")
        else:
            two_point_problems, timing_notes = compare_artifact(
                name, baseline, fresh_artifact, args.tolerance,
                skip_keys=judged,
            )
            timing_problems.extend(two_point_problems)
            notes.extend(timing_notes)
        if ledger is not None and args.record:
            record_fresh(ledger, name, fresh_artifact)
    for name in sorted(set(baselines) - set(fresh)):
        notes.append(f"{name}: baseline present but no fresh run")
    if ledger is not None:
        ledger.close()

    problems = assert_problems + timing_problems
    if not args.quiet:
        for note in notes:
            print(f"  note {note}")
    for problem in problems:
        print(f"  FAIL {problem}")
    verdict = "REGRESSION" if problems else "ok"
    print(
        f"check_regression: {len(fresh)} artifacts, "
        f"{len(problems)} problems -> {verdict}"
        + (" (report-only)" if args.report_only and problems else "")
    )
    if args.report_only:
        return 1 if args.enforce_asserts and assert_problems else 0
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
