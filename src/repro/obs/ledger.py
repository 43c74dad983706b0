"""Persistent, append-only run ledger (stdlib ``sqlite3``).

Every run and sweep point can record one row here -- fingerprint,
scheduler, config, host, headline metrics (turnaround / H_ANTT / H_STP /
makespan), the attribution summary, wall time, and cache hit/miss -- so
run history becomes queryable (``repro ledger list|show|compare|trend``)
and the benchmark regression check can move from two-point diffs to
median-of-history tolerance bands.

Design contract:

* **Append-only** -- the API exposes INSERT and SELECT, never UPDATE or
  DELETE; history is immutable once recorded.
* **Atomic** -- every insert is one SQLite transaction; concurrent
  writers (parallel sweep parents, several CLI runs) serialize through
  SQLite's own locking.
* **Schema-versioned** -- the ``meta`` table pins
  :data:`LEDGER_SCHEMA_VERSION`; an unknown on-disk version raises
  :class:`~repro.errors.ExperimentError` instead of guessing.
* **Out of the determinism perimeter** -- recording happens strictly
  after results are built; the ledger never feeds back into simulation,
  and ``"ledger"`` is listed in
  :data:`repro.parallel.fingerprint.TELEMETRY_EXCLUDED_FIELDS` so a
  context's ledger handle cannot leak into cache fingerprints.

Location: ``$REPRO_LEDGER_DIR/ledger.db`` when the environment variable
is set (mirroring ``REPRO_CACHE_DIR``), else ``~/.cache/repro/ledger.db``.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import sqlite3
from datetime import datetime, timezone

from repro.errors import ExperimentError
from repro.obs.attribution import render_attribution

#: Environment override naming the *directory* holding ``ledger.db``.
LEDGER_DIR_ENV = "REPRO_LEDGER_DIR"

#: On-disk schema version (meta table key ``schema_version``).
LEDGER_SCHEMA_VERSION = 1

#: Row kinds recorded by the standard hooks.
KIND_RUN = "run"
KIND_SWEEP_POINT = "sweep-point"
KIND_BENCH = "bench"

#: metric name -> True when lower values are better (regression = up).
LOWER_IS_BETTER = {
    "makespan": True,
    "h_antt": True,
    "h_stp": False,
    "wall_s": True,
}

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    recorded_at TEXT NOT NULL,
    kind        TEXT NOT NULL,
    fingerprint TEXT,
    mix         TEXT,
    config      TEXT,
    scheduler   TEXT,
    seed        INTEGER,
    work_scale  REAL,
    host        TEXT,
    metrics     TEXT NOT NULL,
    attribution TEXT,
    wall_s      REAL,
    cache_hit   INTEGER,
    extra       TEXT
);
CREATE INDEX IF NOT EXISTS runs_point
    ON runs (mix, config, scheduler, id);
CREATE INDEX IF NOT EXISTS runs_kind ON runs (kind, id);
"""


def default_ledger_path() -> pathlib.Path:
    """``$REPRO_LEDGER_DIR/ledger.db``, else ``~/.cache/repro/ledger.db``."""
    override = os.environ.get(LEDGER_DIR_ENV)
    if override:
        return pathlib.Path(override) / "ledger.db"
    return pathlib.Path.home() / ".cache" / "repro" / "ledger.db"


def host_fingerprint() -> dict:
    """Host identity recorded with every row (trend grouping aid)."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 0,
    }


class Ledger:
    """One append-only SQLite ledger database.

    Args:
        path: Database file (parent directories are created); ``None``
            selects :func:`default_ledger_path`.
    """

    def __init__(self, path: str | pathlib.Path | None = None) -> None:
        self.path = pathlib.Path(path) if path is not None else default_ledger_path()
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ExperimentError(
                f"cannot create ledger directory {self.path.parent}: {exc}"
            ) from exc
        conn = None
        try:
            conn = self._conn = sqlite3.connect(str(self.path))
            conn.row_factory = sqlite3.Row
            with self._conn:
                self._conn.executescript(_SCHEMA)
                row = self._conn.execute(
                    "SELECT value FROM meta WHERE key = 'schema_version'"
                ).fetchone()
                if row is None:
                    self._conn.execute(
                        "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                        (str(LEDGER_SCHEMA_VERSION),),
                    )
                elif int(row["value"]) != LEDGER_SCHEMA_VERSION:
                    raise ExperimentError(
                        f"ledger {self.path} has schema version {row['value']}, "
                        f"this build expects {LEDGER_SCHEMA_VERSION}"
                    )
        except sqlite3.Error as exc:
            if conn is not None:
                conn.close()
            raise ExperimentError(
                f"ledger {self.path} is not a usable SQLite database ({exc}); "
                "pass --no-ledger to run without it"
            ) from exc
        except ExperimentError:
            conn.close()
            raise

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Ledger":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Append side
    # ------------------------------------------------------------------
    def record_run(
        self,
        *,
        kind: str = KIND_RUN,
        fingerprint: str | None = None,
        mix: str | None = None,
        config: str | None = None,
        scheduler: str | None = None,
        seed: int | None = None,
        work_scale: float | None = None,
        metrics: dict,
        attribution: dict | None = None,
        wall_s: float | None = None,
        cache_hit: bool | None = None,
        extra: dict | None = None,
    ) -> int:
        """Append one row; returns its ledger id.

        ``metrics`` is the headline dict (``makespan`` / ``h_antt`` /
        ``h_stp`` / per-app turnarounds / bench timings); ``attribution``
        the :func:`repro.obs.attribution.summarize_attribution` payload
        (optionally reduced to its ``totals_ms``).
        """
        with self._conn:
            cursor = self._conn.execute(
                "INSERT INTO runs (recorded_at, kind, fingerprint, mix, "
                "config, scheduler, seed, work_scale, host, metrics, "
                "attribution, wall_s, cache_hit, extra) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    datetime.now(timezone.utc).isoformat(),
                    kind,
                    fingerprint,
                    mix,
                    config,
                    scheduler,
                    seed,
                    work_scale,
                    json.dumps(host_fingerprint(), sort_keys=True),
                    json.dumps(metrics, sort_keys=True),
                    json.dumps(attribution, sort_keys=True)
                    if attribution is not None
                    else None,
                    wall_s,
                    None if cache_hit is None else int(cache_hit),
                    json.dumps(extra, sort_keys=True)
                    if extra is not None
                    else None,
                ),
            )
        return int(cursor.lastrowid)

    # ------------------------------------------------------------------
    # Query side
    # ------------------------------------------------------------------
    @staticmethod
    def _row_to_dict(row: sqlite3.Row) -> dict:
        record = dict(row)
        for key in ("host", "metrics", "attribution", "extra"):
            if record.get(key):
                record[key] = json.loads(record[key])
        if record.get("cache_hit") is not None:
            record["cache_hit"] = bool(record["cache_hit"])
        return record

    def get_run(self, run_id: int) -> dict:
        row = self._conn.execute(
            "SELECT * FROM runs WHERE id = ?", (run_id,)
        ).fetchone()
        if row is None:
            raise ExperimentError(f"no ledger row with id {run_id}")
        return self._row_to_dict(row)

    def list_runs(
        self,
        limit: int = 20,
        kind: str | None = None,
        mix: str | None = None,
        config: str | None = None,
        scheduler: str | None = None,
    ) -> list[dict]:
        """Most recent rows first, optionally filtered."""
        clauses, params = [], []
        for column, value in (
            ("kind", kind), ("mix", mix), ("config", config),
            ("scheduler", scheduler),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._conn.execute(
            f"SELECT * FROM runs {where} ORDER BY id DESC LIMIT ?",
            (*params, limit),
        ).fetchall()
        return [self._row_to_dict(row) for row in rows]

    def history(
        self,
        *,
        mix: str | None,
        config: str | None,
        scheduler: str | None,
        metric: str,
        limit: int = 50,
        kind: str | None = None,
    ) -> list[tuple[int, float]]:
        """``(id, value)`` series of one metric, oldest first."""
        rows = self.list_runs(
            limit=limit, kind=kind, mix=mix, config=config, scheduler=scheduler
        )
        series = []
        for record in reversed(rows):
            value = record["metrics"].get(metric)
            if isinstance(value, (int, float)):
                series.append((record["id"], float(value)))
        return series

    def compare(self, id_a: int, id_b: int) -> dict:
        """Metric + attribution-total deltas between two rows (b - a)."""
        a, b = self.get_run(id_a), self.get_run(id_b)
        deltas = {}
        for key, value in b["metrics"].items():
            base = a["metrics"].get(key)
            if isinstance(value, (int, float)) and isinstance(base, (int, float)):
                deltas[key] = {
                    "a": base,
                    "b": value,
                    "delta": value - base,
                    "ratio": value / base if base else None,
                }
        attr_deltas = {}
        totals_a = (a.get("attribution") or {}).get("totals_ms", {})
        totals_b = (b.get("attribution") or {}).get("totals_ms", {})
        for state in sorted(set(totals_a) | set(totals_b)):
            attr_deltas[state] = {
                "a": totals_a.get(state, 0.0),
                "b": totals_b.get(state, 0.0),
                "delta": totals_b.get(state, 0.0) - totals_a.get(state, 0.0),
            }
        return {"a": a, "b": b, "metrics": deltas, "attribution_ms": attr_deltas}

    def trend(
        self,
        *,
        mix: str | None,
        config: str | None,
        scheduler: str | None,
        metric: str = "makespan",
        history: int = 5,
        tolerance: float = 0.10,
        kind: str | None = None,
    ) -> dict:
        """Judge the latest point against the median of its history.

        Pulls the last ``history + 1`` recorded values of ``metric`` for
        the (mix, config, scheduler) group; the baseline is the median of
        all but the latest, and the latest regresses when it falls outside
        ``baseline * (1 +/- tolerance)`` on the metric's bad side
        (:data:`LOWER_IS_BETTER`; unknown metrics default to lower-is-
        better).  Needs at least two history points to judge.
        """
        series = self.history(
            mix=mix, config=config, scheduler=scheduler, metric=metric,
            limit=history + 1, kind=kind,
        )
        result = {
            "metric": metric,
            "mix": mix,
            "config": config,
            "scheduler": scheduler,
            "n": len(series),
            "values": [value for _, value in series],
            "ids": [row_id for row_id, _ in series],
            "regressed": False,
            "judged": False,
        }
        if len(series) < 3:
            return result
        # Imported here: at module level it would add decimal and fractions
        # to every ``import repro``.
        import statistics

        *prior, (latest_id, latest) = series
        baseline = statistics.median(value for _, value in prior)
        lower_better = LOWER_IS_BETTER.get(metric, True)
        if lower_better:
            band = baseline * (1.0 + tolerance)
            regressed = latest > band
        else:
            band = baseline * (1.0 - tolerance)
            regressed = latest < band
        result.update(
            judged=True,
            latest=latest,
            latest_id=latest_id,
            baseline_median=baseline,
            band=band,
            lower_is_better=lower_better,
            tolerance=tolerance,
            regressed=regressed,
        )
        return result


# ----------------------------------------------------------------------
# Recording hooks (runner / executor / CLI call these)
# ----------------------------------------------------------------------

def record_point(
    ledger: "Ledger",
    ctx,
    metrics,
    *,
    kind: str = KIND_SWEEP_POINT,
    wall_s: float | None = None,
    cache_hit: bool | None = None,
    attribution: dict | None = None,
) -> int:
    """Append one evaluated sweep point (a ``MixMetrics``) for ``ctx``.

    Never raises into the experiment path: a broken ledger volume turns
    into a silent no-op (the run itself is worth more than its record).
    """
    entry = ctx._point_entry(metrics.mix_index, metrics.config, metrics.scheduler)
    try:
        return ledger.record_run(
            kind=kind,
            fingerprint=entry[0] if entry is not None else None,
            mix=metrics.mix_index,
            config=metrics.config,
            scheduler=metrics.scheduler,
            seed=ctx.seed,
            work_scale=ctx.work_scale,
            metrics={
                "makespan": metrics.makespan,
                "h_antt": metrics.h_antt,
                "h_stp": metrics.h_stp,
                **{f"turnaround.{app}": t for app, t in metrics.turnarounds.items()},
            },
            attribution=attribution,
            wall_s=wall_s,
            cache_hit=cache_hit,
        )
    except (sqlite3.Error, OSError):
        return -1


def _point(row: dict) -> str:
    """``mix/config/scheduler`` of a ledger row (or trend), blanks skipped."""
    return "/".join(
        str(part)
        for part in (row.get("mix"), row.get("config"), row.get("scheduler"))
        if part
    )


def render_ledger_rows(rows: list[dict]) -> str:
    """Fixed-width text table for ``repro ledger list``."""
    if not rows:
        return "(ledger is empty)"
    header = (
        f"{'id':>5} {'recorded (UTC)':<20} {'kind':<12} {'point':<28}"
        f"{'makespan':>10} {'h_antt':>8} {'wall_s':>8} {'cache':>6}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        metrics = row.get("metrics", {})
        makespan = metrics.get("makespan")
        h_antt = metrics.get("h_antt")
        wall = row.get("wall_s")
        cache = row.get("cache_hit")
        cells = (
            f"{makespan:>10.1f}" if makespan is not None else f"{'--':>10}",
            f"{h_antt:>8.3f}" if h_antt is not None else f"{'--':>8}",
            f"{wall:>8.2f}" if wall is not None else f"{'--':>8}",
            f"{'hit' if cache else 'miss':>6}" if cache is not None else f"{'--':>6}",
        )
        lines.append(
            f"{row['id']:>5} {row['recorded_at'][:19]:<20} "
            f"{row['kind']:<12} {_point(row):<28}" + "".join(cells)
        )
    return "\n".join(lines)


def render_ledger_record(record: dict) -> str:
    """Text rendering of one row for ``repro ledger show``: a header line,
    its numeric metrics, and the stored attribution table."""
    metrics = record.get("metrics", {})
    lines = [
        f"ledger run {record['id']} ({record['kind']}) {_point(record)} "
        f"recorded {record['recorded_at'][:19]}",
        "  ".join(
            f"{key}={value:.3f}"
            for key, value in sorted(metrics.items())
            if isinstance(value, (int, float))
        ),
    ]
    attribution = record.get("attribution")
    if attribution:
        lines += ["", render_attribution(attribution)]
    else:
        lines.append("(no attribution summary recorded for this row)")
    return "\n".join(lines)


def render_trend(result: dict) -> str:
    """One-paragraph text rendering of a :meth:`Ledger.trend` result."""
    point = _point(result) or "(all rows)"
    if not result.get("judged"):
        return (
            f"{point} {result['metric']}: {result['n']} point(s) recorded -- "
            "need at least 3 to judge a trend"
        )
    direction = "lower" if result["lower_is_better"] else "higher"
    verdict = "REGRESSED" if result["regressed"] else "ok"
    values = " ".join(f"{value:.3f}" for value in result["values"])
    return (
        f"{point} {result['metric']} ({direction} is better): {verdict}\n"
        f"  history: {values}\n"
        f"  latest {result['latest']:.3f} vs median {result['baseline_median']:.3f} "
        f"(band {result['band']:.3f}, tolerance {result['tolerance']:.0%})"
    )
