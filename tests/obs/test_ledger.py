"""Run-ledger tests: append/query roundtrips, trend bands, recording hooks."""

from __future__ import annotations

import sqlite3

import pytest

from repro.errors import ExperimentError
from repro.experiments.runner import ExperimentContext, MixMetrics, sweep
from repro.obs.ledger import (
    KIND_BENCH,
    LEDGER_DIR_ENV,
    LEDGER_SCHEMA_VERSION,
    Ledger,
    default_ledger_path,
    record_point,
    render_ledger_rows,
    render_trend,
)


def make_metrics(makespan=10.0, scheduler="colab") -> MixMetrics:
    return MixMetrics(
        mix_index="Sync-1", config="2B2S", scheduler=scheduler,
        h_antt=1.2, h_stp=1.6, makespan=makespan,
        turnarounds={"fmm": 9.0, "water_nsquared": 8.0},
    )


@pytest.fixture
def ledger(tmp_path):
    with Ledger(tmp_path / "ledger.db") as instance:
        yield instance


class TestPaths:
    def test_env_var_names_the_directory(self, monkeypatch, tmp_path):
        monkeypatch.setenv(LEDGER_DIR_ENV, str(tmp_path / "custom"))
        assert default_ledger_path() == tmp_path / "custom" / "ledger.db"

    def test_default_falls_back_to_cache_home(self, monkeypatch):
        monkeypatch.delenv(LEDGER_DIR_ENV, raising=False)
        path = default_ledger_path()
        assert path.name == "ledger.db"
        assert ".cache" in path.parts

    def test_parent_directories_created(self, tmp_path):
        nested = tmp_path / "a" / "b" / "ledger.db"
        with Ledger(nested):
            pass
        assert nested.exists()


class TestRoundtrip:
    def test_record_then_get(self, ledger):
        row_id = ledger.record_run(
            mix="Sync-1", config="2B2S", scheduler="colab", seed=42,
            work_scale=0.05, metrics={"makespan": 10.5},
            attribution={"totals_ms": {"running_big": 5.0}},
            wall_s=0.1, cache_hit=False,
        )
        record = ledger.get_run(row_id)
        assert record["metrics"]["makespan"] == 10.5
        assert record["attribution"]["totals_ms"]["running_big"] == 5.0
        assert record["cache_hit"] is False
        assert record["host"]["cpus"] >= 0

    def test_unknown_id_raises(self, ledger):
        with pytest.raises(ExperimentError):
            ledger.get_run(9999)

    def test_list_filters_and_orders_newest_first(self, ledger):
        for scheduler in ("linux", "colab", "colab"):
            ledger.record_run(
                mix="Sync-1", config="2B2S", scheduler=scheduler,
                metrics={"makespan": 1.0},
            )
        rows = ledger.list_runs(scheduler="colab")
        assert [row["scheduler"] for row in rows] == ["colab", "colab"]
        assert rows[0]["id"] > rows[1]["id"]

    def test_append_only_api_surface(self):
        mutators = [
            name for name in dir(Ledger)
            if not name.startswith("_")
            and any(verb in name.lower() for verb in ("update", "delete"))
        ]
        assert mutators == []

    def test_schema_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ledger.db"
        with Ledger(path):
            pass
        conn = sqlite3.connect(str(path))
        with conn:
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(LEDGER_SCHEMA_VERSION + 1),),
            )
        conn.close()
        with pytest.raises(ExperimentError):
            Ledger(path)

    @pytest.mark.parametrize("foreign", ["newer-schema", "not-a-database"])
    def test_rejected_ledger_closes_its_connection(
        self, foreign, tmp_path, monkeypatch
    ):
        path = tmp_path / "ledger.db"
        if foreign == "newer-schema":
            with Ledger(path) as ledger:
                with ledger._conn:
                    ledger._conn.execute(
                        "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                        (str(LEDGER_SCHEMA_VERSION + 1),),
                    )
        else:
            path.write_text("not a database\n")
        opened = []
        connect = sqlite3.connect

        def recording_connect(*args):
            opened.append(connect(*args))
            return opened[-1]

        monkeypatch.setattr(sqlite3, "connect", recording_connect)
        with pytest.raises(ExperimentError, match=str(path)):
            Ledger(path)
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            opened[0].execute("SELECT 1")


class TestCompare:
    def test_metric_and_attribution_deltas(self, ledger):
        id_a = ledger.record_run(
            metrics={"makespan": 10.0},
            attribution={"totals_ms": {"running_big": 4.0}},
        )
        id_b = ledger.record_run(
            metrics={"makespan": 12.0},
            attribution={"totals_ms": {"running_big": 6.0}},
        )
        comparison = ledger.compare(id_a, id_b)
        assert comparison["metrics"]["makespan"]["delta"] == pytest.approx(2.0)
        assert comparison["metrics"]["makespan"]["ratio"] == pytest.approx(1.2)
        assert comparison["attribution_ms"]["running_big"]["delta"] == (
            pytest.approx(2.0)
        )


class TestTrend:
    def record_series(self, ledger, values, metric="makespan"):
        for value in values:
            ledger.record_run(
                mix="Sync-1", config="2B2S", scheduler="colab",
                metrics={metric: value},
            )

    def test_too_short_history_is_not_judged(self, ledger):
        self.record_series(ledger, [10.0, 10.1])
        result = ledger.trend(
            mix="Sync-1", config="2B2S", scheduler="colab"
        )
        assert result["judged"] is False
        assert result["regressed"] is False

    def test_injected_regression_flagged_in_synthetic_history(self, ledger):
        self.record_series(ledger, [10.0, 10.1, 9.9, 10.05, 13.5])
        result = ledger.trend(
            mix="Sync-1", config="2B2S", scheduler="colab"
        )
        assert result["judged"] and result["regressed"]
        assert result["latest"] == pytest.approx(13.5)
        assert result["baseline_median"] == pytest.approx(10.025)

    def test_stable_history_passes(self, ledger):
        self.record_series(ledger, [10.0, 10.1, 9.9, 10.05, 10.2])
        result = ledger.trend(
            mix="Sync-1", config="2B2S", scheduler="colab"
        )
        assert result["judged"] and not result["regressed"]

    def test_higher_is_better_metric_regresses_downward(self, ledger):
        self.record_series(ledger, [1.6, 1.62, 1.58, 1.0], metric="h_stp")
        result = ledger.trend(
            mix="Sync-1", config="2B2S", scheduler="colab", metric="h_stp"
        )
        assert result["judged"] and result["regressed"]
        assert result["lower_is_better"] is False


class TestRecordingHooks:
    def test_record_point_appends_metrics_and_fingerprintless_rows(
        self, ledger
    ):
        ctx = ExperimentContext(
            seed=42, work_scale=0.05, use_learned_model=False, cache_dir=None
        )
        row_id = record_point(ledger, ctx, make_metrics(), wall_s=0.2)
        record = ledger.get_run(row_id)
        assert record["kind"] == "sweep-point"
        assert record["metrics"]["makespan"] == 10.0
        assert record["metrics"]["turnaround.fmm"] == 9.0
        assert record["fingerprint"] is None  # no persistent cache
        assert record["seed"] == 42

    def test_record_point_never_raises_into_experiment_path(self, ledger):
        ctx = ExperimentContext(
            seed=42, work_scale=0.05, use_learned_model=False, cache_dir=None
        )
        ledger.close()
        assert record_point(ledger, ctx, make_metrics()) == -1

    def test_serial_sweep_records_every_point(self, ledger):
        ctx = ExperimentContext(
            seed=42, work_scale=0.05, use_learned_model=False,
            cache_dir=None, ledger=ledger,
        )
        points = sweep(
            ctx, ["Sync-1"], configs=("2B2S",), schedulers=("linux", "colab")
        )
        rows = ledger.list_runs()
        assert len(rows) == len(points) == 2
        assert {row["scheduler"] for row in rows} == {"linux", "colab"}
        assert all(row["cache_hit"] is False for row in rows)

    def test_sweep_without_ledger_records_nothing(self, ledger):
        ctx = ExperimentContext(
            seed=42, work_scale=0.05, use_learned_model=False, cache_dir=None
        )
        sweep(ctx, ["Sync-1"], configs=("2B2S",), schedulers=("linux",))
        assert ledger.list_runs() == []

    def test_bench_rows_separate_from_sweep_points(self, ledger):
        ledger.record_run(
            kind=KIND_BENCH, mix="BENCH_x.json", metrics={"t_run": 1.0}
        )
        assert len(ledger.list_runs(kind=KIND_BENCH)) == 1
        assert ledger.list_runs(kind="sweep-point") == []


class TestRenderers:
    def test_rows_table_handles_missing_columns(self, ledger):
        ledger.record_run(metrics={})
        text = render_ledger_rows(ledger.list_runs())
        assert "--" in text and "id" in text

    def test_empty_ledger_message(self):
        assert "empty" in render_ledger_rows([])

    def test_trend_text_names_the_verdict(self, ledger):
        for value in (10.0, 10.1, 14.0):
            ledger.record_run(
                mix="M", config="C", scheduler="S",
                metrics={"makespan": value},
            )
        text = render_trend(
            ledger.trend(mix="M", config="C", scheduler="S")
        )
        assert "REGRESSED" in text and "median" in text
