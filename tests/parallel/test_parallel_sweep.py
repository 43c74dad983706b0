"""Parity and cache-behaviour tests for the sweep pipeline and its pool.

The determinism contract under test: for a *pure* speedup estimator the
sweep result is a function of (workload, topology, scheduler, seed,
core-order) only -- never of worker count, completion order, or whether a
point came from the persistent cache.
"""

from __future__ import annotations

import dataclasses
import io

import pytest

from repro.errors import ExperimentError
from repro.experiments.runner import (
    BoundedCache,
    ExperimentContext,
    evaluate_mix,
    sweep,
)
from repro.model.speedup import OracleSpeedupModel
from repro.obs.metrics import MetricsRegistry

#: Small but structurally interesting subset: 2 mixes x 2 configs x 3
#: schedulers = 12 evaluation points, 24 simulations.
MIX_SUBSET = ["Sync-1", "NSync-1"]
CONFIG_SUBSET = ("2B2S", "4B2S")
WORK_SCALE = 0.04


def pure_ctx(**overrides) -> ExperimentContext:
    defaults = dict(
        seed=11,
        work_scale=WORK_SCALE,
        estimator=OracleSpeedupModel(noise_std=0.0, seed=11),
    )
    defaults.update(overrides)
    return ExperimentContext(**defaults)


def run_sweep(ctx: ExperimentContext, **kwargs):
    return sweep(ctx, MIX_SUBSET, configs=CONFIG_SUBSET, **kwargs)


class TestParallelSerialParity:
    def test_jobs1_pool_matches_serial(self):
        # sweep() never starts a one-worker pool; drive the pool directly.
        from repro.parallel.executor import evaluate_on_pool

        serial = run_sweep(pure_ctx())
        ctx = pure_ctx()
        points = [(m.mix_index, m.config, m.scheduler) for m in serial]
        pooled = evaluate_on_pool(ctx, points, 1, False, None, from_cache=0)
        assert [metrics for metrics, _seconds in pooled] == serial
        assert ctx.obs_metrics.gauge("parallel.workers_used").value == 1.0

    def test_jobs4_pool_matches_serial(self):
        serial = run_sweep(pure_ctx())
        assert run_sweep(pure_ctx(), jobs=4) == serial

    def test_sweep_jobs_argument_routes_to_pool(self):
        serial = run_sweep(pure_ctx())
        parallel = run_sweep(pure_ctx(), jobs=2)
        assert parallel == serial

    def test_ctx_jobs_field_routes_to_pool(self):
        serial = run_sweep(pure_ctx())
        ctx = pure_ctx(jobs=2)
        assert run_sweep(ctx) == serial
        assert ctx.obs_metrics.gauge("parallel.jobs").value == 2.0

    def test_result_order_is_point_order_not_completion_order(self):
        results = run_sweep(pure_ctx(), jobs=4)
        expected = [
            (mix, config, scheduler)
            for mix in MIX_SUBSET
            for config in CONFIG_SUBSET
            for scheduler in ("linux", "wash", "colab")
        ]
        assert [
            (m.mix_index, m.config, m.scheduler) for m in results
        ] == expected

    def test_sanitized_parallel_matches_plain(self):
        plain = run_sweep(pure_ctx())
        checked = run_sweep(pure_ctx(), jobs=2, sanitize=True)
        assert checked == plain

    def test_worker_utilisation_metrics_recorded(self):
        ctx = pure_ctx(jobs=2)
        run_sweep(ctx)
        snapshot = ctx.obs_metrics.snapshot()
        counters = snapshot["counters"]
        gauges = snapshot["gauges"]
        assert counters["parallel.points_executed"] == 12.0
        assert gauges["parallel.workers_used"] >= 1.0
        assert gauges["parallel.worker.0.busy_s"] > 0.0
        assert gauges["parallel.worker.0.points"] >= 1.0


class TestSpawnedPoolParity:
    """The pool under the ``spawn`` start method equals the serial sweep.

    ``fork`` copies the initargs into each worker without pickling them;
    ``spawn`` sends the initargs, every submitted point and every result
    tuple through pickle, so a payload that cannot cross a process
    boundary fails here.
    """

    @pytest.fixture(autouse=True)
    def spawn_pool(self, monkeypatch):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        from repro.parallel import executor

        class SpawnedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                spawn = multiprocessing.get_context("spawn")
                super().__init__(*args, mp_context=spawn, **kwargs)

        monkeypatch.setattr(executor, "ProcessPoolExecutor", SpawnedPool)

    def test_jobs2_spawned_pool_matches_serial(self):
        assert run_sweep(pure_ctx(), jobs=2) == run_sweep(pure_ctx())

    def test_spawned_pool_ships_a_learned_model(self):
        from repro.model.training import default_speedup_model

        model = default_speedup_model()
        points = dict(configs=("2B2S",), schedulers=("wash", "colab"))
        serial = sweep(pure_ctx(estimator=model), ["Sync-1"], **points)
        pooled = sweep(pure_ctx(estimator=model), ["Sync-1"], jobs=2, **points)
        assert pooled == serial


def progress_line():
    """An unthrottled progress line writing into a string buffer."""
    from repro.obs.progress import SweepProgress

    stream = io.StringIO()
    return SweepProgress(0, stream=stream, min_interval_s=0.0), stream


def every_point_shown(text: str, total: int = 12) -> bool:
    """Did the line count up through every point to ``total``?"""
    return all(f"sweep {done}/{total} " in text for done in range(total + 1))


class TestSweepTelemetry:
    """The progress line is observational: identical results."""

    def test_telemetry_enabled_jobs2_matches_plain_serial(self):
        plain = run_sweep(pure_ctx())
        progress, stream = progress_line()
        observed = run_sweep(pure_ctx(), jobs=2, progress=progress)
        assert observed == plain
        assert progress.done == 12
        assert every_point_shown(stream.getvalue())
        assert stream.getvalue().endswith("\n")

    def test_telemetry_enabled_jobs4_matches_plain_serial(self):
        plain = run_sweep(pure_ctx())
        progress, _stream = progress_line()
        assert run_sweep(pure_ctx(), jobs=4, progress=progress) == plain

    def test_telemetry_reads_cache_entries_written_without_it(self, tmp_path):
        # A plain sweep's persistent cache fully serves a progress-on one.
        plain = run_sweep(pure_ctx(cache_dir=tmp_path))
        progress, stream = progress_line()
        warm_ctx = pure_ctx(cache_dir=tmp_path)
        warm = run_sweep(warm_ctx, jobs=2, progress=progress)
        assert warm == plain
        counters = warm_ctx.obs_metrics.snapshot()["counters"]
        assert counters["parallel.points_from_cache"] == 12.0
        assert counters.get("parallel.points_executed", 0.0) == 0.0
        assert "sweep 12/12 (100%)" in stream.getvalue()

    def test_progress_on_jobs1_sweep_runs_in_process(self, monkeypatch):
        def refuse_pool(*_args, **_kwargs):
            raise AssertionError("a jobs=1 sweep must not start a pool")

        monkeypatch.setattr(
            "repro.parallel.executor.ProcessPoolExecutor", refuse_pool
        )
        progress, stream = progress_line()
        ctx = pure_ctx()
        assert run_sweep(ctx, jobs=1, progress=progress) == run_sweep(
            pure_ctx()
        )
        assert every_point_shown(stream.getvalue())
        assert "parallel.jobs" not in ctx.obs_metrics.snapshot()["gauges"]


class TestPersistentCacheParity:
    def test_cold_vs_warm_is_bit_identical(self, tmp_path):
        cold_ctx = pure_ctx(cache_dir=tmp_path)
        cold = run_sweep(cold_ctx)
        assert len(cold_ctx.result_cache) == 12

        warm_ctx = pure_ctx(cache_dir=tmp_path)
        warm = run_sweep(warm_ctx)
        assert warm == cold
        hits = warm_ctx.obs_metrics.counter("cache.persistent.hits").value
        assert hits == 12.0

    def test_warm_cache_answers_parallel_sweep_without_pool(
        self, tmp_path, monkeypatch
    ):
        run_sweep(pure_ctx(cache_dir=tmp_path))

        def refuse_pool(*_args, **_kwargs):
            raise AssertionError("warm cache must not spawn a pool")

        monkeypatch.setattr(
            "repro.parallel.executor.ProcessPoolExecutor", refuse_pool
        )
        warm_ctx = pure_ctx(cache_dir=tmp_path)
        warm = run_sweep(warm_ctx, jobs=4)
        assert warm == run_sweep(pure_ctx())
        from_cache = warm_ctx.obs_metrics.counter(
            "parallel.points_from_cache"
        ).value
        assert from_cache == 12.0

    def test_interrupted_serial_sweep_resumes_where_it_stopped(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments import runner

        class Interrupted(Exception):
            pass

        uninterrupted = run_sweep(pure_ctx())
        evaluate = runner._evaluate_uncached
        evaluated = []

        def recording(stop_at):
            def evaluate_point(ctx, mix_index, config, scheduler, sanitize):
                if len(evaluated) == stop_at:
                    raise Interrupted
                evaluated.append((mix_index, config, scheduler))
                return evaluate(ctx, mix_index, config, scheduler, sanitize)

            return evaluate_point

        monkeypatch.setattr(runner, "_evaluate_uncached", recording(5))
        with pytest.raises(Interrupted):
            run_sweep(pure_ctx(cache_dir=tmp_path))
        assert len(pure_ctx(cache_dir=tmp_path).result_cache) == 5

        monkeypatch.setattr(runner, "_evaluate_uncached", recording(None))
        resumed = run_sweep(pure_ctx(cache_dir=tmp_path))
        assert resumed == uninterrupted
        # Five points before the stop, the other seven after it: none twice.
        assert evaluated == [
            (m.mix_index, m.config, m.scheduler) for m in resumed
        ]

    def test_parallel_sweep_fills_persistent_cache(self, tmp_path):
        ctx = pure_ctx(cache_dir=tmp_path)
        run_sweep(ctx, jobs=2)
        assert len(ctx.result_cache) == 12
        warm = run_sweep(pure_ctx(cache_dir=tmp_path))
        assert warm == run_sweep(pure_ctx())

    def test_impure_estimator_never_persists(self, tmp_path):
        ctx = pure_ctx(
            estimator=OracleSpeedupModel(noise_std=0.1, seed=11),
            cache_dir=tmp_path,
        )
        evaluate_mix(ctx, "Sync-1", "2B2S", "colab")
        assert len(ctx.result_cache) == 0

    def test_sanitized_runs_bypass_persistent_cache(self, tmp_path):
        ctx = pure_ctx(cache_dir=tmp_path)
        evaluate_mix(ctx, "Sync-1", "2B2S", "colab", sanitize=True)
        assert len(ctx.result_cache) == 0

    def test_seed_change_misses_cache(self, tmp_path):
        ctx = pure_ctx(cache_dir=tmp_path)
        evaluate_mix(ctx, "Sync-1", "2B2S", "colab")
        other = pure_ctx(
            seed=12,
            estimator=OracleSpeedupModel(noise_std=0.0, seed=12),
            cache_dir=tmp_path,
        )
        evaluate_mix(other, "Sync-1", "2B2S", "colab")
        assert other.obs_metrics.counter("cache.persistent.hits").value == 0.0
        assert len(ctx.result_cache) == 2


class TestBoundedCache:
    def make(self, maxsize=3):
        registry = MetricsRegistry()
        return (
            BoundedCache(
                maxsize,
                registry.counter("hits"),
                registry.counter("misses"),
                registry.counter("evictions"),
            ),
            registry,
        )

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ExperimentError):
            self.make(maxsize=0)

    def test_hit_miss_counters(self):
        cache, registry = self.make()
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert registry.counter("hits").value == 1.0
        assert registry.counter("misses").value == 1.0

    def test_lru_eviction_order(self):
        cache, registry = self.make(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a"; "b" becomes least recent
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert registry.counter("evictions").value == 1.0

    def test_put_refreshes_existing_key(self):
        cache, _ = self.make(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_context_cache_counters_wired(self):
        ctx = pure_ctx()
        evaluate_mix(ctx, "Sync-1", "2B2S", "colab")
        evaluate_mix(ctx, "Sync-1", "2B2S", "colab")
        snapshot = ctx.obs_metrics.snapshot()["counters"]
        assert snapshot["ctx.metrics_cache.hits"] == 1.0
        assert snapshot["ctx.run_cache.misses"] == 2.0  # both core orders


class TestContextFields:
    def test_defaults_are_serial_and_uncached(self):
        ctx = ExperimentContext()
        assert ctx.jobs == 1
        assert ctx.result_cache is None

    def test_run_cache_still_deduplicates_runs(self):
        ctx = pure_ctx()
        a = evaluate_mix(ctx, "Sync-1", "2B2S", "colab")
        b = evaluate_mix(ctx, "Sync-1", "2B2S", "colab")
        assert a is b  # in-process metrics cache returns the same object

    def test_dataclass_replace_keeps_working(self):
        ctx = pure_ctx()
        clone = dataclasses.replace(ctx, seed=99)
        assert clone.seed == 99
        assert clone._metrics_cache is not ctx._metrics_cache


class TestLedgerRecording:
    def ledger(self, tmp_path):
        from repro.obs.ledger import Ledger

        return Ledger(tmp_path / "ledger.db")

    def test_parallel_sweep_records_every_point(self, tmp_path):
        with self.ledger(tmp_path) as ledger:
            ctx = pure_ctx(ledger=ledger)
            results = run_sweep(ctx, jobs=2)
            rows = ledger.list_runs(limit=100)
            assert len(rows) == len(results)
            recorded = {
                (row["mix"], row["config"], row["scheduler"])
                for row in rows
            }
            assert recorded == {
                (m.mix_index, m.config, m.scheduler) for m in results
            }
            assert all(row["cache_hit"] is False for row in rows)

    def test_ledger_does_not_change_sweep_results(self, tmp_path):
        plain = run_sweep(pure_ctx(), jobs=2)
        with self.ledger(tmp_path) as ledger:
            recorded = run_sweep(pure_ctx(ledger=ledger), jobs=2)
        assert recorded == plain

    def test_warm_cache_points_marked_as_hits(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_sweep(pure_ctx(cache_dir=cache_dir), jobs=2)  # warm the cache
        with self.ledger(tmp_path) as ledger:
            warm_ctx = pure_ctx(cache_dir=cache_dir, ledger=ledger)
            results = run_sweep(warm_ctx, jobs=2)
            rows = ledger.list_runs(limit=100)
            assert len(rows) == len(results)
            assert all(row["cache_hit"] is True for row in rows)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_agree_across_job_counts(self, tmp_path, jobs):
        # Executed: measured wall time, a miss.  Cache hit: no wall time,
        # a hit.  Sanitized: no cache lookup, so hit/miss is unknown.
        point = dict(configs=("2B2S",), schedulers=("linux",))
        with self.ledger(tmp_path) as ledger:
            for sanitize in (False, False, True):
                ctx = pure_ctx(cache_dir=tmp_path / "cache", ledger=ledger)
                sweep(ctx, ["Sync-1"], jobs=jobs, sanitize=sanitize, **point)
            rows = ledger.list_runs(limit=10)
        rows.sort(key=lambda row: row["id"])
        assert [(row["cache_hit"], row["wall_s"] is None) for row in rows] == [
            (False, False),
            (True, True),
            (None, False),
        ]

    def test_ledger_handle_excluded_from_fingerprints(self):
        from repro.parallel.fingerprint import TELEMETRY_EXCLUDED_FIELDS

        assert "ledger" in TELEMETRY_EXCLUDED_FIELDS
