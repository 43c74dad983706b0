"""Unit tests: cache-key fingerprints and the on-disk result cache."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.errors import ModelError
from repro.experiments.runner import ExperimentContext, MixMetrics
from repro.model.speedup import (
    LearnedSpeedupModel,
    OracleSpeedupModel,
    estimator_from_spec,
    estimator_to_spec,
)
from repro.obs.metrics import MetricsRegistry
from repro.parallel.cache import CACHE_DIR_ENV, ResultCache, default_cache_dir
from repro.parallel.fingerprint import (
    estimator_fingerprint,
    point_fingerprint,
    point_key_material,
    source_tree_hash,
)


def pure_ctx(**overrides) -> ExperimentContext:
    defaults = dict(
        seed=7,
        work_scale=0.05,
        estimator=OracleSpeedupModel(noise_std=0.0, seed=7),
    )
    defaults.update(overrides)
    return ExperimentContext(**defaults)


def sample_metrics() -> MixMetrics:
    return MixMetrics(
        mix_index="Sync-1",
        config="2B2S",
        scheduler="colab",
        h_antt=1.2345678901234567,
        h_stp=1.7654321098765432,
        makespan=123.456,
        turnarounds={"fmm": 10.125, "water_nsquared": 8.25},
    )


class TestEstimatorFingerprint:
    def test_pure_oracle_has_stable_id(self):
        ctx = pure_ctx()
        assert estimator_fingerprint(ctx) == "oracle:pure:seed=7"

    def test_noisy_oracle_uncacheable(self):
        ctx = pure_ctx(estimator=OracleSpeedupModel(noise_std=0.1, seed=7))
        assert estimator_fingerprint(ctx) is None

    def test_default_noisy_oracle_uncacheable(self):
        ctx = pure_ctx(estimator=None, use_learned_model=False)
        assert estimator_fingerprint(ctx) is None

    def test_lazy_learned_model_symbolic(self):
        ctx = pure_ctx(estimator=None, use_learned_model=True)
        assert estimator_fingerprint(ctx) == "learned:default"

    def test_explicit_learned_model_hashes_coefficients(self):
        from repro.model.training import default_speedup_model

        model = default_speedup_model()
        ctx = pure_ctx(estimator=model)
        fingerprint = estimator_fingerprint(ctx)
        assert fingerprint is not None and fingerprint.startswith("learned:")
        # Same coefficients -> same id; the id is content-addressed.
        clone = LearnedSpeedupModel.from_spec(model.to_spec())
        assert estimator_fingerprint(pure_ctx(estimator=clone)) == fingerprint


class TestEstimatorSpecRoundTrip:
    def test_oracle_round_trip(self):
        spec = estimator_to_spec(OracleSpeedupModel(noise_std=0.0, seed=3))
        rebuilt = estimator_from_spec(spec)
        assert isinstance(rebuilt, OracleSpeedupModel)
        assert rebuilt.is_pure

    def test_learned_round_trip_is_exact(self):
        from repro.model.training import default_speedup_model

        model = default_speedup_model()
        rebuilt = estimator_from_spec(estimator_to_spec(model))
        assert isinstance(rebuilt, LearnedSpeedupModel)
        assert rebuilt.to_spec() == model.to_spec()

    def test_unknown_spec_rejected(self):
        with pytest.raises(ModelError):
            estimator_from_spec({"kind": "mystery"})


class TestPointFingerprint:
    def test_material_covers_source_tree(self):
        material = point_key_material(pure_ctx(), "Sync-1", "2B2S", "colab")
        assert material is not None
        assert material["source_tree"] == source_tree_hash()
        assert material["core_orders"] == ["big_first", "little_first"]

    def test_uncacheable_estimator_yields_none(self):
        ctx = pure_ctx(estimator=OracleSpeedupModel(noise_std=0.1, seed=7))
        assert point_key_material(ctx, "Sync-1", "2B2S", "colab") is None


class TestExclusionTuples:
    """Exclusion tuples name real fields; a stale entry hides nothing.

    ANA002/ANA003 only flag fields missing from the tuples, so a name
    left behind after its field is removed would go unnoticed.
    """

    def test_fingerprint_tuples_name_config_or_context_fields(self):
        from repro.parallel import fingerprint
        from repro.sim.machine import MachineConfig

        known = {
            f.name
            for cls in (MachineConfig, ExperimentContext)
            for f in dataclasses.fields(cls)
        }
        for tuple_name in (
            "TELEMETRY_EXCLUDED_FIELDS",
            "PINNED_CONFIG_FIELDS",
            "PARITY_NEUTRAL_FIELDS",
            "EXECUTION_EXCLUDED_FIELDS",
        ):
            stale = set(getattr(fingerprint, tuple_name)) - known
            assert not stale, f"{tuple_name} names no field: {sorted(stale)}"

    def test_digest_exclusions_name_result_fields(self):
        from repro.sim.digest import DIGEST_EXCLUDED_FIELDS
        from repro.sim.machine import RunResult, TaskStats

        known = {
            f.name
            for cls in (RunResult, TaskStats)
            for f in dataclasses.fields(cls)
        }
        assert set(DIGEST_EXCLUDED_FIELDS) <= known


class TestSourceTreeHash:
    def seed_tree(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
        (tmp_path / "top.py").write_text("y = 2\n")
        return tmp_path

    def test_pycache_and_pyc_do_not_churn_the_hash(self, tmp_path):
        tree = self.seed_tree(tmp_path)
        before = source_tree_hash(root=tree)
        cache = tree / "pkg" / "__pycache__"
        cache.mkdir()
        (cache / "mod.cpython-312.pyc").write_bytes(b"\x00bytecode")
        # Some tools drop real .py files inside __pycache__ too.
        (cache / "mod.cpython-312.py").write_text("compiled = True\n")
        assert source_tree_hash(root=tree) == before

    def test_hidden_editor_droppings_are_ignored(self, tmp_path):
        tree = self.seed_tree(tmp_path)
        before = source_tree_hash(root=tree)
        (tree / ".#top.py").write_text("emacs lock\n")
        (tree / "pkg" / ".mod.py").write_text("vim artifact\n")
        assert source_tree_hash(root=tree) == before

    def test_real_source_changes_still_invalidate(self, tmp_path):
        tree = self.seed_tree(tmp_path)
        before = source_tree_hash(root=tree)
        (tree / "pkg" / "mod.py").write_text("x = 2\n")
        assert source_tree_hash(root=tree) != before

    def test_default_root_is_cached_and_stable(self):
        assert source_tree_hash() == source_tree_hash()

    def test_fingerprint_varies_with_every_key_field(self):
        base = point_key_material(pure_ctx(), "Sync-1", "2B2S", "colab")
        seen = {point_fingerprint(base)}
        for override in (
            pure_ctx(seed=8),
            pure_ctx(work_scale=0.06),
            pure_ctx(estimator=OracleSpeedupModel(noise_std=0.0, seed=9)),
        ):
            material = point_key_material(override, "Sync-1", "2B2S", "colab")
            fingerprint = point_fingerprint(material)
            assert fingerprint not in seen
            seen.add(fingerprint)
        for point in (
            ("Sync-2", "2B2S", "colab"),
            ("Sync-1", "4B4S", "colab"),
            ("Sync-1", "2B2S", "linux"),
        ):
            material = point_key_material(pure_ctx(), *point)
            fingerprint = point_fingerprint(material)
            assert fingerprint not in seen
            seen.add(fingerprint)

    def test_fingerprint_stable_across_calls(self):
        material = point_key_material(pure_ctx(), "Sync-1", "2B2S", "colab")
        again = point_key_material(pure_ctx(), "Sync-1", "2B2S", "colab")
        assert point_fingerprint(material) == point_fingerprint(again)


class TestDefaultCacheDir:
    def test_env_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"

    def test_falls_back_to_home(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        path = default_cache_dir()
        assert path.name == "repro"
        assert path.parent.name == ".cache"


class TestResultCache:
    def test_round_trip_is_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        metrics = sample_metrics()
        material = point_key_material(pure_ctx(), "Sync-1", "2B2S", "colab")
        fingerprint = point_fingerprint(material)
        cache.store(fingerprint, metrics, material)
        loaded = cache.load(fingerprint)
        assert loaded == metrics  # float64 repr round-trips exactly

    def test_turnaround_order_survives_round_trip(self, tmp_path):
        # Reports render programs in mix order; dict __eq__ would not
        # catch a cache that alphabetises keys on the way to disk.
        cache = ResultCache(tmp_path)
        metrics = sample_metrics()
        metrics.turnarounds = {"water_nsquared": 8.25, "fmm": 10.125}
        material = point_key_material(pure_ctx(), "Sync-1", "2B2S", "colab")
        fingerprint = point_fingerprint(material)
        cache.store(fingerprint, metrics, material)
        loaded = cache.load(fingerprint)
        assert list(loaded.turnarounds) == ["water_nsquared", "fmm"]

    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load("0" * 64) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        metrics = sample_metrics()
        material = point_key_material(pure_ctx(), "Sync-1", "2B2S", "colab")
        fingerprint = point_fingerprint(material)
        cache.store(fingerprint, metrics, material)
        path = cache._path_for(fingerprint)
        path.write_text("{ torn write")
        assert cache.load(fingerprint) is None

    def test_entry_is_auditable_json(self, tmp_path):
        cache = ResultCache(tmp_path)
        material = point_key_material(pure_ctx(), "Sync-1", "2B2S", "colab")
        fingerprint = point_fingerprint(material)
        cache.store(fingerprint, sample_metrics(), material)
        payload = json.loads(cache._path_for(fingerprint).read_text())
        assert payload["key"] == material
        assert payload["point"]["scheduler"] == "colab"

    def test_len_counts_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        material = point_key_material(pure_ctx(), "Sync-1", "2B2S", "colab")
        cache.store(point_fingerprint(material), sample_metrics(), material)
        assert len(cache) == 1

    def test_metrics_counters_published(self, tmp_path):
        registry = MetricsRegistry(enabled=True)
        cache = ResultCache(tmp_path, metrics=registry)
        material = point_key_material(pure_ctx(), "Sync-1", "2B2S", "colab")
        fingerprint = point_fingerprint(material)
        cache.load(fingerprint)
        cache.store(fingerprint, sample_metrics(), material)
        cache.load(fingerprint)
        assert registry.counter("cache.persistent.misses").value == 1.0
        assert registry.counter("cache.persistent.stores").value == 1.0
        assert registry.counter("cache.persistent.hits").value == 1.0
