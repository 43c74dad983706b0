"""Unit tests: cache-key fingerprints and the on-disk result cache."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.errors import ExperimentError, ModelError
from repro.experiments.runner import (
    ExperimentContext,
    MixMetrics,
    evaluate_mix,
    run_mix_once,
)
from repro.model.speedup import (
    LearnedSpeedupModel,
    OracleSpeedupModel,
    estimator_from_spec,
    estimator_to_spec,
)
from repro.obs.context import ObsConfig
from repro.obs.metrics import MetricsRegistry
from repro.parallel.cache import CACHE_DIR_ENV, ResultCache, default_cache_dir
from repro.parallel.fingerprint import (
    EXECUTION_EXCLUDED_FIELDS,
    PARITY_NEUTRAL_FIELDS,
    TELEMETRY_EXCLUDED_FIELDS,
    estimator_fingerprint,
    point_fingerprint,
    point_key_material,
    source_tree_hash,
)
from repro.sim.machine import MachineConfig
from repro.workloads.mixes import MIXES


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


#: A value unlike the default for every public ExperimentContext field.
CHANGED_CONTEXT = {
    "seed": 43,
    "work_scale": 0.5,
    "estimator": OracleSpeedupModel(noise_std=0.0, seed=9),
    "use_learned_model": False,
    "jobs": 4,
    "cache_dir": "elsewhere",
    "result_cache": object(),
    "obs_metrics": MetricsRegistry(enabled=False),
    "ledger": object(),
}


class TestKeyCoverage:
    """Every experiment input reaches the cache key; exclusions are real.

    Checked by value: each context field is changed from its default in
    turn, and the key material must change exactly when the field is not
    named on an exclusion tuple.  A new field fails until it is listed in
    ``CHANGED_CONTEXT``; a stale or wrong tuple entry fails too.
    """

    EXCLUDED = set(TELEMETRY_EXCLUDED_FIELDS + EXECUTION_EXCLUDED_FIELDS)

    def test_every_public_field_is_perturbed(self):
        public = {
            f.name
            for f in dataclasses.fields(ExperimentContext)
            if not f.name.startswith("_")
        }
        assert set(CHANGED_CONTEXT) == public
        assert self.EXCLUDED <= public

    @pytest.mark.parametrize("name", sorted(CHANGED_CONTEXT))
    def test_field_changes_key_unless_excluded(self, name):
        point = ("Sync-1", "2B2S", "colab")
        base = point_key_material(ExperimentContext(), *point)
        changed = point_key_material(
            ExperimentContext(**{name: CHANGED_CONTEXT[name]}), *point
        )
        assert (changed == base) == (name in self.EXCLUDED)

    def test_sweep_points_set_no_config_field_beyond_seed(self, monkeypatch):
        """A point varies only ``seed`` and parity-neutral switches.

        Every other MachineConfig field keeps its default, which the
        source-tree hash covers.  Recorded over both core orders, the
        isolated baseline runs, and every observer switch.
        """
        recorded = []
        original = MachineConfig.__init__

        def recording(self, *args, **kwargs):
            recorded.append((args, kwargs))
            original(self, *args, **kwargs)

        monkeypatch.setattr(MachineConfig, "__init__", recording)
        ctx = pure_ctx()
        evaluate_mix(ctx, "Sync-1", "2B2S", "colab", sanitize=True)
        run_mix_once(
            ctx, MIXES["Sync-1"], "2B2S", "colab", True,
            obs=ObsConfig(trace=True), timeseries=True,
        )
        assert len(recorded) > 3
        allowed = {"seed", *PARITY_NEUTRAL_FIELDS}
        for args, kwargs in recorded:
            assert args == () and set(kwargs) <= allowed, kwargs


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

    @pytest.mark.parametrize(
        "body",
        ["[]", '"x"', '{"point": {}}', "MISSING_TURNAROUNDS"],
        ids=["list", "string", "empty-point", "no-turnarounds"],
    )
    def test_foreign_entry_is_a_counted_miss(self, body, tmp_path):
        registry = MetricsRegistry(enabled=True)
        cache = ResultCache(tmp_path, metrics=registry)
        material = point_key_material(pure_ctx(), "Sync-1", "2B2S", "colab")
        fingerprint = point_fingerprint(material)
        cache.store(fingerprint, sample_metrics(), material)
        path = cache._path_for(fingerprint)
        if body == "MISSING_TURNAROUNDS":
            payload = json.loads(path.read_text())
            del payload["point"]["turnarounds"]
            body = json.dumps(payload)
        path.write_text(body)
        assert cache.load(fingerprint) is None
        assert registry.counter("cache.persistent.misses").value == 1.0
        assert registry.counter("cache.persistent.hits").value == 0.0

    @pytest.mark.parametrize("failing", ["write", "rename"])
    def test_failed_store_leaves_no_temp_file(
        self, failing, tmp_path, monkeypatch
    ):
        import errno
        import os
        import pathlib

        write_text = pathlib.Path.write_text

        def torn_write(self, data, **kwargs):
            write_text(self, data[:10], **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")

        def failed_rename(*_args):
            raise OSError(errno.ENOSPC, "No space left on device")

        if failing == "write":
            monkeypatch.setattr(pathlib.Path, "write_text", torn_write)
        else:
            monkeypatch.setattr(os, "replace", failed_rename)
        cache = ResultCache(tmp_path)
        material = point_key_material(pure_ctx(), "Sync-1", "2B2S", "colab")
        fingerprint = point_fingerprint(material)
        path = cache._path_for(fingerprint)
        with pytest.raises(ExperimentError, match=f"cache entry {path}"):
            cache.store(fingerprint, sample_metrics(), material)
        assert list(path.parent.iterdir()) == []

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
