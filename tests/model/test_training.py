"""Offline training pipeline tests (reduced-scale Table 2 regeneration)."""

from __future__ import annotations

import inspect
import warnings

import numpy as np
import pytest

from repro.cli import main
from repro.model import training
from repro.model.training import (
    TrainingSample,
    collect_training_set,
    train_speedup_model,
    training_key_material,
)
from repro.parallel import fingerprint
from repro.sim.counters import WIDE_VECTOR_SIZE

#: Reduced settings: 4 benchmarks, 1 replica, tiny work scale.
FAST_KWARGS = dict(
    seed=77,
    work_scale=0.08,
    n_cores=2,
    benchmarks=["blackscholes", "lu_cb", "radix", "fluidanimate"],
    replicas=1,
)


@pytest.fixture(scope="module")
def samples():
    return collect_training_set(**FAST_KWARGS)


@pytest.fixture(scope="module")
def trained():
    return train_speedup_model(n_selected=4, **FAST_KWARGS)


class TestCollection:
    def test_samples_cover_all_benchmarks(self, samples):
        assert {s.benchmark for s in samples} == set(FAST_KWARGS["benchmarks"])

    def test_counter_vectors_full_width(self, samples):
        for sample in samples:
            assert sample.counters.shape == (WIDE_VECTOR_SIZE,)

    def test_measured_speedups_physical(self, samples):
        for sample in samples:
            assert 0.8 <= sample.speedup <= 3.2

    def test_compute_bound_faster_than_memory_bound(self, samples):
        by_bench = {}
        for sample in samples:
            by_bench.setdefault(sample.benchmark, []).append(sample.speedup)
        # lu_cb is compute-bound (low comm), blackscholes memory-bound.
        assert np.mean(by_bench["lu_cb"]) > np.mean(by_bench["blackscholes"])

    def test_deterministic(self):
        a = collect_training_set(**FAST_KWARGS)
        b = collect_training_set(**FAST_KWARGS)
        assert len(a) == len(b)
        assert all(
            x.speedup == y.speedup and (x.counters == y.counters).all()
            for x, y in zip(a, b)
        )

    def test_sample_dataclass_fields(self, samples):
        sample = samples[0]
        assert isinstance(sample, TrainingSample)
        assert sample.thread_name


class TestTraining:
    def test_model_beats_constant_predictor(self, trained):
        _model, report = trained
        assert report.r2 > 0.3

    def test_report_structure(self, trained):
        model, report = trained
        assert len(report.selected_counters) == 4
        assert report.n_samples >= 10
        assert report.mae > 0
        assert model.selected_counters == report.selected_counters

    def test_table2_pinned(self, trained):
        """Exact reduced-scale Table 2: any change to the counters training
        reads, or to the seed draws behind them, moves these values."""
        _model, report = trained
        assert report.selected_counters == [
            "dcache.tags.tagsinuse",
            "distractor.143",
            "distractor.159",
            "distractor.214",
        ]
        assert report.n_samples == 24
        assert repr(report.r2) == "0.4439744375401057"
        assert repr(report.mae) == "0.25729070975754276"

    def test_normalizer_not_selected(self, trained):
        _model, report = trained
        assert "commit.committedInsts" not in report.selected_counters

    def test_online_estimate_tracks_profile(self, trained):
        """Feed windows generated from known profiles; prediction should
        separate fast from slow threads."""
        from repro.sim.counters import PerformanceCounters
        from tests.conftest import FAST_PROFILE, SLOW_PROFILE, make_simple_task

        model, _report = trained
        estimates = {}
        for label, profile in (("fast", FAST_PROFILE), ("slow", SLOW_PROFILE)):
            counters = PerformanceCounters(
                profile=profile, rng=np.random.default_rng(3)
            )
            counters.record_compute(work=8.0, cpu_time=8.0)
            task = make_simple_task(profile=profile)
            estimates[label] = model.estimate(task, counters.read_window())
        assert estimates["fast"] > estimates["slow"]

    def test_full_default_training_selects_mostly_real_counters(self):
        """At full training scale most selected counters are Table 2 ones
        (a couple of spurious distractors are tolerated, as documented)."""
        from repro.model.training import default_training_report

        report = default_training_report()
        real = [n for n in report.selected_counters if not n.startswith("distractor")]
        assert len(real) >= 3
        assert report.r2 > 0.6


def fit_hex(trained_pair) -> tuple:
    """A trained model and report, every float as ``float.hex``."""
    model, report = trained_pair
    return (
        [float(c).hex() for c in model.regression.coef_],
        float(model.regression.intercept_).hex(),
        report.r2.hex(),
        report.mae.hex(),
        report.residual_std.hex(),
        report.selected_counters,
        report.n_samples,
    )


def train_fast(cache_dir):
    return train_speedup_model(n_selected=4, cache_dir=cache_dir, **FAST_KWARGS)


def refuse_simulation(*args, **kwargs):
    raise AssertionError("a training simulation ran on a warm cache")


class TestStoredTrainingSet:
    """The collected samples live in ``<cache_dir>/training/``; the fit
    still runs in-process, so a warm call is a fresh training bit for bit."""

    def test_cold_and_warm_equal_a_fresh_training(self, tmp_path, trained):
        cold = train_fast(tmp_path)
        warm = train_fast(tmp_path)
        assert fit_hex(cold) == fit_hex(trained)
        assert fit_hex(warm) == fit_hex(trained)
        assert len(list((tmp_path / "training").iterdir())) == 1

    def test_warm_call_runs_no_simulation(self, tmp_path, monkeypatch):
        train_fast(tmp_path)
        monkeypatch.setattr(training, "_rates_and_counters", refuse_simulation)
        train_fast(tmp_path)

    @pytest.mark.parametrize("damage", ["truncated", "foreign_key", "not_npz"])
    def test_damaged_entry_is_a_miss_and_overwritten(
        self, tmp_path, monkeypatch, trained, damage
    ):
        train_fast(tmp_path)
        [path] = (tmp_path / "training").iterdir()
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        elif damage == "foreign_key":
            with np.load(path) as entry:
                arrays = {name: entry[name] for name in entry.files}
            arrays["key"] = np.array('{"schema":0}')
            with open(path, "wb") as handle:
                np.savez(handle, **arrays)
        else:
            path.write_text("not an npz archive\n")
        assert fit_hex(train_fast(tmp_path)) == fit_hex(trained)
        monkeypatch.setattr(training, "_rates_and_counters", refuse_simulation)
        assert fit_hex(train_fast(tmp_path)) == fit_hex(trained)
        assert list((tmp_path / "training").iterdir()) == [path]

    def test_unwritable_cache_dir_returns_the_model_and_warns_once(
        self, tmp_path, trained
    ):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = train_fast(blocker)
        assert fit_hex(result) == fit_hex(trained)
        assert len(caught) == 1
        assert "not cached" in str(caught[0].message)

    def test_no_cache_dir_reads_and_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        train_fast(None)
        assert not any(tmp_path.iterdir())

    def test_cli_no_cache_writes_no_training_set(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["--no-cache", "--no-ledger", "train"]) == 0
        assert not (tmp_path / "training").exists()

    def test_cli_cache_dir_holds_one_training_set(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["--cache-dir", str(cache), "--no-ledger", "train"]) == 0
        assert len(list((cache / "training").iterdir())) == 1


class TestTrainingKeyCoverage:
    """Every input of the collected samples reaches the stored key.

    Each argument of :func:`collect_training_set` is changed in turn; a
    new argument fails until it is listed in ``CHANGED``.
    """

    CHANGED = {
        "seed": 78,
        "work_scale": 0.09,
        "n_cores": 3,
        "benchmarks": ["lu_cb"],
        "replicas": 2,
    }

    def test_every_argument_is_perturbed(self):
        parameters = inspect.signature(collect_training_set).parameters
        assert set(self.CHANGED) == set(parameters)

    @pytest.mark.parametrize("name", sorted(CHANGED))
    def test_argument_changes_key(self, name):
        base = training_key_material(**FAST_KWARGS)
        changed = training_key_material(**{**FAST_KWARGS, name: self.CHANGED[name]})
        assert changed != base

    def test_source_tree_changes_key(self, monkeypatch):
        base = training_key_material(**FAST_KWARGS)
        monkeypatch.setattr(fingerprint, "source_tree_hash", lambda: "0" * 64)
        assert training_key_material(**FAST_KWARGS) != base

    def test_numpy_version_changes_key(self, monkeypatch):
        base = training_key_material(**FAST_KWARGS)
        monkeypatch.setattr(np, "__version__", "0.0.0")
        assert training_key_material(**FAST_KWARGS) != base

    def test_defaults_are_key_material(self):
        assert training_key_material() == training_key_material(seed=1234)
