"""Offline training pipeline tests (reduced-scale Table 2 regeneration)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.model.training import (
    TrainingSample,
    collect_training_set,
    train_speedup_model,
)
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
