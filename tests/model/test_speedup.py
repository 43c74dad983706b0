"""Speedup estimator tests (oracle + learned)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ModelError
from repro.model.regression import LinearRegression
from repro.model.speedup import (
    MIN_WINDOW_INSTRUCTIONS,
    SPEEDUP_MAX,
    SPEEDUP_MIN,
    LearnedSpeedupModel,
    OracleSpeedupModel,
)
from tests.conftest import FAST_PROFILE, SLOW_PROFILE, make_simple_task


def fitted_regression(coefs, intercept=1.0):
    """A LinearRegression with exactly chosen parameters."""
    rng = np.random.default_rng(0)
    coefs = np.asarray(coefs, dtype=float)
    x = rng.normal(size=(50, len(coefs)))
    y = intercept + x @ coefs
    model = LinearRegression().fit(x, y)
    return model


class TestOracle:
    def test_returns_ground_truth(self):
        oracle = OracleSpeedupModel()
        fast = make_simple_task(profile=FAST_PROFILE)
        assert oracle.estimate(fast, {}) == pytest.approx(FAST_PROFILE.speedup())

    def test_noise_is_deterministic_per_seed(self):
        task = make_simple_task(profile=FAST_PROFILE)
        a = OracleSpeedupModel(noise_std=0.2, seed=5)
        b = OracleSpeedupModel(noise_std=0.2, seed=5)
        assert a.estimate(task, {}) == b.estimate(task, {})

    def test_noise_clipped_to_valid_range(self):
        oracle = OracleSpeedupModel(noise_std=5.0, seed=1)
        task = make_simple_task(profile=SLOW_PROFILE)
        for _ in range(100):
            value = oracle.estimate(task, {})
            assert SPEEDUP_MIN <= value <= SPEEDUP_MAX


class TestLearned:
    def make_model(self):
        regression = fitted_regression([10.0, -5.0], intercept=1.5)
        return LearnedSpeedupModel(["fp_regfile_writes", "dcache.tags.tagsinuse"], regression)

    def test_requires_fitted_regression(self):
        with pytest.raises(ModelError):
            LearnedSpeedupModel(["a"], LinearRegression())

    def test_counter_count_must_match_coefficients(self):
        regression = fitted_regression([1.0, 2.0])
        with pytest.raises(ModelError):
            LearnedSpeedupModel(["only-one"], regression)

    def test_features_normalised_by_instructions(self):
        model = self.make_model()
        window = {
            "commit.committedInsts": 2e6,
            "fp_regfile_writes": 4e5,
            "dcache.tags.tagsinuse": 2e5,
        }
        features = model.features_from(window)
        assert features == pytest.approx([0.2, 0.1])

    def test_dead_window_returns_none(self):
        model = self.make_model()
        window = {"commit.committedInsts": MIN_WINDOW_INSTRUCTIONS / 10}
        assert model.features_from(window) is None
        assert model.estimate(make_simple_task(), window) is None

    def test_missing_counters_default_to_zero(self):
        model = self.make_model()
        window = {"commit.committedInsts": 1e6}
        features = model.features_from(window)
        assert features == pytest.approx([0.0, 0.0])

    def test_estimate_clipped(self):
        model = self.make_model()
        window = {
            "commit.committedInsts": 1e6,
            "fp_regfile_writes": 1e9,  # absurd ratio forces a huge raw value
            "dcache.tags.tagsinuse": 0.0,
        }
        value = model.estimate(make_simple_task(), window)
        assert value == SPEEDUP_MAX

    def test_describe_mentions_counters_and_intercept(self):
        model = self.make_model()
        text = model.describe()
        assert "fp_regfile_writes" in text
        assert "speedup =" in text
        assert "1.5" in text


class TestLearnedClamp:
    """The estimate's clamp equals ``float(np.clip(raw, 1.0, 2.9))``."""

    @pytest.mark.parametrize(
        "raw",
        [
            0.0, -0.0, SPEEDUP_MIN, SPEEDUP_MAX,
            math.nextafter(SPEEDUP_MIN, -math.inf),
            math.nextafter(SPEEDUP_MAX, math.inf),
            math.nextafter(SPEEDUP_MIN, math.inf),
            math.nextafter(SPEEDUP_MAX, -math.inf),
            math.inf, -math.inf, math.nan,
        ],
    )
    def test_matches_np_clip_bit_for_bit(self, raw):
        # Zero weights: the prediction is the intercept plus 0.0.
        regression = fitted_regression([0.0])
        regression.coef_ = np.zeros(1)
        regression.intercept_ = raw
        model = LearnedSpeedupModel(["fp_regfile_writes"], regression)
        window = {"commit.committedInsts": 1e9, "fp_regfile_writes": 1e8}
        predicted = float(regression.predict(model.features_from(window)))
        expected = float(np.clip(predicted, SPEEDUP_MIN, SPEEDUP_MAX))
        assert model.estimate(None, window).hex() == expected.hex()
