"""Fairness measure tests (:func:`repro.metrics.turnaround.fairness_index`
and :func:`~repro.metrics.turnaround.jains_index`)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExperimentError
from repro.metrics.turnaround import fairness_index, jains_index

positive = st.floats(0.01, 1e4)


class TestSlowdowns:
    """The per-app slowdowns behind the fairness index are checked by the
    same rules as H_ANTT's."""

    def test_key_mismatch_rejected(self):
        with pytest.raises(ExperimentError):
            fairness_index({"a": 1.0}, {"b": 1.0})

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            fairness_index({}, {})

    def test_nonpositive_rejected(self):
        with pytest.raises(ExperimentError):
            fairness_index({"a": 0.0}, {"a": 1.0})


class TestJainsIndex:
    def test_uniform_is_one(self):
        assert jains_index([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_single_value_is_one(self):
        assert jains_index([7.0]) == pytest.approx(1.0)

    def test_skew_lowers_index(self):
        assert jains_index([1.0, 100.0]) < jains_index([1.0, 2.0])

    def test_lower_bound_one_over_n(self):
        # One dominant value approaches 1/n.
        index = jains_index([1e-6, 1e-6, 1e-6, 1000.0])
        assert index == pytest.approx(0.25, rel=0.01)

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            jains_index([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ExperimentError):
            jains_index([1.0, -2.0])

    @given(st.lists(positive, min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, values):
        index = jains_index(values)
        assert 1.0 / len(values) - 1e-9 <= index <= 1.0 + 1e-9

    @given(st.lists(positive, min_size=1, max_size=12), st.floats(0.1, 10))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariant(self, values, factor):
        assert jains_index([v * factor for v in values]) == pytest.approx(
            jains_index(values), rel=1e-6
        )


class TestDerivedMeasures:
    def test_fairness_index_perfect(self):
        assert fairness_index(
            {"a": 200.0, "b": 300.0}, {"a": 100.0, "b": 150.0}
        ) == pytest.approx(1.0)
