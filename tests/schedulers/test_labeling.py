"""Shared estimate-refresh tests (used by both WASH and COLAB)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.model.speedup import OracleSpeedupModel
from repro.schedulers.labeling import refresh_estimates
from repro.sim.counters import PerformanceCounters
from tests.conftest import FAST_PROFILE, NEUTRAL_PROFILE, make_simple_task


def task_with_counters(profile=NEUTRAL_PROFILE, name="t"):
    task = make_simple_task(name=name, profile=profile)
    task.counters = PerformanceCounters(
        profile=profile, rng=np.random.default_rng(1)
    )
    return task


class TestRefresh:
    def test_first_sample_adopted_outright(self):
        task = task_with_counters(FAST_PROFILE)
        refresh_estimates([task], OracleSpeedupModel())
        assert task.predicted_speedup == pytest.approx(FAST_PROFILE.speedup())

    def test_subsequent_samples_blend(self):
        task = task_with_counters(FAST_PROFILE)
        task.predicted_speedup = 2.0
        refresh_estimates([task], OracleSpeedupModel(), speedup_alpha=0.5)
        expected = 0.5 * 2.0 + 0.5 * FAST_PROFILE.speedup()
        assert task.predicted_speedup == pytest.approx(expected)

    def test_blocking_ema_and_window_reset(self):
        task = task_with_counters()
        task.caused_wait_window = 4.0
        refresh_estimates([task], OracleSpeedupModel(), blocking_alpha=0.5)
        assert task.blocking_level == pytest.approx(2.0)
        assert task.caused_wait_window == 0.0
        # second quiet window decays the level
        refresh_estimates([task], OracleSpeedupModel(), blocking_alpha=0.5)
        assert task.blocking_level == pytest.approx(1.0)

    def test_counter_window_consumed(self):
        task = task_with_counters()
        task.counters.record_compute(1.0, 1.0)
        refresh_estimates([task], OracleSpeedupModel())
        assert task.counters.window["commit.committedInsts"] == 0.0

    def test_done_tasks_skipped(self):
        task = task_with_counters()
        task.mark_ready()
        task.mark_running(0, "big")
        task.mark_done(1.0)
        task.caused_wait_window = 8.0
        refresh_estimates([task], OracleSpeedupModel())
        assert task.blocking_level == 0.0  # untouched

    def test_none_estimate_keeps_previous_speedup(self):
        class DeadModel:
            def estimate(self, task, window):
                return None

        task = task_with_counters()
        task.predicted_speedup = 1.7
        refresh_estimates([task], DeadModel())
        assert task.predicted_speedup == 1.7

    def test_task_without_counters_fails_loudly(self):
        """A policy that forgets ``reads_counters = True`` must not go on
        silently with stale predictions."""
        task = make_simple_task(name="orphan")
        assert task.counters is None
        with pytest.raises(SimulationError, match=r"orphan.*wash.*reads_counters"):
            refresh_estimates([task], OracleSpeedupModel(), policy="wash")
