"""Synthetic PMU tests: profiles, speedup function, counter accumulation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.counters import (
    COUNTER_TABLE,
    INFORMATIVE_NAMES,
    INSTRUCTIONS_PER_WORK,
    WIDE_VECTOR_SIZE,
    MicroArchProfile,
    PerformanceCounters,
    counter_names,
    profile_from_traits,
    wide_vector,
)
from tests.conftest import FAST_PROFILE, NEUTRAL_PROFILE, SLOW_PROFILE

unit = st.floats(0.0, 1.0)


class TestProfile:
    def test_field_range_validated(self):
        with pytest.raises(SimulationError):
            MicroArchProfile(
                ilp=1.5, branchiness=0, store_pressure=0,
                mem_bound=0, frontend_stall=0, quiesce=0,
            )

    def test_speedup_bounds(self):
        assert 1.0 <= SLOW_PROFILE.speedup() <= 2.9
        assert 1.0 <= FAST_PROFILE.speedup() <= 2.9

    def test_compute_bound_faster_than_memory_bound(self):
        assert FAST_PROFILE.speedup() > SLOW_PROFILE.speedup()

    def test_fast_profile_near_ceiling(self):
        assert FAST_PROFILE.speedup() > 2.4

    def test_slow_profile_near_floor(self):
        assert SLOW_PROFILE.speedup() < 1.25

    @given(unit, unit, unit, unit, unit, unit)
    @settings(max_examples=100, deadline=None)
    def test_speedup_always_in_range(self, a, b, c, d, e, f):
        profile = MicroArchProfile(a, b, c, d, e, f)
        assert 1.0 <= profile.speedup() <= 2.9

    @given(unit, unit)
    @settings(max_examples=50, deadline=None)
    def test_speedup_monotone_in_ilp(self, ilp, mem):
        lower = MicroArchProfile(max(0.0, ilp - 0.2), 0.3, 0.3, mem, 0.2, 0.2)
        higher = MicroArchProfile(min(1.0, ilp + 0.2), 0.3, 0.3, mem, 0.2, 0.2)
        assert higher.speedup() >= lower.speedup() - 1e-12

    def test_profile_from_traits_deterministic_per_rng(self):
        p1 = profile_from_traits(0.5, 0.5, 0.5, np.random.default_rng(7))
        p2 = profile_from_traits(0.5, 0.5, 0.5, np.random.default_rng(7))
        assert p1 == p2

    def test_profile_from_traits_tracks_traits(self):
        rng = np.random.default_rng(0)
        compute = profile_from_traits(0.95, 0.05, 0.1, rng, jitter=0.0)
        memory = profile_from_traits(0.05, 0.95, 0.1, rng, jitter=0.0)
        assert compute.ilp > memory.ilp
        assert memory.mem_bound > compute.mem_bound


class TestCounterAccumulation:
    def make(self, profile=NEUTRAL_PROFILE, seed=0):
        return PerformanceCounters(profile=profile, rng=np.random.default_rng(seed))

    def test_initial_zero(self):
        counters = self.make()
        assert all(v == 0.0 for v in counters.totals.values())
        assert set(counters.totals) == set(INFORMATIVE_NAMES)

    def test_committed_insts_exact(self):
        counters = self.make()
        counters.record_compute(work=2.0, cpu_time=3.0)
        assert counters.totals["commit.committedInsts"] == pytest.approx(
            2.0 * INSTRUCTIONS_PER_WORK
        )

    def test_zero_work_noop(self):
        counters = self.make()
        counters.record_compute(work=0.0, cpu_time=0.0)
        assert counters.totals["commit.committedInsts"] == 0.0

    def test_negative_work_rejected(self):
        with pytest.raises(SimulationError):
            self.make().record_compute(work=-1.0, cpu_time=1.0)

    def test_negative_wait_rejected(self):
        with pytest.raises(SimulationError):
            self.make().record_wait(-0.5)

    def test_wait_accumulates_quiesce_only(self):
        counters = self.make()
        counters.record_wait(5.0)
        assert counters.totals["quiesceCycles"] > 0
        assert counters.totals["commit.committedInsts"] == 0.0

    def test_ilp_drives_regfile_writes(self):
        fast = self.make(FAST_PROFILE, seed=1)
        slow = self.make(SLOW_PROFILE, seed=1)
        fast.record_compute(10.0, 10.0)
        slow.record_compute(10.0, 10.0)
        assert (
            fast.totals["fp_regfile_writes"] > slow.totals["fp_regfile_writes"]
        )

    def test_mem_bound_drives_dcache_tags(self):
        fast = self.make(FAST_PROFILE, seed=1)
        slow = self.make(SLOW_PROFILE, seed=1)
        fast.record_compute(10.0, 10.0)
        slow.record_compute(10.0, 10.0)
        assert (
            slow.totals["dcache.tags.tagsinuse"]
            > fast.totals["dcache.tags.tagsinuse"]
        )

    def test_window_read_and_reset(self):
        counters = self.make()
        counters.record_compute(1.0, 1.0)
        window = counters.read_window(reset=True)
        assert window["commit.committedInsts"] > 0
        assert counters.window["commit.committedInsts"] == 0.0
        # totals survive the reset
        assert counters.totals["commit.committedInsts"] > 0

    def test_window_read_without_reset(self):
        counters = self.make()
        counters.record_compute(1.0, 1.0)
        counters.read_window(reset=False)
        assert counters.window["commit.committedInsts"] > 0

    def test_normalized_divides_by_insts(self):
        counters = self.make()
        counters.record_compute(4.0, 4.0)
        normalized = counters.normalized()
        insts = counters.totals["commit.committedInsts"]
        for name, value in normalized.items():
            assert value == pytest.approx(counters.totals[name] / insts)
        assert "commit.committedInsts" not in normalized

    def test_normalized_empty_is_zero(self):
        normalized = self.make().normalized()
        assert all(v == 0.0 for v in normalized.values())


def per_call_draws(works, profile, seed):
    """``(totals, window)`` with one ``normal(size=5)`` draw per call."""
    rng = np.random.default_rng(seed)
    totals = {name: 0.0 for name in INFORMATIVE_NAMES}
    window = dict(totals)
    p = profile
    rates = {
        "fp_regfile_writes": 0.05 + 0.40 * p.ilp,
        "fetch.Branches": 0.02 + 0.20 * p.branchiness,
        "rename.SQFullEvents": 0.002 + 0.05 * p.store_pressure,
        "dcache.tags.tagsinuse": 0.05 + 0.60 * p.mem_bound,
        "fetch.IcacheWaitRetryStallCycles": 0.005 + 0.12 * p.frontend_stall,
    }
    for work in works:
        if work == 0.0:
            continue
        insts = work * INSTRUCTIONS_PER_WORK
        noise = rng.normal(0.0, 0.05, 5).tolist()
        totals["commit.committedInsts"] += insts
        window["commit.committedInsts"] += insts
        for (name, rate), sample in zip(rates.items(), noise):
            amount = insts * rate * max(0.0, 1.0 + sample)
            totals[name] += amount
            window[name] += amount
    return totals, window


class TestBlockDrawnNoise:
    """The hot path draws noise in blocks; values match per-call draws."""

    @pytest.mark.parametrize("n_calls", [1, 7, 8, 9, 17])
    def test_matches_per_call_draws(self, n_calls):
        works = [0.25 + 0.5 * i for i in range(n_calls)]
        # Zero-work calls draw nothing, wherever they fall.
        for at in sorted({0, n_calls // 2, 8, n_calls}, reverse=True):
            works.insert(min(at, len(works)), 0.0)
        counters = PerformanceCounters(
            profile=FAST_PROFILE, rng=np.random.default_rng(11), hotpath=True
        )
        for work in works:
            counters.record_compute(work, cpu_time=work)
        totals, window = per_call_draws(works, FAST_PROFILE, seed=11)
        assert counters.totals == totals
        assert counters.window == window

    def test_zero_work_draws_nothing(self):
        counters = PerformanceCounters(
            profile=FAST_PROFILE, rng=np.random.default_rng(11), hotpath=True
        )
        untouched = np.random.default_rng(11).bit_generator.state
        for _ in range(3):
            counters.record_compute(0.0, cpu_time=1.0)
        assert counters.rng.bit_generator.state == untouched


class TestWideVector:
    def test_shape_and_names(self):
        names = counter_names()
        assert len(names) == WIDE_VECTOR_SIZE
        assert names[: len(INFORMATIVE_NAMES)] == list(INFORMATIVE_NAMES)
        assert len(set(names)) == WIDE_VECTOR_SIZE

    def test_table2_rows_present(self):
        assert len(COUNTER_TABLE) == 7
        assert COUNTER_TABLE[-1].name == "commit.committedInsts"
        letters = [row.index for row in COUNTER_TABLE]
        assert letters == list("ABCDEFG")

    def test_wide_vector_embeds_informative_values(self, rng):
        counters = PerformanceCounters(
            profile=NEUTRAL_PROFILE, rng=np.random.default_rng(0)
        )
        counters.record_compute(5.0, 5.0)
        vector = wide_vector(counters.totals, rng)
        assert vector.shape == (WIDE_VECTOR_SIZE,)
        for i, name in enumerate(INFORMATIVE_NAMES):
            assert vector[i] == pytest.approx(counters.totals[name])

    def test_distractors_nonnegative(self, rng):
        counters = PerformanceCounters(
            profile=NEUTRAL_PROFILE, rng=np.random.default_rng(0)
        )
        counters.record_compute(5.0, 5.0)
        vector = wide_vector(counters.totals, rng)
        assert (vector >= 0).all()

    def test_distractors_scale_with_instructions(self):
        small = {name: 0.0 for name in INFORMATIVE_NAMES}
        small["commit.committedInsts"] = 1e4
        big = dict(small, **{"commit.committedInsts": 1e8})
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        v_small = wide_vector(small, rng_a)
        v_big = wide_vector(big, rng_b)
        assert v_big[len(INFORMATIVE_NAMES):].sum() > v_small[
            len(INFORMATIVE_NAMES):
        ].sum()
