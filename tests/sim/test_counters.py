"""Synthetic PMU tests: profiles, speedup function, counter accumulation."""

from __future__ import annotations

import math
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.counters import (
    COUNTER_TABLE,
    INFORMATIVE_NAMES,
    INSTRUCTIONS_PER_WORK,
    PENDING_CAP,
    WIDE_VECTOR_SIZE,
    MicroArchProfile,
    PerformanceCounters,
    counter_names,
    profile_from_traits,
    wide_vector,
)
from tests.conftest import (
    FAST_PROFILE,
    NEUTRAL_PROFILE,
    SLOW_PROFILE,
    CountingCFS,
    make_machine,
    make_simple_task,
)

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
    """Noise is drawn in blocks; values match per-call draws."""

    @pytest.mark.parametrize("n_calls", [1, 7, 8, 9, 17])
    def test_matches_per_call_draws(self, n_calls):
        works = [0.25 + 0.5 * i for i in range(n_calls)]
        # Zero-work calls draw nothing, wherever they fall.
        for at in sorted({0, n_calls // 2, 8, n_calls}, reverse=True):
            works.insert(min(at, len(works)), 0.0)
        counters = PerformanceCounters(
            profile=FAST_PROFILE, rng=np.random.default_rng(11)
        )
        for work in works:
            counters.record_compute(work, cpu_time=work)
        totals, window = per_call_draws(works, FAST_PROFILE, seed=11)
        assert counters.totals == totals
        assert counters.window == window

    def test_zero_work_draws_nothing(self):
        counters = PerformanceCounters(
            profile=FAST_PROFILE, rng=np.random.default_rng(11)
        )
        untouched = np.random.default_rng(11).bit_generator.state
        for _ in range(3):
            counters.record_compute(0.0, cpu_time=1.0)
        assert counters.rng.bit_generator.state == untouched


class EagerCounters:
    """The eager per-record update the lazy counters replace.

    Every :meth:`record_compute` draws its five noise factors from a block
    of 40 and adds into both accumulator sets at once.
    """

    def __init__(self, profile, rng):
        self.profile = profile
        self.rng = rng
        self.totals = {name: 0.0 for name in INFORMATIVE_NAMES}
        self.window = {name: 0.0 for name in INFORMATIVE_NAMES}
        p = profile
        self.rates = (
            0.05 + 0.40 * p.ilp,
            0.02 + 0.20 * p.branchiness,
            0.002 + 0.05 * p.store_pressure,
            0.05 + 0.60 * p.mem_bound,
            0.005 + 0.12 * p.frontend_stall,
        )
        self.noise = array("d")
        self.cursor = 0

    def record_compute(self, work, cpu_time):
        if work == 0.0:
            return
        insts = work * INSTRUCTIONS_PER_WORK
        noise = self.noise
        start = self.cursor
        if start > len(noise) - 5:
            noise = self.noise = array(
                "d", self.rng.normal(0.0, 0.05, 40).tobytes()
            )
            start = 0
        self.cursor = start + 5
        self.totals["commit.committedInsts"] += insts
        self.window["commit.committedInsts"] += insts
        names = (
            "fp_regfile_writes",
            "fetch.Branches",
            "rename.SQFullEvents",
            "dcache.tags.tagsinuse",
            "fetch.IcacheWaitRetryStallCycles",
        )
        for name, rate, sample in zip(names, self.rates, noise[start:start + 5]):
            f = 1.0 + sample
            amount = insts * rate * (f if f > 0.0 else 0.0)
            self.totals[name] += amount
            self.window[name] += amount

    def record_wait(self, wait_time):
        cycles = wait_time * 2.0e6 * (0.5 + 0.5 * self.profile.quiesce)
        self.totals["quiesceCycles"] += cycles
        self.window["quiesceCycles"] += cycles

    def read_window(self, reset=True):
        snapshot = dict(self.window)
        if reset:
            for name in self.window:
                self.window[name] = 0.0
        return snapshot


def hexed(values):
    return {name: float(value).hex() for name, value in values.items()}


def random_operations(seed):
    """A mixed stream of records, waits and reads.

    Works include exact zeros and values spanning six decades; one stretch
    of ``PENDING_CAP + 300`` records has no read, so the buffer folds on
    its own at least once.
    """
    rng = np.random.default_rng(1000 + seed)
    ops = []
    for i in range(1500):
        choice = rng.random()
        if i == 700:
            for _ in range(PENDING_CAP + 300):
                ops.append(("compute", float(rng.uniform(1e-4, 3.0))))
        if choice < 0.08:
            ops.append(("compute", 0.0))
        elif choice < 0.7:
            ops.append(("compute", float(10.0 ** rng.uniform(-4, 2))))
        elif choice < 0.8:
            ops.append(("wait", float(rng.uniform(0.0, 5.0))))
        elif choice < 0.9:
            ops.append(("read", True))
        else:
            ops.append(("read", False))
    return ops


class TestLazyMatchesEager:
    """Counters computed when read equal the eager per-record update."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_snapshot_and_total_bit_identical(self, seed):
        profile = (FAST_PROFILE, SLOW_PROFILE, NEUTRAL_PROFILE)[seed]
        lazy = PerformanceCounters(profile=profile, rng=np.random.default_rng(seed))
        eager = EagerCounters(profile, np.random.default_rng(seed))
        ops = random_operations(seed)
        records = sum(1 for op, value in ops if op == "compute" and value > 0.0)
        assert records > 5 * 8  # more than five refills of the 40-factor block
        reads = 0
        for op, value in ops:
            if op == "compute":
                lazy.record_compute(value, cpu_time=value)
                eager.record_compute(value, cpu_time=value)
                assert len(lazy.pending) < PENDING_CAP
            elif op == "wait":
                lazy.record_wait(value)
                eager.record_wait(value)
            else:
                reads += 1
                assert hexed(lazy.read_window(reset=value)) == hexed(
                    eager.read_window(reset=value)
                )
        assert reads > 100
        assert hexed(lazy.totals) == hexed(eager.totals)
        assert hexed(lazy.window) == hexed(eager.window)

    def test_totals_and_window_are_read_only_views_that_fold(self):
        counters = PerformanceCounters(
            profile=NEUTRAL_PROFILE, rng=np.random.default_rng(0)
        )
        counters.record_compute(2.0, cpu_time=2.0)
        assert len(counters.pending) == 1
        assert counters.window["commit.committedInsts"] == 2.0 * INSTRUCTIONS_PER_WORK
        assert len(counters.pending) == 0
        with pytest.raises(TypeError):
            counters.totals["commit.committedInsts"] = 0.0
        with pytest.raises(AttributeError):
            counters.totals = {}


class TestBoundedBuffer:
    def test_unread_task_holds_at_most_the_cap(self):
        counters = PerformanceCounters(
            profile=NEUTRAL_PROFILE, rng=np.random.default_rng(0)
        )
        longest = 0
        for i in range(10_000):
            counters.record_compute(0.5 + (i % 7) * 0.1, cpu_time=1.0)
            longest = max(longest, len(counters.pending))
        assert longest <= PENDING_CAP
        # Left-over unused noise factors stay under one 40-factor block.
        assert len(counters._noise) < 40
        assert counters.totals["commit.committedInsts"] == pytest.approx(
            sum(0.5 + (i % 7) * 0.1 for i in range(10_000)) * INSTRUCTIONS_PER_WORK
        )

    def test_machine_folds_a_full_buffer_without_a_read(self):
        """The machine's own append path folds at the cap too."""
        longest = 0

        class Watching(CountingCFS):
            # ``charge`` runs right after the machine appends the work.
            def charge(self, task, core, elapsed, now):
                nonlocal longest
                longest = max(longest, len(task.counters.pending))
                super().charge(task, core, elapsed, now)

        chunks = 2 * PENDING_CAP + 100
        machine = make_machine(1, 0, scheduler=Watching())
        task = make_simple_task("t", work=float(chunks), chunks=chunks)
        machine.add_task(task)
        machine.run()
        assert longest == PENDING_CAP - 1  # folded on reaching the cap
        assert task.counters.totals["commit.committedInsts"] == pytest.approx(
            task.work_done * INSTRUCTIONS_PER_WORK
        )


#: Inputs at and around every clamp's edges: signed zeros, both bounds,
#: one ulp outside each, the infinities and NaN.
def clamp_edges(lo, hi):
    return [
        0.0, -0.0, lo, hi,
        math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf),
        math.nextafter(lo, math.inf), math.nextafter(hi, -math.inf),
        math.inf, -math.inf, math.nan,
    ]


def np_clip_hex(value, lo, hi):
    return float(np.clip(value, lo, hi)).hex()


class _FixedNormal:
    """Stands in for the jitter source: ``normal`` returns one value."""

    def __init__(self, value):
        self.value = value

    def normal(self, loc, scale):
        return self.value


class TestNumpyFreeClamps:
    """Each clamp written as comparisons equals ``float(np.clip(...))``."""

    @pytest.mark.parametrize("target", clamp_edges(0.0, 1.0))
    def test_profile_from_traits_clamp(self, target):
        # All traits 0: every field's base is a constant, and the jitter
        # is chosen to land the pre-clamp value at (or next to) target.
        bases = {
            "ilp": 0.15, "branchiness": 0.2, "store_pressure": 0.1,
            "mem_bound": 0.08, "frontend_stall": 0.1, "quiesce": 0.05,
        }
        jitter = target - bases["ilp"]
        if math.isnan(target):
            with pytest.raises(SimulationError):  # NaN fails validation
                profile_from_traits(0.0, 0.0, 0.0, _FixedNormal(jitter))
            return
        profile = profile_from_traits(0.0, 0.0, 0.0, _FixedNormal(jitter))
        for name, base in bases.items():
            assert getattr(profile, name).hex() == np_clip_hex(base + jitter, 0.0, 1.0)

    @pytest.mark.parametrize("target", clamp_edges(1.0, 2.9))
    def test_speedup_clamp(self, target):
        # Bypass field validation so the pre-clamp value can be anything:
        # ``erosion`` = 1 + 0.85 * mem_bound carries the target.
        fields = dict(
            ilp=0.0, branchiness=0.0, store_pressure=0.0,
            mem_bound=0.0, frontend_stall=0.0, quiesce=0.0,
        )
        if target == 0.0 or math.isinf(target):
            # +-0.0 from an infinite erosion, +-inf from an infinite ILP.
            if target == 0.0:
                fields["mem_bound"] = math.copysign(math.inf, target)
            else:
                fields["ilp"] = target
        elif math.isnan(target):
            fields["ilp"] = math.nan
        else:
            fields["mem_bound"] = ((2.0 / 1.2) / target - 1.0) / 0.85
        profile = object.__new__(MicroArchProfile)
        for name, value in fields.items():
            object.__setattr__(profile, name, value)
        raw = (
            (2.0 / 1.2)
            * (1.0 + 0.55 * profile.ilp + 0.15 * profile.store_pressure)
            / (1.0 + 0.85 * profile.mem_bound + 0.25 * profile.frontend_stall)
        )
        assert profile.speedup().hex() == np_clip_hex(raw, 1.0, 2.9)


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
