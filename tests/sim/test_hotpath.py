"""Unit coverage for the simulator's single-run speed machinery.

Stale-event suppression, the one armed timer per core and its reserved
slice-expiry sequence number, the engine's pop-time reclaim hook, the
per-core event pool and the memoized speedup predictions may only change
wall-clock cost, never an outcome.  These tests pin each mechanism
against literal values or an uncached computation; whole runs are pinned
by the stored digests (``hostbench/expected/``, ``tests/sim/test_digest.py``)
and the block-drawn counter noise by ``tests/sim/test_counters.py``.
"""

from __future__ import annotations

import cProfile
import heapq
import pstats

import pytest

from repro.errors import SimulationError
from repro.experiments.runner import ExperimentContext, run_mix_once
from repro.kernel.task import Task
from repro.model.speedup import OracleSpeedupModel, PredictionCache
from repro.schedulers import make_scheduler
from repro.sim.dvfs import DVFSPolicy, FrequencyGovernor
from repro.sim.engine import Engine
from repro.sim.events import Event, EventKind
from repro.sim.machine import Machine, MachineConfig
from repro.sim.topology import make_topology
from repro.workloads.actions import Compute, Sleep
from repro.workloads.mixes import MIXES
from tests.conftest import (
    FAST_PROFILE,
    NEUTRAL_PROFILE,
    SLOW_PROFILE,
    make_machine,
    make_simple_task,
)


# ----------------------------------------------------------------------
# Engine: heap layout and the pop-time reclaim hook
# ----------------------------------------------------------------------
class TestReferenceHeap:
    def test_hot_heap_stores_ordering_tuples(self):
        engine = Engine()
        event = engine.push(Event(time=1.5, kind=EventKind.TICK))
        assert engine._heap[0] == (1.5, EventKind.TICK, event.seq, event)


class TestFastDiscard:
    """Stale timers are dropped at the pop, through ``Engine.reclaim``."""

    def make_engine(self) -> Engine:
        engine = Engine()
        engine.register(EventKind.SLICE_EXPIRY, lambda ev: None)
        return engine

    def test_discarded_event_skips_clock_and_processed(self):
        engine = self.make_engine()
        engine.reclaim = lambda ev: True
        engine.push(Event(time=5.0, kind=EventKind.SLICE_EXPIRY, version=0))
        returned = engine.step()
        assert returned is not None
        assert engine.discarded == 1
        assert engine.processed == 0
        assert engine.now == 0.0  # clock did not advance

    def test_discarded_event_skips_sanitizer(self):
        from repro.sanitize.schedsan import SchedSanitizer

        engine = self.make_engine()
        engine.probe = SchedSanitizer()
        engine.reclaim = lambda ev: True
        engine.push(Event(time=1.0, kind=EventKind.SLICE_EXPIRY, version=0))
        engine.step()
        assert engine.probe.checks_run == 0

    def test_non_matching_event_processed_normally(self):
        engine = self.make_engine()
        engine.reclaim = lambda ev: False
        engine.push(Event(time=1.0, kind=EventKind.SLICE_EXPIRY, version=0))
        engine.step()
        assert engine.discarded == 0
        assert engine.processed == 1
        assert engine.now == 1.0

    def test_unguarded_event_never_reaches_reclaim(self):
        engine = self.make_engine()
        reclaimed = []
        engine.reclaim = lambda ev: reclaimed.append(ev) or True
        engine.push(Event(time=1.0, kind=EventKind.SLICE_EXPIRY))  # version -1
        engine.step()
        assert reclaimed == []
        assert engine.processed == 1

    def test_past_event_guard_fires_before_discard(self):
        engine = self.make_engine()
        engine.reclaim = lambda ev: True
        engine.push(Event(time=1.0, kind=EventKind.SLICE_EXPIRY, version=0))
        engine.step()  # returns the discarded event, but now stays 0.0
        engine.now = 5.0  # simulate later clock
        engine.push(Event(time=6.0, kind=EventKind.SLICE_EXPIRY, version=0))
        engine._heap.clear()
        stale = Event(time=2.0, kind=EventKind.SLICE_EXPIRY, seq=99, version=0)
        heapq.heappush(engine._heap, (stale.time, stale.kind, stale.seq, stale))
        with pytest.raises(SimulationError):
            engine.step()


def sleeper(rounds: int = 12):
    """A thread that wakes every 0.7 ms for a short burst of work."""
    for _ in range(rounds):
        yield Sleep(0.7)
        yield Compute(0.05)


# ----------------------------------------------------------------------
# Machine: suppression accounting and the per-core event pool
# ----------------------------------------------------------------------
class TestSuppressionAndPool:
    def run_machine(self) -> Machine:
        machine = make_machine(n_big=1, n_little=1)
        for i in range(4):
            machine.add_task(make_simple_task(f"t{i}", work=8.0, chunks=4))
        machine.run()
        return machine

    def test_hot_run_suppresses_and_discards(self):
        # With one armed timer per core only a preemption leaves a stale
        # timer behind, so a sleeper's wakeups supply the discards.
        machine = make_machine(n_big=1, n_little=1)
        for i in range(4):
            machine.add_task(make_simple_task(f"t{i}", work=8.0, chunks=4))
        machine.add_task(
            Task(name="sleeper", app_id=1, actions=sleeper(), profile=NEUTRAL_PROFILE)
        )
        machine.run()
        assert machine.events_suppressed > 0
        assert machine.engine.discarded > 0
        assert machine.engine.discarded <= sum(c.preemptions for c in machine.cores)

    def test_pool_only_holds_versioned_timers_for_own_core(self):
        machine = self.run_machine()
        for core in machine.cores:
            assert len(core.event_pool) <= 8
            for event in core.event_pool:
                assert event.version >= 0
                assert event.core_id == core.core_id

    def test_metrics_expose_engine_counters(self):
        from repro.obs.context import ObsConfig

        machine = make_machine(n_big=1, n_little=1, obs=ObsConfig(metrics=True))
        for i in range(4):
            machine.add_task(make_simple_task(f"t{i}", work=8.0, chunks=4))
        result = machine.run()
        counters = result.metrics["counters"]
        assert counters["engine.events.suppressed"] == machine.events_suppressed
        assert counters["engine.events.discarded"] == machine.engine.discarded
        assert counters["engine.events.processed"] == machine.engine.processed


# ----------------------------------------------------------------------
# One armed timer per core: the reserved slice-expiry sequence number
# ----------------------------------------------------------------------
class TogglingGovernor(FrequencyGovernor):
    """Alternates full and half frequency, so every period re-times."""

    def __init__(self) -> None:
        self.scale = 1.0

    def choose_scale(self, utilization: float) -> float:
        self.scale = 0.5 if self.scale == 1.0 else 1.0
        return self.scale


class TestArmedTimer:
    def test_reserved_number_keeps_its_place_in_the_tie_order(self):
        engine, order = Engine(), []
        engine.register(EventKind.SLICE_EXPIRY, lambda ev: order.append(ev.payload))
        seq = engine.reserve()
        engine.push(Event(time=1.0, kind=EventKind.SLICE_EXPIRY, payload="fresh"))
        engine.push(
            Event(time=1.0, kind=EventKind.SLICE_EXPIRY, payload="reserved"), seq
        )
        engine.run()
        assert order == ["reserved", "fresh"]

    def test_push_under_reserved_number_checks_number_and_time(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="never reserved"):
            engine.push(Event(time=1.0, kind=EventKind.TICK), 0)
        seq = engine.reserve()
        engine.now = 2.0
        with pytest.raises(SimulationError, match="before current time"):
            engine.push(Event(time=1.0, kind=EventKind.TICK), seq)

    def tied_run(self) -> list[tuple[float, int]]:
        """(time, core) of every slice expiry when two cores' deadlines tie.

        Both big cores dispatch at t=0 with equal penalties and slices, so
        their deadlines are equal.  Core 0 is armed first and its tasks
        compute in short chunks: its expiry is pushed late, at the boundary
        whose chunk would cross the deadline, under the number it reserved
        at t=0.  Core 1's single long segment is suppressed at once, so
        its expiry is pushed at t=0 under a later number.
        """
        machine = make_machine(n_big=2, n_little=0)
        for name, core_id, chunks in (("a", 0, 40), ("b", 1, 1)):
            for i in range(2):
                task = make_simple_task(f"{name}{i}", work=20.0, chunks=chunks)
                task.affinity = frozenset({core_id})
                machine.add_task(task)
        handler = machine.engine._handlers[EventKind.SLICE_EXPIRY]
        fired = []

        def record(event):
            fired.append((machine.engine.now, event.core_id))
            handler(event)

        machine.engine.register(EventKind.SLICE_EXPIRY, record)
        machine.run()
        return fired

    def test_tied_slice_expiries_fire_in_arming_order(self):
        fired = self.tied_run()
        times = [t for t, _ in fired]
        assert len(fired) >= 8
        # Every expiry ties with the other core's, and core 0 -- armed
        # first at each tie -- fires first.
        assert times[0::2] == times[1::2]
        assert [core for _, core in fired] == [0, 1] * (len(fired) // 2)

    def test_discards_bounded_by_preemptions_and_retimes(self):
        machine = Machine(
            make_topology(1, 1),
            make_scheduler("linux"),
            MachineConfig(
                seed=0,
                dvfs=DVFSPolicy(
                    big_governor=TogglingGovernor(),
                    little_governor=TogglingGovernor(),
                    period_ms=1.0,
                ),
            ),
        )
        retimes = 0
        set_frequency = machine.set_core_frequency

        def counting(core, scale, now):
            nonlocal retimes
            if core.current is not None and abs(scale - core.freq_scale) >= 1e-12:
                retimes += 1
            set_frequency(core, scale, now)

        machine.set_core_frequency = counting
        for i in range(3):
            machine.add_task(make_simple_task(f"t{i}", work=8.0, chunks=4))
        machine.add_task(
            Task(name="sleeper", app_id=1, actions=sleeper(), profile=NEUTRAL_PROFILE)
        )
        result = machine.run()
        preemptions = sum(c.preemptions for c in machine.cores)
        assert retimes > 0
        assert 0 < result.events_discarded <= preemptions + retimes


# ----------------------------------------------------------------------
# Python calls per processed event (deterministic host-cost gate)
# ----------------------------------------------------------------------
#: cProfile calls per processed event of :func:`calls_per_event`'s runs
#: before the armed timer, the pop-time reclaim, the action table and the
#: block-drawn normals (41.4 on CPython 3.11).
CALLS_PER_EVENT_BEFORE = 41.4


def calls_per_event() -> float:
    """cProfile's call count per processed event over eight small runs.

    Linux and GTS on 2B2S read no PMU counters, like hostbench's
    ``sparse`` workload, so the count is dominated by segment boundaries.
    """
    ctx = ExperimentContext(
        seed=0, work_scale=0.35,
        estimator=OracleSpeedupModel(noise_std=0.0, seed=0),
    )
    calls = events = 0
    for mix in ("Sync-1", "Comm-1", "Comp-1", "Rand-2"):
        for scheduler in ("linux", "gts"):
            profiler = cProfile.Profile()
            profiler.enable()
            try:
                result = run_mix_once(ctx, MIXES[mix], "2B2S", scheduler, True)
            finally:
                profiler.disable()
            calls += pstats.Stats(profiler).total_calls
            events += result.events_processed
    return calls / events


def test_calls_per_event_at_most_90_percent_of_before():
    ratio = calls_per_event()
    assert ratio <= 0.9 * CALLS_PER_EVENT_BEFORE, ratio


# ----------------------------------------------------------------------
# PredictionCache
# ----------------------------------------------------------------------
class TestPredictionCache:
    def test_get_put_and_stats(self):
        cache = PredictionCache()
        assert cache.get(1, True) is None
        assert cache.misses == 1
        assert cache.put(1, True, 1.5) == 1.5
        assert cache.get(1, True) == 1.5
        assert cache.hits == 1
        # Big/little entries are distinct.
        assert cache.get(1, False) is None

    def test_bump_invalidates_and_counts_generations(self):
        cache = PredictionCache()
        cache.put(1, True, 1.5)
        generation = cache.generation
        cache.bump()
        assert cache.generation == generation + 1
        assert cache.get(1, True) is None

    def test_colab_cached_values_match_uncached_policy(self):
        """Every memoized COLAB value equals ScaleSlicePolicy's, uncached.

        The noisy oracle estimator gives each task a new prediction on
        every labeling pass, so a cache entry that outlived its pass would
        disagree with the policy recomputed on the spot.
        """
        scheduler = make_scheduler(
            "colab", estimator=OracleSpeedupModel(noise_std=0.3, seed=0)
        )
        policy = scheduler.policy
        checked: list[tuple[str, float, float]] = []
        cached_scale = scheduler._charge_scale
        cached_slice = scheduler.slice_for

        def charge_scale(task, core):
            value = cached_scale(task, core)
            checked.append(("scale", value, policy.charge_scale(task, core)))
            return value

        def slice_for(task, core):
            value = cached_slice(task, core)
            checked.append(("slice", value, policy.slice_for(task, core)))
            return value

        scheduler._charge_scale = charge_scale
        scheduler.slice_for = slice_for
        machine = Machine(make_topology(1, 1), scheduler, MachineConfig(seed=0))
        for i, profile in enumerate((FAST_PROFILE, SLOW_PROFILE, NEUTRAL_PROFILE)):
            machine.add_task(
                make_simple_task(f"t{i}", work=40.0, chunks=4, profile=profile)
            )
        machine.run()

        assert [c for c in checked if c[1] != c[2]] == []
        cache = scheduler._pred_cache
        assert cache.hits > 0 and cache.generation > 1
        assert {kind for kind, _, _ in checked} == {"scale", "slice"}
        assert len({value for kind, value, _ in checked if kind == "scale"}) > 2


# ----------------------------------------------------------------------
# Speedup memo
# ----------------------------------------------------------------------
class TestSpeedupMemo:
    def test_true_speedup_memoizes_profile_speedup(self):
        task = make_simple_task("t", work=1.0, profile=FAST_PROFILE)
        assert task._profile_speedup is None
        assert task.true_speedup() == FAST_PROFILE.speedup()
        assert task._profile_speedup == FAST_PROFILE.speedup()
