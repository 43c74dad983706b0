"""Unit coverage for the simulator's single-run speed machinery.

Stale-event suppression, the engine's fast-discard hook, the per-core
event pool and the memoized speedup predictions may only change
wall-clock cost, never an outcome.  These tests pin each mechanism
against literal values or an uncached computation; whole runs are pinned
by the stored digests (``hostbench/expected/``, ``tests/sim/test_digest.py``)
and the block-drawn counter noise by ``tests/sim/test_counters.py``.
"""

from __future__ import annotations

import heapq

import pytest

from repro.errors import SimulationError
from repro.model.speedup import OracleSpeedupModel, PredictionCache
from repro.schedulers import make_scheduler
from repro.sim.engine import Engine
from repro.sim.events import Event, EventKind
from repro.sim.machine import Machine, MachineConfig
from repro.sim.topology import make_topology
from tests.conftest import (
    FAST_PROFILE,
    NEUTRAL_PROFILE,
    SLOW_PROFILE,
    make_machine,
    make_simple_task,
)


# ----------------------------------------------------------------------
# Engine: heap layout and the fast-discard hook
# ----------------------------------------------------------------------
class TestReferenceHeap:
    def test_hot_heap_stores_ordering_tuples(self):
        engine = Engine()
        event = engine.push(Event(time=1.5, kind=EventKind.TICK))
        assert engine._heap[0] == (1.5, EventKind.TICK, event.seq, event)


class TestFastDiscard:
    def make_engine(self) -> Engine:
        engine = Engine()
        engine.register(EventKind.SLICE_EXPIRY, lambda ev: None)
        return engine

    def test_discarded_event_skips_clock_and_processed(self):
        engine = self.make_engine()
        engine.discard = lambda ev: True
        engine.push(Event(time=5.0, kind=EventKind.SLICE_EXPIRY))
        returned = engine.step()
        assert returned is not None
        assert engine.discarded == 1
        assert engine.processed == 0
        assert engine.now == 0.0  # clock did not advance

    def test_discarded_event_skips_sanitizer(self):
        from repro.sanitize.schedsan import SchedSanitizer

        engine = self.make_engine()
        engine.probe = SchedSanitizer()
        engine.discard = lambda ev: True
        engine.push(Event(time=1.0, kind=EventKind.SLICE_EXPIRY))
        engine.step()
        assert engine.probe.checks_run == 0

    def test_non_matching_event_processed_normally(self):
        engine = self.make_engine()
        engine.discard = lambda ev: False
        engine.push(Event(time=1.0, kind=EventKind.SLICE_EXPIRY))
        engine.step()
        assert engine.discarded == 0
        assert engine.processed == 1
        assert engine.now == 1.0

    def test_past_event_guard_fires_before_discard(self):
        engine = self.make_engine()
        engine.discard = lambda ev: True
        engine.push(Event(time=1.0, kind=EventKind.SLICE_EXPIRY))
        engine.step()  # returns the discarded event, but now stays 0.0
        engine.now = 5.0  # simulate later clock
        engine.push(Event(time=6.0, kind=EventKind.SLICE_EXPIRY))
        engine._heap.clear()
        stale = Event(time=2.0, kind=EventKind.SLICE_EXPIRY, seq=99)
        heapq.heappush(engine._heap, (stale.time, stale.kind, stale.seq, stale))
        with pytest.raises(SimulationError):
            engine.step()


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
        machine = self.run_machine()
        assert machine.events_suppressed > 0
        assert machine.engine.discarded > 0

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
