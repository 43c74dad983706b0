"""Unit coverage for the single-run hot-path machinery.

The hot path (``MachineConfig(hotpath=True)``, the default) is only
allowed to change wall-clock cost: stale-event suppression, the engine's
fast-discard hook, the per-core event pool, the batched counter noise and
the memoized speedup predictions must all leave every observable outcome
bit-identical to the reference path (``hotpath=False``).  These tests pin
the mechanism-level contracts; end-to-end parity is fuzzed in
``tests/test_fuzz_machine.py`` and benchmarked in
``benchmarks/bench_run_hotpath.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.kernel.task import reset_tid_counter
from repro.model.speedup import OracleSpeedupModel, PredictionCache
from repro.schedulers import make_scheduler
from repro.sim.counters import PerformanceCounters
from repro.sim.digest import run_digest
from repro.sim.engine import Engine
from repro.sim.events import Event, EventKind
from repro.sim.machine import Machine, MachineConfig
from repro.sim.topology import make_topology
from tests.conftest import NEUTRAL_PROFILE, make_machine, make_simple_task


# ----------------------------------------------------------------------
# Engine: reference heap layout and the fast-discard hook
# ----------------------------------------------------------------------
class TestReferenceHeap:
    def test_reference_heap_stores_events(self):
        engine = Engine(hotpath=False)
        engine.push(Event(time=2.0, kind=EventKind.CALLBACK))
        engine.push(Event(time=1.0, kind=EventKind.CALLBACK))
        assert all(isinstance(entry, Event) for entry in engine._heap)

    def test_hot_heap_stores_ordering_tuples(self):
        engine = Engine(hotpath=True)
        event = engine.push(Event(time=1.5, kind=EventKind.TICK))
        assert engine._heap[0] == (1.5, EventKind.TICK, event.seq, event)

    def test_both_layouts_process_same_order(self):
        def drain(hotpath: bool) -> list[tuple[float, EventKind]]:
            engine = Engine(hotpath=hotpath)
            seen: list[tuple[float, EventKind]] = []
            for kind in (EventKind.TICK, EventKind.CALLBACK):
                engine.register(kind, lambda ev: seen.append((ev.time, ev.kind)))
            engine.push(Event(time=2.0, kind=EventKind.TICK))
            engine.push(Event(time=1.0, kind=EventKind.CALLBACK))
            engine.push(Event(time=1.0, kind=EventKind.TICK))
            engine.run()
            return seen

        assert drain(True) == drain(False)


class TestFastDiscard:
    def make_engine(self, hotpath: bool = True) -> Engine:
        engine = Engine(hotpath=hotpath)
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
        engine._hot = True
        stale = Event(time=2.0, kind=EventKind.SLICE_EXPIRY, seq=99)
        import heapq

        heapq.heappush(engine._heap, (stale.time, stale.kind, stale.seq, stale))
        with pytest.raises(SimulationError):
            engine.step()


# ----------------------------------------------------------------------
# Machine: suppression accounting and the per-core event pool
# ----------------------------------------------------------------------
class TestSuppressionAndPool:
    def run_machine(self, hotpath: bool) -> Machine:
        machine = make_machine(n_big=1, n_little=1, hotpath=hotpath)
        for i in range(4):
            machine.add_task(make_simple_task(f"t{i}", work=8.0, chunks=4))
        machine.run()
        return machine

    def test_hot_run_suppresses_and_discards(self):
        machine = self.run_machine(hotpath=True)
        assert machine.events_suppressed > 0
        assert machine.engine.discarded > 0

    def test_reference_run_does_neither(self):
        machine = self.run_machine(hotpath=False)
        assert machine.events_suppressed == 0
        assert machine.engine.discarded == 0
        assert machine.engine.discard is None
        assert machine.engine.recycle is None
        assert all(not core.event_pool for core in machine.cores)

    def test_pool_only_holds_versioned_timers_for_own_core(self):
        machine = self.run_machine(hotpath=True)
        for core in machine.cores:
            assert len(core.event_pool) <= 8
            for event in core.event_pool:
                assert event.version >= 0
                assert event.core_id == core.core_id

    def test_metrics_expose_hotpath_counters(self):
        from repro.obs.context import ObsConfig

        machine = make_machine(
            n_big=1, n_little=1, hotpath=True, obs=ObsConfig(metrics=True)
        )
        for i in range(4):
            machine.add_task(make_simple_task(f"t{i}", work=8.0, chunks=4))
        result = machine.run()
        counters = result.metrics["counters"]
        assert counters["engine.events.suppressed"] == machine.events_suppressed
        assert counters["engine.events.discarded"] == machine.engine.discarded
        assert counters["engine.events.processed"] == machine.engine.processed


# ----------------------------------------------------------------------
# Batched counter noise
# ----------------------------------------------------------------------
class TestBatchedCounterNoise:
    def test_hot_and_reference_counters_identical(self):
        def accumulate(hotpath: bool) -> dict[str, float]:
            counters = PerformanceCounters(
                profile=NEUTRAL_PROFILE,
                rng=np.random.default_rng(7),
                hotpath=hotpath,
            )
            for _ in range(3):
                counters.record_compute(work=1.5, cpu_time=1.0)
            counters.record_wait(0.5)
            return counters.totals

        assert accumulate(True) == accumulate(False)


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

    def test_colab_cache_disabled_on_reference_path(self):
        def build(hotpath: bool) -> Machine:
            scheduler = make_scheduler(
                "colab", estimator=OracleSpeedupModel(noise_std=0.0, seed=0)
            )
            machine = Machine(
                make_topology(1, 1),
                scheduler,
                MachineConfig(seed=0, hotpath=hotpath),
            )
            machine.add_task(make_simple_task("t0", work=30.0, chunks=3))
            machine.add_task(make_simple_task("t1", work=30.0, chunks=3))
            machine.run()
            return machine

        hot = build(True)
        assert hot.scheduler._pred_cache_on
        assert (
            hot.scheduler._pred_cache.hits + hot.scheduler._pred_cache.misses > 0
        )
        ref = build(False)
        assert not ref.scheduler._pred_cache_on
        assert ref.scheduler._pred_cache.hits == 0
        assert ref.scheduler._pred_cache.misses == 0


# ----------------------------------------------------------------------
# Speedup memo
# ----------------------------------------------------------------------
class TestSpeedupMemo:
    def test_machine_primes_memo_only_on_hot_path(self):
        hot = make_machine(hotpath=True)
        task = make_simple_task("hot", work=1.0)
        hot.add_task(task)
        assert task._profile_speedup == task.profile.speedup()

        ref = make_machine(hotpath=False)
        task = make_simple_task("ref", work=1.0)
        ref.add_task(task)
        assert task._profile_speedup is None
        # Unprimed tasks still answer correctly, recomputing per call.
        assert task.true_speedup() == task.profile.speedup()
        assert task._profile_speedup is None


# ----------------------------------------------------------------------
# End-to-end digest parity (deterministic spot check)
# ----------------------------------------------------------------------
class TestDigestParity:
    @pytest.mark.parametrize("name", ["linux", "gts", "wash", "colab"])
    def test_hotpath_digest_matches_reference(self, name):
        def digest(hotpath: bool) -> str:
            reset_tid_counter()
            if name in ("wash", "colab"):
                scheduler = make_scheduler(
                    name, estimator=OracleSpeedupModel(noise_std=0.0, seed=3)
                )
            else:
                scheduler = make_scheduler(name)
            machine = Machine(
                make_topology(2, 2),
                scheduler,
                MachineConfig(seed=3, hotpath=hotpath),
            )
            for i in range(6):
                machine.add_task(
                    make_simple_task(f"t{i}", work=20.0, chunks=5, app_id=i % 2)
                )
            return run_digest(machine.run())

        assert digest(True) == digest(False)
