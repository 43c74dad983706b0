"""Event-loop tests: ordering, determinism, causality, limits."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.events import Event, EventKind


def collecting_engine():
    engine = Engine()
    seen = []
    for kind in EventKind:
        engine.register(kind, lambda ev: seen.append((ev.time, ev.kind)))
    return engine, seen


class TestOrdering:
    def test_time_order(self):
        engine, seen = collecting_engine()
        engine.push(Event(time=3.0, kind=EventKind.CALLBACK))
        engine.push(Event(time=1.0, kind=EventKind.CALLBACK))
        engine.push(Event(time=2.0, kind=EventKind.CALLBACK))
        engine.run()
        assert [t for t, _ in seen] == [1.0, 2.0, 3.0]

    def test_same_time_kind_priority(self):
        engine, seen = collecting_engine()
        engine.push(Event(time=1.0, kind=EventKind.LABEL))
        engine.push(Event(time=1.0, kind=EventKind.SEGMENT_DONE))
        engine.push(Event(time=1.0, kind=EventKind.SLICE_EXPIRY))
        engine.push(Event(time=1.0, kind=EventKind.WAKEUP))
        engine.run()
        assert [k for _, k in seen] == [
            EventKind.SEGMENT_DONE,
            EventKind.WAKEUP,
            EventKind.SLICE_EXPIRY,
            EventKind.LABEL,
        ]

    def test_same_time_same_kind_fifo(self):
        engine = Engine()
        order = []
        engine.register(EventKind.CALLBACK, lambda ev: order.append(ev.payload))
        for i in range(10):
            engine.push(Event(time=1.0, kind=EventKind.CALLBACK, payload=i))
        engine.run()
        assert order == list(range(10))

    def test_now_advances(self):
        engine = Engine()
        times = []
        engine.register(EventKind.CALLBACK, lambda ev: times.append(engine.now))
        engine.push(Event(time=2.5, kind=EventKind.CALLBACK))
        engine.run()
        assert times == [2.5]
        assert engine.now == 2.5


class TestCausality:
    def test_push_into_past_rejected(self):
        engine, _seen = collecting_engine()
        engine.push(Event(time=5.0, kind=EventKind.CALLBACK))
        engine.run()
        with pytest.raises(SimulationError):
            engine.push(Event(time=1.0, kind=EventKind.CALLBACK))

    def test_push_at_current_time_allowed(self):
        engine = Engine()
        pushed = []

        def handler(ev):
            if ev.payload == "first":
                engine.push(
                    Event(time=engine.now, kind=EventKind.CALLBACK, payload="second")
                )
            pushed.append(ev.payload)

        engine.register(EventKind.CALLBACK, handler)
        engine.push(Event(time=1.0, kind=EventKind.CALLBACK, payload="first"))
        engine.run()
        assert pushed == ["first", "second"]


class TestControls:
    def test_run_until_leaves_future_events(self):
        engine, seen = collecting_engine()
        engine.push(Event(time=1.0, kind=EventKind.CALLBACK))
        engine.push(Event(time=10.0, kind=EventKind.CALLBACK))
        engine.run(until=5.0)
        assert len(seen) == 1
        assert engine.pending() == 1

    def test_stop_exits_loop(self):
        engine = Engine()
        seen = []

        def handler(ev):
            seen.append(ev.time)
            engine.stop()

        engine.register(EventKind.CALLBACK, handler)
        engine.push(Event(time=1.0, kind=EventKind.CALLBACK))
        engine.push(Event(time=2.0, kind=EventKind.CALLBACK))
        engine.run()
        assert seen == [1.0]
        assert engine.pending() == 1

    def test_run_until_processes_events_at_the_bound(self):
        engine, seen = collecting_engine()
        engine.run()  # an empty queue is a no-op
        assert engine.now == 0.0 and engine.processed == 0
        engine.push(Event(time=1.0, kind=EventKind.CALLBACK))
        engine.push(Event(time=2.0, kind=EventKind.CALLBACK))
        engine.run(until=1.0)
        assert seen == [(1.0, EventKind.CALLBACK)]
        assert engine.now == 1.0
        assert engine.pending() == 1

    def test_unregistered_kind_raises(self):
        engine = Engine()
        engine.push(Event(time=1.0, kind=EventKind.CALLBACK))
        with pytest.raises(SimulationError, match="no handler"):
            engine.run()

    def test_max_events_guard(self):
        engine = Engine(max_events=10)

        def reschedule(ev):
            engine.push(Event(time=engine.now + 1, kind=EventKind.CALLBACK))

        engine.register(EventKind.CALLBACK, reschedule)
        engine.push(Event(time=0.0, kind=EventKind.CALLBACK))
        with pytest.raises(SimulationError, match="max_events"):
            engine.run()

    def test_processed_counter(self):
        engine, _ = collecting_engine()
        for i in range(5):
            engine.push(Event(time=float(i), kind=EventKind.CALLBACK))
        engine.run()
        assert engine.processed == 5


class TestSanitizerOrdering:
    """The engine's past-event guard must fire before the sanitizer sees
    the event (regression: schedsan used to observe -- and advance its
    monotonicity clock on -- events the engine then refused)."""

    def _engine_with_sanitizer(self):
        from repro.sanitize.schedsan import SchedSanitizer

        engine, _seen = collecting_engine()
        engine.probe = SchedSanitizer()
        return engine

    def test_corrupted_heap_raises_simulation_error(self):
        import heapq

        engine = self._engine_with_sanitizer()
        engine.push(Event(time=5.0, kind=EventKind.CALLBACK))
        engine.run()
        assert engine.now == 5.0
        # Bypass push() to plant a past event, as a heap corruption would.
        stale = Event(time=1.0, kind=EventKind.CALLBACK, seq=99)
        heapq.heappush(engine._heap, (stale.time, stale.kind, stale.seq, stale))
        with pytest.raises(SimulationError, match="past event"):
            engine.run()

    def test_sanitizer_state_untouched_by_rejected_event(self):
        import heapq

        engine = self._engine_with_sanitizer()
        engine.push(Event(time=5.0, kind=EventKind.CALLBACK))
        engine.run()
        checks_before = engine.probe.checks_run
        last_before = engine.probe._last_event_time
        heapq.heappush(
            engine._heap,
            (1.0, EventKind.CALLBACK, 99, Event(time=1.0, kind=EventKind.CALLBACK, seq=99)),
        )
        with pytest.raises(SimulationError):
            engine.run()
        assert engine.probe.checks_run == checks_before
        assert engine.probe._last_event_time == last_before

    def test_valid_events_still_reach_sanitizer(self):
        engine = self._engine_with_sanitizer()
        engine.push(Event(time=1.0, kind=EventKind.CALLBACK))
        engine.push(Event(time=2.0, kind=EventKind.CALLBACK))
        engine.run()
        assert engine.probe.checks_run == 2
        assert engine.probe._last_event_time == 2.0


class _EventRecorder:
    """A probe with an ``event`` hook that records what reaches it."""

    def __init__(self):
        self.seen = []

    def event(self, event, now):
        self.seen.append((event.time, event.seq, now))


class _Owner:
    """The owner of version-guarded events: a version and an event pool."""

    def __init__(self, sched_version: int = 0):
        self.sched_version = sched_version
        self.event_pool = []


class TestProbe:
    @pytest.mark.parametrize("with_probe", [False, True])
    def test_run_without_event_hook_never_calls_the_probe(self, with_probe):
        class Inert:
            event = None

            def __getattr__(self, name):
                raise AssertionError(f"the engine touched probe.{name}")

        engine, seen = collecting_engine()
        if with_probe:
            engine.probe = Inert()
        for i in range(5):
            engine.push(Event(time=float(i), kind=EventKind.CALLBACK))
        engine.run()
        assert len(seen) == 5

    def test_every_event_reaches_the_hook_once_in_order(self):
        engine, seen = collecting_engine()
        recorder = engine.probe = _EventRecorder()
        for time in (3.0, 1.0, 2.0, 2.0):
            engine.push(Event(time=time, kind=EventKind.CALLBACK))
        engine.run()
        assert [(t, seq) for t, seq, _now in recorder.seen] == [
            (1.0, 1), (2.0, 2), (2.0, 3), (3.0, 0),
        ]
        # The hook runs before the clock advances to the event.
        assert [now for _t, _seq, now in recorder.seen] == [0.0, 1.0, 2.0, 2.0]
        assert len(seen) == 4

    def test_discarded_events_skip_the_hook(self):
        engine, seen = collecting_engine()
        recorder = engine.probe = _EventRecorder()
        owner = _Owner(sched_version=0)
        events = [
            engine.push(
                Event(
                    time=float(i), kind=EventKind.CALLBACK, version=i % 2,
                    payload=owner,
                )
            )
            for i in range(4)
        ]
        engine.run()
        # Version-1 events are stale: the probe, the handler, the clock and
        # the processed counter never see them.
        assert [t for t, _seq, _now in recorder.seen] == [0.0, 2.0]
        assert seen == [(0.0, EventKind.CALLBACK), (2.0, EventKind.CALLBACK)]
        assert engine.now == 2.0
        assert engine.discarded == 2
        assert engine.processed == 2
        # Every popped event, stale or live, went back to its owner's pool.
        assert owner.event_pool == events

    @pytest.mark.parametrize("with_probe", [False, True])
    def test_guards_hold_with_and_without_probe(self, with_probe):
        import heapq

        engine = Engine(max_events=2)
        engine.register(EventKind.CALLBACK, lambda ev: None)
        if with_probe:
            engine.probe = _EventRecorder()
        for i in range(3):
            engine.push(Event(time=float(i), kind=EventKind.CALLBACK))
        with pytest.raises(SimulationError, match="max_events"):
            engine.run()

        engine = Engine()
        if with_probe:
            engine.probe = _EventRecorder()
        engine.push(Event(time=1.0, kind=EventKind.LABEL))
        with pytest.raises(SimulationError, match="no handler"):
            engine.run()

        engine, _seen = collecting_engine()
        if with_probe:
            engine.probe = _EventRecorder()
        engine.push(Event(time=5.0, kind=EventKind.CALLBACK))
        engine.run()
        stale = Event(time=1.0, kind=EventKind.CALLBACK, seq=99)
        heapq.heappush(engine._heap, (stale.time, stale.kind, stale.seq, stale))
        with pytest.raises(SimulationError, match="past event"):
            engine.run()


class TestHandlerDispatch:
    def test_register_replaces_handler(self):
        engine = Engine()
        first, second = [], []
        engine.register(EventKind.CALLBACK, lambda ev: first.append(ev))
        engine.register(EventKind.CALLBACK, lambda ev: second.append(ev))
        engine.push(Event(time=1.0, kind=EventKind.CALLBACK))
        engine.run()
        assert not first and len(second) == 1

    def test_every_kind_dispatchable(self):
        engine, seen = collecting_engine()
        for offset, kind in enumerate(EventKind):
            engine.push(Event(time=float(offset), kind=kind))
        engine.run()
        assert [k for _, k in seen] == list(EventKind)


class TestEventSlots:
    def test_event_rejects_adhoc_attributes(self):
        event = Event(time=1.0, kind=EventKind.CALLBACK)
        with pytest.raises(AttributeError):
            event.extra = 1  # type: ignore[attr-defined]


class TestDeterminism:
    @given(
        st.lists(
            st.tuples(st.floats(0, 100), st.sampled_from(list(EventKind))),
            max_size=60,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_identical_pushes_identical_order(self, specs):
        orders = []
        for _ in range(2):
            engine = Engine()
            seen = []
            for kind in EventKind:
                engine.register(kind, lambda ev: seen.append((ev.time, ev.kind, ev.seq)))
            for time, kind in specs:
                engine.push(Event(time=time, kind=kind))
            engine.run()
            orders.append(seen)
        assert orders[0] == orders[1]

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_processing_order_is_time_sorted(self, times):
        engine = Engine()
        seen = []
        engine.register(EventKind.CALLBACK, lambda ev: seen.append(ev.time))
        for time in times:
            engine.push(Event(time=time, kind=EventKind.CALLBACK))
        engine.run()
        assert seen == sorted(times)
