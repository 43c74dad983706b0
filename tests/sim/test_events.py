"""Event taxonomy tests."""

from __future__ import annotations

from repro.sim.engine import Engine
from repro.sim.events import Event, EventKind


def processing_order(*events: Event) -> list[int]:
    """Push ``events`` in the given order; return their indices as processed."""
    engine = Engine()
    seen: list[int] = []
    for kind in EventKind:
        engine.register(kind, lambda event: seen.append(event.payload))
    for index, event in enumerate(events):
        event.payload = index
        engine.push(event)
    engine.run()
    return seen


class TestOrdering:
    """The engine processes events by time, then kind, then push order."""

    def test_sort_key_time_first(self):
        late = Event(time=2.0, kind=EventKind.SEGMENT_DONE)
        early = Event(time=1.0, kind=EventKind.LABEL)
        assert processing_order(late, early) == [1, 0]

    def test_kind_priority_breaks_time_ties(self):
        label = Event(time=1.0, kind=EventKind.LABEL)
        expiry = Event(time=1.0, kind=EventKind.SLICE_EXPIRY)
        wakeup = Event(time=1.0, kind=EventKind.WAKEUP)
        segment = Event(time=1.0, kind=EventKind.SEGMENT_DONE)
        assert processing_order(label, expiry, wakeup, segment) == [3, 2, 1, 0]

    def test_sequence_breaks_full_ties(self):
        ties = [Event(time=1.0, kind=EventKind.TICK) for _ in range(3)]
        assert processing_order(*ties) == [0, 1, 2]
        assert [event.seq for event in ties] == [0, 1, 2]

    def test_priority_values_documented_order(self):
        assert EventKind.SEGMENT_DONE < EventKind.WAKEUP
        assert EventKind.WAKEUP < EventKind.SLICE_EXPIRY
        assert EventKind.SLICE_EXPIRY < EventKind.TICK
        assert EventKind.TICK < EventKind.LABEL
        assert EventKind.LABEL < EventKind.CALLBACK

    def test_defaults(self):
        event = Event(time=0.0, kind=EventKind.CALLBACK)
        assert event.core_id == -1
        assert event.version == -1
        assert event.payload is None
