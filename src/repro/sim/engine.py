"""The discrete-event simulation engine.

:class:`Engine` is a minimal, deterministic event loop: a binary heap of
``(time, kind, seq, event)`` tuples, so :class:`~repro.sim.events.Event`
records are processed in ``(time, kind-priority, insertion sequence)``
order.  The :class:`~repro.sim.machine.Machine` owns an engine and
registers one handler per event kind; the engine itself knows nothing
about cores, tasks, or schedulers.

Determinism contract
--------------------
Two runs that push the same events in the same order observe the same
processing order.  This is what allows a (workload, topology, scheduler,
seed, core-order) tuple to fully determine an experiment's outcome, which
the test-suite and the paper's big-first/little-first averaging both rely
on.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

from repro.errors import SimulationError
from repro.sim.events import Event, EventKind

Handler = Callable[[Event], None]


class Engine:
    """A deterministic discrete-event loop.

    The engine guarantees that time never flows backwards: pushing an event
    with a timestamp earlier than the current simulated time raises
    :class:`~repro.errors.SimulationError` (the discrete-event analogue of
    causality violation).

    Example:
        >>> engine = Engine()
        >>> seen = []
        >>> engine.register(EventKind.CALLBACK, lambda ev: seen.append(ev.time))
        >>> engine.push(Event(time=2.0, kind=EventKind.CALLBACK))
        >>> engine.push(Event(time=1.0, kind=EventKind.CALLBACK))
        >>> engine.run()
        >>> seen
        [1.0, 2.0]
    """

    def __init__(self, max_events: int = 50_000_000) -> None:
        #: Entries are (time, kind, seq, event) tuples: the ordering fields
        #: are compared natively in C, and the unique seq guarantees the
        #: Event itself is never compared.
        self._heap: list = []
        # Indexed by EventKind value: list indexing beats dict hashing on
        # the hottest line of the simulator (every event dispatches here).
        self._handlers: list[Handler | None] = [None] * len(EventKind)
        self._seq = 0
        self._processed = 0
        self._max_events = max_events
        #: Current simulated time in milliseconds.
        self.now: float = 0.0
        #: Set to stop the loop after the in-flight event completes.
        self._stopped = False
        #: The run's observer (:class:`repro.obs.probe.Probe`), installed by
        #: the machine.  Only its ``event`` hook concerns the engine:
        #: :meth:`step` calls it before each handler unless it is ``None``.
        self.probe = None
        #: Optional pop-time callback for version-guarded events
        #: (``version >= 0``), installed by the machine: it takes the
        #: popped event back for reuse and returns True if the event is
        #: stale.  A stale event is dropped before the probe, clock, or
        #: handler see it, so it must only answer True for events whose
        #: handler is provably a no-op (version-stale timers), and
        #: outcomes stay bit-identical.
        self.reclaim = None
        #: Events dropped as stale by :attr:`reclaim`.
        self.discarded = 0

    # ------------------------------------------------------------------
    # Registration and queueing
    # ------------------------------------------------------------------
    def register(self, kind: EventKind, handler: Handler) -> None:
        """Install ``handler`` for all events of ``kind``.

        Re-registering a kind replaces the previous handler; the machine
        uses this in tests to interpose instrumentation.
        """
        self._handlers[kind] = handler

    def wrap_handlers(self, wrap: Callable[[EventKind, Handler], Handler]) -> None:
        """Replace every registered handler with ``wrap(kind, handler)``."""
        for kind in EventKind:
            handler = self._handlers[kind]
            if handler is not None:
                self._handlers[kind] = wrap(kind, handler)

    def push(self, event: Event, seq: int | None = None) -> Event:
        """Schedule ``event``, assigning it a deterministic sequence number.

        ``seq``, a number from :meth:`reserve`, queues the event under
        that number instead of the next one.  Returns the event so call
        sites can keep a handle for version bookkeeping.

        Raises:
            SimulationError: if ``event.time`` precedes the current time,
                or ``seq`` was never handed out.
        """
        if event.time < self.now:
            raise SimulationError(
                f"event {event.kind.name} scheduled at t={event.time} "
                f"before current time t={self.now}"
            )
        if seq is None:
            seq = self._seq
            self._seq = seq + 1
        elif not 0 <= seq < self._seq:
            raise SimulationError(f"sequence number {seq} was never reserved")
        event.seq = seq
        heappush(self._heap, (event.time, event.kind, seq, event))
        return event

    def reserve(self) -> int:
        """Take the next sequence number now, for an event pushed later.

        ``push(event, seq)`` queues the event under it, so the event keeps
        the ``(time, kind, seq)`` key it would have had if it had been
        pushed at the moment of the reservation.  A reservation that is
        never used simply leaves a gap in the numbering.
        """
        seq = self._seq
        self._seq = seq + 1
        return seq

    def push_at(self, time: float, kind: EventKind, **fields: object) -> Event:
        """Convenience wrapper building and pushing an :class:`Event`."""
        return self.push(Event(time=time, kind=kind, **fields))  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)

    @property
    def processed(self) -> int:
        """Number of events processed so far."""
        return self._processed

    def stop(self) -> None:
        """Request the loop to exit after the current event."""
        self._stopped = True

    def step(self) -> Event | None:
        """Process exactly one event; return it, or ``None`` if idle.

        A timer the machine reclaimed may already be queued again, re-armed
        by its own handler, by the time it is returned.

        The engine's own past-event guard runs before the probe sees the
        event: a corrupted heap is the engine's bug to report
        (:class:`~repro.errors.SimulationError`), and an observer's state
        must not be advanced by an event the engine refuses to process.

        A version-guarded event (``version >= 0``) goes to the
        machine-installed :attr:`reclaim` callback next, its one machine
        call at the pop.  Stale events are dropped without advancing the
        clock, the processed counter, or reaching the probe -- their
        handler would have been a no-op, so every observable outcome is
        unchanged.
        """
        heap = self._heap
        if not heap:
            return None
        event_time, _kind, _seq, event = heappop(heap)
        if event_time < self.now:
            raise SimulationError(
                f"heap produced past event at t={event_time} < now={self.now}"
            )
        if event.version >= 0:
            reclaim = self.reclaim
            if reclaim is not None and reclaim(event):
                self.discarded += 1
                return event
        probe = self.probe
        on_event = probe.event if probe is not None else None
        if on_event is not None:
            on_event(event, self.now)
        self.now = event_time
        self._processed += 1
        if self._processed > self._max_events:
            raise SimulationError(
                f"exceeded max_events={self._max_events}; "
                "likely a livelocked workload or scheduler"
            )
        handler = self._handlers[event.kind]
        if handler is None:
            raise SimulationError(f"no handler registered for {event.kind.name}")
        handler(event)
        return event

    def run(self, until: float | None = None) -> None:
        """Drain the event queue.

        Args:
            until: If given, stop once simulated time would exceed this
                timestamp (the frontier event is left queued).
        """
        self._stopped = False
        heap = self._heap
        step = self.step
        while heap and not self._stopped:
            if until is not None and heap[0][0] > until:
                break
            step()
