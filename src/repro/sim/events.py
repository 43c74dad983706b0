"""Event taxonomy for the discrete-event simulator.

The machine advances simulated time by processing a totally ordered stream
of :class:`Event` records.  Ordering is ``(time, priority, sequence)``:

* ``time`` is the simulated timestamp in milliseconds;
* ``priority`` breaks ties between different event kinds scheduled for the
  same instant (e.g. a segment completion must be observed before the
  scheduler tick that would otherwise preempt the already-finished task);
* ``sequence`` is a monotonically increasing insertion index that makes the
  order deterministic and stable.

Several event kinds are *version guarded*: they carry the scheduling
version of the core they were issued for, and are silently dropped if the
core has rescheduled since (the Linux-kernel analogue is a timer whose
payload checks that the task it targeted is still current).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any


class EventKind(enum.IntEnum):
    """Kinds of simulator events, ordered by same-instant priority.

    Lower numeric value means the event is processed first when several
    events share a timestamp.
    """

    #: The running task's current compute segment has been fully executed.
    SEGMENT_DONE = 0
    #: A sleeping task has been made runnable (futex wake, spawn, ...).
    WAKEUP = 1
    #: The running task exhausted its scheduler time slice.
    SLICE_EXPIRY = 2
    #: Periodic per-machine scheduler tick (vruntime/update accounting).
    TICK = 3
    #: Periodic multi-factor labeling pass (COLAB / WASH, every 10 ms).
    LABEL = 4
    #: Deferred one-shot callback used by workload actions (e.g. timed sleep).
    CALLBACK = 5


@dataclass(order=False, slots=True)
class Event:
    """A single simulator event.

    Attributes:
        time: Simulated timestamp, in milliseconds.
        kind: The :class:`EventKind` discriminator.
        seq: Deterministic insertion sequence number (set by the engine).
        core_id: Target core for core-directed events, else ``-1``.
        version: Core scheduling version this event was issued against;
            ``-1`` means the event is not version guarded.
        payload: Kind-specific extra data (e.g. the task to wake).
    """

    time: float
    kind: EventKind
    seq: int = 0
    core_id: int = -1
    version: int = -1
    payload: Any = field(default=None, repr=False)
