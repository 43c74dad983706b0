"""The one observer seam: every observer of a run is a :class:`Probe`.

A machine builds its probe once, from ``MachineConfig.obs``,
``sanitize`` and ``timeseries`` (attribution rides on the tracer).  A run
without observers gets a plain :class:`Probe`, the null probe; a lone
observer is attached as is; two or more are wrapped in a :class:`FanOut`.
The probe has three hooks:

* :attr:`Probe.event` -- ``event(event, now)`` before each handler runs,
  with ``now`` still the previous clock.  It is ``None`` on observers
  that do not need it, and the engine then does no per-event probe work.
* :meth:`Probe.transition` -- ``transition(kind, task, where, now,
  detail)`` at each state change made by the machine, a runqueue or the
  futex table.  Those hook sites do not call it directly: they index the
  probe's :meth:`Probe.hooks` table by kind and call the entry when it is
  not ``None``, so a kind no observer watches costs one ``is None``
  check.  The call sites pass live objects, never pre-built payloads,
  except a scheduler's DECISION: its factor dict is built only after the
  site finds the hook set.  The table below says what ``where`` and
  ``detail`` are.
* :meth:`Probe.finish` -- at the end of the run, where observers read
  the machine's state and :meth:`repro.schedulers.base.Scheduler.observe`
  (the same reading the timeline takes at each sample tick) and put
  their part of the :class:`~repro.sim.machine.RunResult` into
  ``fields``.

==============  ==================  ==========================================
kind            ``where``           ``detail``
==============  ==================  ==========================================
SPAWN           ``None``            ``None``
ENQUEUE         the runqueue        ``None``
DISPATCH        the core            the task's previous core id (or ``None``)
EXEC            the core            penalty ms consumed in the window
BLOCK           the core            the blocking action
DONE            the core            ``None``
FUTEX_WAIT      the FutexWaiter     the primitive kind (``lock`` / ...)
DEQUEUE         the runqueue        ``None``
MIN_VRUNTIME    the runqueue        ``None`` (``task`` is ``None`` too)
PICK            the core            ``None``
DESCHEDULE      the core            reason (``slice_expiry`` / ...)
FUTEX_WAKE      the FutexWaiter     the waking task (or ``None``)
DVFS            the core            the new frequency scale
LABEL           the scheduler       ``None``
DRAIN           the machine         ``None``
DECISION        a core id or None   the decision's factors (``op``, ...)
==============  ==================  ==========================================

Runqueues have no clock, so their transitions (ENQUEUE, DEQUEUE,
MIN_VRUNTIME) carry ``now=None``; observers that time them read the
engine clock of the machine they were built for.  DISPATCH and EXEC are
reported before ``core.run_started`` moves, so an EXEC window is exactly
``now - core.run_started``.

Every probe is read-only with respect to the simulation: it pushes no
events and mutates no scheduling state, so
:func:`repro.sim.digest.run_digest` is identical whichever observers ran.
"""

from __future__ import annotations

#: Transition kinds (plain ints: they index the :meth:`Probe.hooks`
#: table and observers compare them on hot paths).
SPAWN = 0
ENQUEUE = 1
DISPATCH = 2
EXEC = 3
BLOCK = 4
DONE = 5
FUTEX_WAIT = 6
DEQUEUE = 7
MIN_VRUNTIME = 8
PICK = 9
DESCHEDULE = 10
FUTEX_WAKE = 11
DVFS = 12
LABEL = 13
DRAIN = 14
DECISION = 15
N_KINDS = 16
ALL_KINDS = frozenset(range(N_KINDS))
#: The hook table of a run without transition observers.
NO_HOOKS = (None,) * N_KINDS


class Probe:
    """An observer of one run; every hook defaults to doing nothing."""

    __slots__ = ()

    #: ``event(event, now)`` hook, or ``None``.
    event = None
    #: The transition kinds this observer acts on; its ``transition`` is
    #: called for no others.
    kinds: frozenset = ALL_KINDS

    def transition(self, kind: int, task, where, now, detail) -> None:
        """One state change (see the module table for the arguments)."""

    def hooks(self) -> tuple:
        """kind -> what a hook site calls for it, or ``None`` to skip it."""
        if type(self).transition is Probe.transition:
            return NO_HOOKS
        return tuple(
            self.transition if kind in self.kinds else None
            for kind in range(N_KINDS)
        )

    def finish(self, machine, makespan: float, fields: dict) -> None:
        """End of run: add this observer's ``RunResult`` fields."""


class FanOut(Probe):
    """Forwards every hook to two or more probes, in order.

    A transition reaches only the members whose :attr:`Probe.kinds`
    include it, and an event only the members with an ``event`` hook, so
    an observer costs nothing at the hook sites it does not watch.  A kind
    one member watches is routed to that member's hook directly.
    """

    __slots__ = ("probes", "_by_kind", "_events", "event")

    def __init__(self, probes) -> None:
        self.probes = tuple(probes)
        tables = [p.hooks() for p in self.probes]
        #: kind -> the transition hooks of the members that watch it.
        self._by_kind = tuple(
            tuple(t[kind] for t in tables if t[kind] is not None)
            for kind in range(N_KINDS)
        )
        self._events = tuple(p.event for p in self.probes if p.event is not None)
        self.event = self._fan_event if self._events else None

    def _fan_event(self, event, now: float) -> None:
        for hook in self._events:
            hook(event, now)

    def transition(self, kind: int, task, where, now, detail) -> None:
        for hook in self._by_kind[kind]:
            hook(kind, task, where, now, detail)

    def hooks(self) -> tuple:
        return tuple(
            None if not hooks else hooks[0] if len(hooks) == 1 else self.transition
            for hooks in self._by_kind
        )

    def finish(self, machine, makespan: float, fields: dict) -> None:
        for probe in self.probes:
            probe.finish(machine, makespan, fields)


def combine(probes) -> Probe:
    """The null probe when there is no observer, the observer itself when
    there is one, else a fan-out over them."""
    probes = list(probes)
    if not probes:
        return Probe()
    if len(probes) == 1:
        return probes[0]
    return FanOut(probes)
