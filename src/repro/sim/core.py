"""Simulated asymmetric cores.

The paper's hardware is an ARM big.LITTLE mix simulated in gem5: big cores
similar to out-of-order 2 GHz Cortex-A57 (48 KB L1I / 32 KB L1D / 2 MB L2)
and little cores similar to in-order 1.2 GHz Cortex-A53 (32 KB L1I /
32 KB L1D / 512 KB L2).  We reproduce the *scheduling-relevant* property of
that asymmetry: every thread executes work at a core- and thread-dependent
rate.

Work is measured in **big-core milliseconds**: a big core retires exactly
1.0 work unit per millisecond, for every thread.  A little core retires
``1 / s`` work units per millisecond for a thread whose ground-truth
big-vs-little speedup is ``s``.  This normalisation makes single-program
all-big runtimes equal to total work, which is exactly the baseline the
paper's H_ANTT/H_STP metrics divide by.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.runqueue import RunQueue
    from repro.kernel.task import Task


class CoreKind(enum.Enum):
    """Big (performance) or little (efficiency) core."""

    BIG = "big"
    LITTLE = "little"

    @property
    def other(self) -> "CoreKind":
        return CoreKind.LITTLE if self is CoreKind.BIG else CoreKind.BIG


@dataclass
class CoreSpec:
    """Static parameters of one core model (descriptive fidelity only).

    The cache sizes and frequencies document the modelled A57/A53 cores;
    the simulator's timing derives solely from the work-rate model above,
    with the micro-architectural differences folded into per-thread
    ground-truth speedups (see :mod:`repro.sim.counters`).
    """

    kind: CoreKind
    freq_ghz: float
    l1i_kb: int
    l1d_kb: int
    l2_kb: int
    pipeline: str


#: Cortex-A57-like big core of the paper's setup.
BIG_SPEC = CoreSpec(
    kind=CoreKind.BIG, freq_ghz=2.0, l1i_kb=48, l1d_kb=32, l2_kb=2048,
    pipeline="out-of-order",
)
#: Cortex-A53-like little core of the paper's setup.
LITTLE_SPEC = CoreSpec(
    kind=CoreKind.LITTLE, freq_ghz=1.2, l1i_kb=32, l1d_kb=32, l2_kb=512,
    pipeline="in-order",
)


@dataclass(eq=False)
class Core:
    """One simulated core with its runqueue and run state.

    Cores compare by identity: policies test membership in core lists on
    every wakeup, and two cores are never interchangeable.
    """

    core_id: int
    spec: CoreSpec
    #: Per-core runqueue; installed by the machine.
    rq: "RunQueue | None" = None
    #: The task currently executing here, if any.
    current: "Task | None" = None
    #: Simulated time at which ``current`` was dispatched.
    run_started: float = 0.0
    #: Scheduling version; incremented on every dispatch/deschedule so that
    #: stale segment-done / slice-expiry events can be dropped.
    sched_version: int = 0
    #: DVFS frequency scale in (0, 1]; 1.0 = nominal frequency.
    freq_scale: float = 1.0
    #: ``rate_for(current)`` of the armed segment, stored when it is armed
    #: (see :meth:`repro.sim.machine.Machine._schedule_segment_done`).
    rate: float = 0.0
    #: Absolute time at which the slice-expiry timer for the current
    #: dispatch will fire; lets the machine prove a segment-done event
    #: scheduled after it can never be observed (stale-event suppression).
    slice_deadline: float = 0.0
    #: Engine sequence number reserved for the current dispatch's slice
    #: expiry while a segment-done timer is armed in its place, else None
    #: (see :meth:`repro.sim.machine.Machine._schedule_segment_done`).
    expiry_seq: int | None = None
    #: Scratch pool of popped timer events, reused by the next push; the
    #: engine returns each popped timer to its core's pool (see
    #: :meth:`repro.sim.engine.Engine.run`).  It never holds more events
    #: than the core once had queued at the same time.
    event_pool: list = field(default_factory=list)

    # --- statistics -------------------------------------------------------
    busy_time: float = 0.0
    context_switches: int = 0
    migrations_in: int = 0
    preemptions: int = 0
    #: tid of the task last dispatched here (context-switch cost model).
    last_tid: int | None = None
    #: DVFS residency: frequency scale -> busy ms at that scale.
    busy_by_scale: dict[float, float] = field(default_factory=dict)

    # --- identity, fixed at construction from ``spec.kind`` -----------------
    # Plain attributes rather than properties: the accounting and policy
    # hot paths read them at every segment boundary.
    kind: CoreKind = field(init=False)
    is_big: bool = field(init=False)
    #: ``kind.value`` (``"big"`` / ``"little"``).
    kind_name: str = field(init=False)

    def __post_init__(self) -> None:
        self.kind = self.spec.kind
        self.is_big = self.kind is CoreKind.BIG
        self.kind_name = self.kind.value

    @property
    def is_idle(self) -> bool:
        return self.current is None

    def rate_for(self, task: "Task") -> float:
        """Work units per millisecond when ``task`` runs on this core.

        Big cores execute at the reference rate 1.0, little cores at
        ``1 / speedup`` where ``speedup`` is the thread's current-phase
        ground-truth big-vs-little speedup (>= 1.0).  Both are multiplied
        by the core's DVFS frequency scale.
        """
        if self.freq_scale <= 0.0:
            raise SimulationError(
                f"core {self.core_id} has freq_scale {self.freq_scale} <= 0"
            )
        if self.is_big:
            return self.freq_scale
        speedup = task.true_speedup()
        if speedup < 1.0:
            raise SimulationError(
                f"task {task.name} has speedup {speedup} < 1.0"
            )
        return self.freq_scale / speedup

    def bump_version(self) -> int:
        """Invalidate outstanding timer events for this core.

        Drops the slice-expiry reservation too: that expiry would be
        stale, so it is never pushed.
        """
        self.sched_version += 1
        self.expiry_seq = None
        return self.sched_version

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        who = self.current.name if self.current else "idle"
        return f"<Core {self.core_id} {self.kind_name} running={who}>"
