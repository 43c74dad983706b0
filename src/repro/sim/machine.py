"""The simulated machine: cores + kernel machinery + a scheduling policy.

:class:`Machine` is the substitute for "gem5 + Linux v3.16" in the paper's
methodology.  It executes multi-threaded multi-programmed workloads on an
asymmetric multicore under a pluggable :class:`~repro.schedulers.base.Scheduler`
and reports per-application turnaround times, from which the evaluation
metrics (H_ANTT / H_STP / H_NTT) are computed.

Execution model
---------------
Threads are generators yielding :mod:`~repro.workloads.actions`.  Only
:class:`~repro.workloads.actions.Compute` consumes simulated CPU time; it
executes at ``core.rate_for(task)`` work units per millisecond and is
preemptible.  Synchronisation actions are instantaneous kernel operations
that may park the thread on a futex.  The machine is event-driven: segment
completions, time-slice expiries, timed wakeups, and the periodic labeling
pass are heap events; everything else happens synchronously inside those
handlers.

Scheduling-cost model
---------------------
The paper notes a small but real management overhead (counter reads at
context switches, labeling every 10 ms, migrations), and attributes COLAB's
slight losses on thread-overloaded systems to more frequent migrations.
The machine charges ``context_switch_cost`` ms whenever a core switches
between different tasks, plus ``migration_cost`` ms when the incoming task
last ran on a *different core* (cold caches).  Both are consumed before
useful work retires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SchedulerError, SimulationError
from repro.kernel.futex import FutexTable
from repro.kernel.runqueue import RunQueue
from repro.kernel.task import Task, TaskState
from repro.obs.attribution import AttributionAccounting
from repro.obs.context import Observability, ObsConfig
from repro.obs.metrics import MachineMetrics
from repro.obs.probe import (
    BLOCK,
    DESCHEDULE,
    DISPATCH,
    DONE,
    DRAIN,
    DVFS,
    EXEC,
    LABEL,
    PICK,
    SPAWN,
    combine,
)
from repro.obs.tracer import TraceEvent
from repro.sim.core import Core
from repro.sim.counters import PerformanceCounters
from repro.sim.engine import Engine
from repro.sim.events import Event, EventKind
from repro.sim.topology import Topology
from repro.workloads.actions import (
    BarrierWait,
    Compute,
    CondBroadcast,
    CondSignal,
    CondWait,
    LockAcquire,
    LockRelease,
    PipeGet,
    PipePut,
    ReadAcquire,
    ReadRelease,
    SemAcquire,
    SemRelease,
    Sleep,
    Spawn,
    WriteAcquire,
    WriteRelease,
)

#: Residual work below this is considered retired (float guard).
_EPS = 1e-9


@dataclass
class MachineConfig:
    """Tunables of one simulation run."""

    #: Master seed; all stochastic elements derive from it.
    seed: int = 0
    #: CPU cost of switching a core between two different tasks (ms).
    context_switch_cost: float = 0.005
    #: Additional cost when the incoming task last ran on another core (ms).
    migration_cost: float = 0.08
    #: Cap on zero-time actions processed per resume (livelock guard).
    max_actions_per_advance: int = 100_000
    #: Observability switches (:class:`repro.obs.ObsConfig`): structured
    #: tracing, metrics registry, host-side profiling.  ``ObsConfig(trace=
    #: True)`` is the one trace switch; its typed records, DISPATCH events
    #: included, land in :attr:`RunResult.events`.
    obs: ObsConfig | None = None
    #: Enable the runtime scheduler sanitizer (schedsan): read-only
    #: invariant checks on the runqueues' ``(vruntime, tid)`` order and
    #: bookkeeping, futex pairing, event ordering, task states, and work
    #: conservation.  Scheduling outcomes
    #: are bit-identical with this on or off; violations raise
    #: :class:`repro.errors.SanitizerError`.
    sanitize: bool = False
    #: Optional per-cluster frequency scaling policy
    #: (:class:`repro.sim.dvfs.DVFSPolicy`).
    dvfs: object | None = None
    #: Enable the sim-time metrics timeline (:mod:`repro.obs.timeseries`):
    #: a fixed-cadence, read-only sampler of runqueue depth, utilization,
    #: migration/preemption rates, futex waiters, vruntime spread, and
    #: per-policy decision series.  Purely observational -- the sampler
    #: pushes no events, so digests are bit-identical with this on or off.
    timeseries: bool = False


@dataclass(slots=True)
class TaskStats:
    """Per-task outcome summary."""

    tid: int
    name: str
    app_id: int
    finish_time: float | None
    cpu_time_big: float
    cpu_time_little: float
    work_done: float
    own_wait_time: float
    caused_wait_time: float
    migrations: int


@dataclass
class RunResult:
    """Outcome of one :meth:`Machine.run`."""

    topology_name: str
    scheduler_name: str
    makespan: float
    #: app_id -> turnaround time (all apps start at t=0).
    app_turnaround: dict[int, float]
    #: app_id -> application name.
    app_names: dict[int, str]
    tasks: list[TaskStats]
    scheduler_stats: object
    total_context_switches: int
    total_migrations: int
    core_busy_time: dict[int, float]
    #: core_id -> {frequency scale -> busy ms} (DVFS residency).
    core_busy_by_scale: dict[int, dict[float, float]] = field(default_factory=dict)
    #: Typed trace records (:class:`repro.obs.TraceEvent`); empty unless
    #: the run enabled tracing.  The run's one dispatch record: its
    #: DISPATCH events are what :func:`repro.sim.digest.run_digest` hashes.
    events: list[TraceEvent] = field(default_factory=list)
    #: Metrics snapshot (:meth:`repro.obs.MetricsRegistry.snapshot`, plus
    #: a ``"profile"`` section when profiling ran); empty unless enabled.
    metrics: dict = field(default_factory=dict)
    #: Run-level trace context (topology/scheduler/seed/core kinds) for
    #: the exporters; empty unless the run enabled tracing.
    trace_metadata: dict = field(default_factory=dict)
    #: Always-on event-engine accounting (populated whether or not obs
    #: metrics ran, so the experiment runner can count simulation work;
    #: deliberately outside :func:`repro.sim.digest.run_digest`).
    events_processed: int = 0
    events_discarded: int = 0
    events_suppressed: int = 0
    #: Per-task time-state attribution summary
    #: (:func:`repro.obs.attribution.summarize_attribution`), recorded by
    #: every run.  Like the event counters above, this is deliberately
    #: outside :func:`repro.sim.digest.run_digest` and the persistent-cache
    #: fingerprints.
    attribution: dict = field(default_factory=dict)
    #: Sim-time metrics timeline (:meth:`repro.obs.timeseries.
    #: TimeseriesSampler.snapshot`); empty when the run disabled sampling.
    #: Observational by the same contract as :attr:`attribution` --
    #: outside :func:`repro.sim.digest.run_digest` and the cache
    #: fingerprints.
    timeseries: dict = field(default_factory=dict)

    def turnaround_of(self, app_name: str) -> float:
        """Turnaround of the (unique) application called ``app_name``."""
        matches = [
            self.app_turnaround[a]
            for a, name in self.app_names.items()
            if name == app_name
        ]
        if len(matches) != 1:
            raise SimulationError(
                f"expected exactly one app named {app_name!r}, found {len(matches)}"
            )
        return matches[0]


class Machine:
    """One simulated AMP machine executing one workload under one policy."""

    def __init__(
        self,
        topology: Topology,
        scheduler,
        config: MachineConfig | None = None,
    ) -> None:
        self.topology = topology
        self.config = config or MachineConfig()
        self.obs = Observability(self.config.obs)
        self.engine = Engine()
        self.cores: list[Core] = topology.build_cores()
        for core in self.cores:
            core.rq = RunQueue(core.core_id)
        self.big_cores = [c for c in self.cores if c.is_big]
        self.little_cores = [c for c in self.cores if not c.is_big]
        #: The run's one observer (:mod:`repro.obs.probe`), told about
        #: every engine event and state change; built once from the
        #: ``obs`` / ``sanitize`` / ``timeseries`` settings.  Never None:
        #: attribution is always attached.
        self.probe = self._build_probe()
        self.engine.probe = self.probe
        #: The probe's per-kind transition hooks (:meth:`Probe.hooks`).
        self._hooks = self.probe.hooks()
        for core in self.cores:
            core.rq.hooks = self._hooks
        self.futexes = FutexTable(self.probe)
        self.rng = np.random.default_rng(self.config.seed)
        self.scheduler = scheduler
        scheduler.attach(self)
        tracer = self.obs.tracer
        if tracer.enabled:
            tracer.metadata = {
                "topology": topology.name,
                "scheduler": scheduler.name,
                "seed": self.config.seed,
                "cores": {c.core_id: c.kind_name for c in self.cores},
            }

        self.tasks: list[Task] = []
        self.app_names: dict[int, str] = {}
        self._done_count = 0
        self._dispatch_pending: set[int] = set()
        self._ran = False

        #: SEGMENT_DONE pushes skipped because a live slice expiry proves
        #: they could never fire valid.
        self.events_suppressed = 0
        self.engine.reclaim = self._reclaim_timer
        #: An observer watches drains, so every handler must drain.
        self._drain_observed = self._hooks[DRAIN] is not None

        self.engine.register(EventKind.SEGMENT_DONE, self._on_segment_done)
        self.engine.register(EventKind.SLICE_EXPIRY, self._on_slice_expiry)
        self.engine.register(EventKind.WAKEUP, self._on_timed_wakeup)
        self.engine.register(EventKind.LABEL, self._on_label)
        self.engine.register(EventKind.CALLBACK, self._on_dvfs)
        if self.obs.profiler.enabled:
            self.obs.profiler.instrument(self)

    def _build_probe(self):
        """Combine the enabled observers into the run's one probe.

        The sanitizer goes first so it checks each change before any
        other observer records it.
        """
        observers = []
        if self.config.sanitize:
            from repro.sanitize.schedsan import SchedSanitizer

            observers.append(SchedSanitizer(tracer=self.obs.tracer))
        observers.append(AttributionAccounting(self))
        if self.obs.tracer.enabled:
            observers.append(self.obs.tracer)
        if self.obs.metrics.enabled:
            observers.append(MachineMetrics(self.obs.metrics, self))
        if self.config.timeseries:
            from repro.obs.timeseries import TimeseriesConfig, TimeseriesSampler

            observers.append(TimeseriesSampler(self, TimeseriesConfig()))
        return combine(observers)

    # ------------------------------------------------------------------
    # Workload registration
    # ------------------------------------------------------------------
    def add_task(self, task: Task, app_name: str | None = None) -> None:
        """Register a task created by a workload model.

        Must be called before :meth:`run`.  All registered tasks become
        runnable at t=0 (the paper starts from a post-initialisation
        checkpoint where every benchmark thread already exists).
        """
        if self._ran:
            raise SimulationError("cannot add tasks after run()")
        self._admit(task, app_name)

    def _admit(self, task: Task, app_name: str | None) -> None:
        """Give a new task its counters and record it (start or ``Spawn``).

        The per-task counter seed is drawn whether or not the policy reads
        counters: every later draw from ``self.rng`` follows it, so the
        draw sequence, and with it every digest, is the same under all
        policies.  The counters themselves are built only when
        :attr:`Scheduler.reads_counters` says the policy reads them.
        """
        if task.counters is None:
            seed = self.rng.integers(0, 2**63)
            if self.scheduler.reads_counters:
                task.counters = PerformanceCounters(
                    profile=task.profile, rng=np.random.default_rng(seed)
                )
        self.tasks.append(task)
        if app_name is not None:
            self.app_names.setdefault(task.app_id, app_name)

    def add_program(self, instance) -> None:
        """Register every task of a :class:`~repro.workloads.programs.ProgramInstance`."""
        for task in instance.tasks:
            self.add_task(task, app_name=instance.name)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> RunResult:
        """Execute the workload to completion and summarise the run.

        Raises:
            SimulationError: on deadlock (tasks blocked forever) or if the
                workload did not finish before ``until``.
        """
        if self._ran:
            raise SimulationError("machine already ran")
        self._ran = True
        if not self.tasks:
            raise SimulationError("no tasks registered")

        for task in self.tasks:
            task.spawn_time = 0.0
            self._wake_task(task, 0.0, is_new=True)
        self._drain(0.0)

        period = self.scheduler.label_period()
        if period is not None:
            self.engine.push(Event(time=period, kind=EventKind.LABEL))
        if self.config.dvfs is not None:
            self.engine.push(
                Event(time=self.config.dvfs.period_ms, kind=EventKind.CALLBACK)
            )

        self.engine.run(until=until)

        if self._done_count < len(self.tasks):
            stuck = [t.name for t in self.tasks if not t.is_done]
            raise SimulationError(
                f"{len(stuck)} tasks never finished "
                f"(deadlock or truncated run): {stuck[:10]}"
            )
        return self._build_result()

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _on_segment_done(self, event: Event) -> None:
        core = self.cores[event.core_id]
        if event.version != core.sched_version:
            return
        now = self.engine.now
        task = core.current
        if task is None:
            raise SimulationError(f"segment-done on idle core {core.core_id}")
        self._account(core, now)
        segment = task.current_segment
        if segment is None or segment.remaining > 1e-6:
            raise SimulationError(
                f"segment-done for {task.name} with remaining="
                f"{None if segment is None else segment.remaining}"
            )
        segment.remaining = 0.0
        task.current_segment = None
        outcome = self._advance(task, core, now)
        if outcome == "compute":
            self._schedule_segment_done(core, task, now)
        if self._dispatch_pending or self._drain_observed:
            self._drain(now)

    def _on_slice_expiry(self, event: Event) -> None:
        core = self.cores[event.core_id]
        if event.version != core.sched_version:
            return
        now = self.engine.now
        task = core.current
        if task is None:
            raise SimulationError(f"slice expiry on idle core {core.core_id}")
        self._account(core, now)
        task.mark_ready()
        core.current = None
        core.bump_version()
        hook = self._hooks[DESCHEDULE]
        if hook is not None:
            hook(DESCHEDULE, task, core, now, "slice_expiry")
        self.scheduler.enqueue(core, task, now, is_new=False)
        self._dispatch_pending.add(core.core_id)
        self._drain(now)

    def _on_timed_wakeup(self, event: Event) -> None:
        now = self.engine.now
        task: Task = event.payload
        if task.state is not TaskState.SLEEPING:
            raise SimulationError(
                f"timed wakeup for {task.name} in state {task.state.value}"
            )
        # A sleep issued at t=0 has ``wait_started_at == 0.0``: test for
        # None, not truthiness, or that whole sleep goes uncharged.
        started = task.wait_started_at
        if started is not None:
            waited = now - started
            task.own_wait_time += waited
            if task.counters is not None:
                task.counters.record_wait(waited)
            task.wait_started_at = None
        self._wake_task(task, now)
        if self._dispatch_pending or self._drain_observed:
            self._drain(now)

    def _on_dvfs(self, event: Event) -> None:
        """Periodic frequency-governor evaluation (when DVFS is enabled)."""
        now = self.engine.now
        policy = self.config.dvfs
        if policy is None:
            return
        policy.apply(self, now)
        if self._done_count < len(self.tasks):
            self.engine.push(
                Event(time=now + policy.period_ms, kind=EventKind.CALLBACK)
            )
        if self._dispatch_pending or self._drain_observed:
            self._drain(now)

    def set_core_frequency(self, core: Core, scale: float, now: float) -> None:
        """Change ``core``'s DVFS scale, rescheduling in-flight work.

        Accounting is settled at the old frequency first; a running task's
        remaining segment is then re-timed at the new rate (it receives a
        fresh slice -- a minor simplification over tracking the consumed
        slice fraction across frequency changes).
        """
        if scale <= 0.0 or scale > 1.0:
            raise SimulationError(f"frequency scale {scale} outside (0, 1]")
        if abs(scale - core.freq_scale) < 1e-12:
            return
        task = core.current
        if task is not None:
            self._account(core, now)
        hook = self._hooks[DVFS]
        if hook is not None:
            hook(DVFS, None, core, now, scale)
        core.freq_scale = scale
        if task is not None:
            core.bump_version()
            if task.current_segment is not None:
                self._arm(core, task, now)

    def _on_label(self, event: Event) -> None:
        now = self.engine.now
        self.scheduler.on_label_tick(now)
        self.scheduler.stats.label_passes += 1
        hook = self._hooks[LABEL]
        if hook is not None:
            hook(LABEL, None, self.scheduler, now, None)
        period = self.scheduler.label_period()
        if period is not None and self._done_count < len(self.tasks):
            self.engine.push(Event(time=now + period, kind=EventKind.LABEL))
        if self._dispatch_pending or self._drain_observed:
            self._drain(now)

    # ------------------------------------------------------------------
    # Dispatch machinery
    # ------------------------------------------------------------------
    def _drain(self, now: float) -> None:
        """Fill idle cores until no pending dispatch remains (iterative)."""
        while self._dispatch_pending:
            core_id = min(self._dispatch_pending)
            self._dispatch_pending.discard(core_id)
            core = self.cores[core_id]
            if core.current is None:
                self._dispatch(core, now)
        hook = self._hooks[DRAIN]
        if hook is not None:
            hook(DRAIN, None, self, now, None)

    def _dispatch(self, core: Core, now: float) -> None:
        task = self.scheduler.pick_next(core, now)
        if task is None:
            return
        hook = self._hooks[PICK]
        if hook is not None:
            hook(PICK, task, core, now, None)
        self.scheduler.stats.picks += 1
        self._start(core, task, now)

    def _start(self, core: Core, task: Task, now: float) -> None:
        """Dispatch ``task`` onto idle ``core``."""
        if core.current is not None:
            raise SchedulerError(
                f"dispatch onto busy core {core.core_id} "
                f"(running {core.current.name})"
            )
        if task.rq_core_id is not None:
            raise SchedulerError(
                f"picked task {task.name} still queued on core {task.rq_core_id}"
            )
        if not task.is_runnable:
            raise SchedulerError(
                f"picked task {task.name} in state {task.state.value}"
            )
        # Scheduling-cost model: switch cost if the core changes task,
        # migration cost if the task changes core.
        switched = core.last_tid != task.tid
        prev_core_id = task.last_core_id
        migrated = prev_core_id is not None and prev_core_id != core.core_id
        if switched:
            core.context_switches += 1
            task.pending_penalty += self.config.context_switch_cost
        if migrated:
            task.migrations += 1
            core.migrations_in += 1
            task.pending_penalty += self.config.migration_cost
        core.last_tid = task.tid
        task.last_core_id = core.core_id

        task.mark_running(core.core_id, core.kind_name)
        core.current = task
        core.run_started = now
        core.bump_version()
        hook = self._hooks[DISPATCH]
        if hook is not None:
            hook(DISPATCH, task, core, now, prev_core_id)

        if task.current_segment is None:
            outcome = self._advance(task, core, now)
            if outcome != "compute":
                return
        self._arm(core, task, now)

    def _arm(self, core: Core, task: Task, now: float) -> None:
        """Start a fresh slice for ``task`` on ``core`` (dispatch or re-time).

        Both timers derive from the same (now, pending_penalty) state, so
        the slice deadline is fixed before the segment-done push, which
        it may suppress.  The slice expiry's sequence number is taken
        right after the segment-done push: that order (segment-done, then
        expiry) fixes the numbers the stored digests were recorded with.
        """
        slice_len = self.scheduler.slice_for(task, core)
        if slice_len <= 0:
            raise SchedulerError(
                f"{self.scheduler.name} returned slice {slice_len} <= 0"
            )
        core.slice_deadline = now + task.pending_penalty + slice_len
        self._schedule_segment_done(core, task, now)

    def _schedule_segment_done(self, core: Core, task: Task, now: float) -> None:
        """Arm ``core``'s one timer for the running segment.

        Each core has one armed timer per scheduling version.  While
        segments finish inside the slice it is the segment-done timer, and
        ``core.expiry_seq`` holds the sequence number the slice expiry
        took when the slice started (:meth:`Engine.reserve`).  The expiry
        itself is pushed, under that number, only once a segment would
        finish after ``core.slice_deadline``: such a completion can never
        fire valid -- either the expiry fires first and bumps the version,
        or something else already bumped it -- so its push is suppressed.
        Every pushed event thus keeps the ``(time, kind, seq)`` key it had
        when both timers were pushed at the start of the slice, and a
        block, finish or preemption (any version bump) drops the
        reservation instead of leaving a stale expiry in the heap.  A
        completion *at* the deadline still fires first (SEGMENT_DONE
        outranks SLICE_EXPIRY at equal timestamps) and is pushed.
        """
        segment = task.current_segment
        if segment is None:
            raise SimulationError(f"no segment to schedule for {task.name}")
        rate = core.rate_for(task)
        finish = now + task.pending_penalty + segment.remaining / rate
        if finish > core.slice_deadline:
            self.events_suppressed += 1
            seq = core.expiry_seq
            core.expiry_seq = None
            self._push_timer(core.slice_deadline, EventKind.SLICE_EXPIRY, core, seq)
            return
        self._push_timer(finish, EventKind.SEGMENT_DONE, core)
        if core.expiry_seq is None:
            core.expiry_seq = self.engine.reserve()

    def _push_timer(
        self, time: float, kind: EventKind, core: Core, seq: int | None = None
    ) -> None:
        """Push a timer for ``core``'s current version, reusing a pooled event.

        :meth:`_reclaim_timer` feeds the pool with the core's popped timers;
        a timer is allocated fresh only when the pool is empty.  A ``seq``
        from :meth:`Engine.reserve` queues the timer under that number.
        """
        pool = core.event_pool
        if pool:
            event = pool.pop()
            event.time = time
            event.kind = kind
            event.version = core.sched_version
        else:
            event = Event(
                time=time, kind=kind, core_id=core.core_id,
                version=core.sched_version,
            )
        self.engine.push(event, seq)

    def _reclaim_timer(self, event: Event) -> bool:
        """Engine pop hook for a version-guarded timer: pool it; is it stale?

        The popped event goes back to its core's pool whether it is stale
        or live: a live timer's handler reads its fields before anything
        can reuse it.  Stale timers (SEGMENT_DONE / SLICE_EXPIRY of an
        older version) have a no-op handler, so the engine drops them
        before the clock, sanitizer, or handler sees them and no
        observable outcome changes.
        """
        core = self.cores[event.core_id]
        core.event_pool.append(event)
        return event.version != core.sched_version

    def _account(self, core: Core, now: float) -> None:
        """Charge execution since ``core.run_started`` to the running task.

        Hot path: runs at every deschedule/preempt/segment boundary, so
        repeated attribute reads are hoisted into locals, each ``min``
        is written as the comparison it performs (``min(a, b)`` is ``b if
        b < a else a``, NaN and -0.0 included), and the residency sum
        makes no ``dict.get`` call.  The arithmetic (and its order) is
        untouched -- outcomes stay bit-identical.
        """
        task = core.current
        if task is None:
            raise SimulationError(f"accounting on idle core {core.core_id}")
        elapsed = now - core.run_started
        if elapsed < -_EPS:
            raise SimulationError(f"negative elapsed {elapsed}")
        if elapsed > 0.0:
            pending = task.pending_penalty
            penalty_used = pending if pending < elapsed else elapsed
            task.pending_penalty = pending - penalty_used
            productive = elapsed - penalty_used
            segment = task.current_segment
            work = 0.0
            if segment is not None and productive > 0.0:
                remaining = segment.remaining
                work = productive * core.rate_for(task)
                if remaining < work:
                    work = remaining
                remaining -= work
                if remaining < _EPS:
                    remaining = 0.0
                segment.remaining = remaining
            task.sum_exec_runtime += elapsed
            task.exec_time_by_kind[core.kind_name] += elapsed
            task.work_done += work
            counters = task.counters
            if counters is not None and work > 0.0:
                counters.record_compute(work, productive)
            self.scheduler.charge(task, core, elapsed, now)
            core.busy_time += elapsed
            by_scale = core.busy_by_scale
            scale = core.freq_scale
            if scale in by_scale:
                by_scale[scale] += elapsed
            else:
                by_scale[scale] = elapsed  # == 0.0 + elapsed, as elapsed > 0
            hook = self._hooks[EXEC]
            if hook is not None:
                hook(EXEC, task, core, now, penalty_used)
        core.run_started = now
        rq = core.rq
        if rq is not None:
            rq.update_min_vruntime(task.vruntime)

    # ------------------------------------------------------------------
    # Wakeups
    # ------------------------------------------------------------------
    def _wake_task(self, task: Task, now: float, is_new: bool = False) -> None:
        """Make ``task`` runnable: core allocation + wakeup preemption."""
        if task.blocked_action is not None:
            action = task.blocked_action
            task.blocked_action = None
            if isinstance(action, PipeGet):
                task.pending_result = action.pipe.collect_delivery(task)
        if is_new:
            hook = self._hooks[SPAWN]
            if hook is not None:
                hook(SPAWN, task, None, now, None)
        task.mark_ready()
        core = self.scheduler.select_core(task, now)
        if not task.allows_core(core.core_id):
            raise SchedulerError(
                f"{self.scheduler.name} allocated {task.name} to core "
                f"{core.core_id} outside affinity {sorted(task.affinity or ())}"
            )
        self.scheduler.enqueue(core, task, now, is_new=is_new, is_wakeup=not is_new)
        if core.current is None:
            self._dispatch_pending.add(core.core_id)
        elif self.scheduler.check_preempt_wakeup(core, task, now):
            self.scheduler.stats.wakeup_preemptions += 1
            self._preempt_into_rq(core, now)
        else:
            # The target core is busy and keeps running; if any other core
            # sits idle, give it a chance to pull the fresh task.
            for other in self.cores:
                if other.current is None and task.allows_core(other.core_id):
                    self._dispatch_pending.add(other.core_id)
                    break

    def _preempt_into_rq(self, core: Core, now: float) -> None:
        """Stop the running task and put it back on ``core``'s runqueue."""
        task = core.current
        if task is None:
            raise SimulationError(f"preempting idle core {core.core_id}")
        self._account(core, now)
        task.mark_ready()
        core.current = None
        core.bump_version()
        core.preemptions += 1
        hook = self._hooks[DESCHEDULE]
        if hook is not None:
            hook(DESCHEDULE, task, core, now, "wakeup_preemption")
        self.scheduler.enqueue(core, task, now, is_new=False)
        self._dispatch_pending.add(core.core_id)

    def preempt_running(self, core: Core, now: float) -> Task:
        """Stop the task running on ``core`` and hand it to the caller.

        Used by COLAB's thread selector when a big core accelerates a
        critical thread currently executing on a little core.  The victim
        core is marked for redispatch; the returned task is READY and on no
        runqueue.
        """
        task = core.current
        if task is None:
            raise SchedulerError(f"no running task to preempt on core {core.core_id}")
        self._account(core, now)
        task.mark_ready()
        core.current = None
        core.bump_version()
        core.preemptions += 1
        self.scheduler.stats.running_preemptions += 1
        hook = self._hooks[DESCHEDULE]
        if hook is not None:
            hook(DESCHEDULE, task, core, now, "forced_preemption")
        self._dispatch_pending.add(core.core_id)
        return task

    def request_dispatch(self, core: Core) -> None:
        """Ask the machine to (re)fill ``core`` at the next drain point.

        Schedulers call this after enqueue operations they perform outside
        the machine's own wake/preempt paths.
        """
        if core.current is None:
            self._dispatch_pending.add(core.core_id)

    def migrate_queued(self, task: Task, target: Core, now: float) -> None:
        """Move a READY, queued task onto ``target``'s runqueue (WASH)."""
        if task.rq_core_id is None:
            raise SchedulerError(f"task {task.name} is not queued anywhere")
        source = self.cores[task.rq_core_id]
        source.rq.dequeue(task)
        self.scheduler.enqueue(target, task, now, is_new=False)
        if target.current is None:
            self._dispatch_pending.add(target.core_id)

    # ------------------------------------------------------------------
    # Action processing
    # ------------------------------------------------------------------
    def _advance(self, task: Task, core: Core, now: float) -> str:
        """Drive ``task``'s generator until it computes, blocks, or exits.

        Returns one of ``"compute"`` (a segment is installed and the task
        keeps the core), ``"blocked"``, ``"done"``, or ``"preempted"``
        (a task woken by one of our zero-time actions preempted us).

        Hot path: every resumption funnels through this loop, so the
        generator handle and the action table are hoisted into locals up
        front, and :class:`Compute` -- most actions -- is handled inline.
        """
        actions = task.actions
        send = actions.send
        handlers = self._ACTIONS
        for _ in range(self.config.max_actions_per_advance):
            try:
                if not task.gen_started:
                    task.gen_started = True
                    action = next(actions)
                else:
                    result = task.pending_result
                    task.pending_result = None
                    action = send(result)
            except StopIteration:
                self._finish_task(task, core, now)
                return "done"

            if type(action) is Compute:
                if action.remaining > 0.0:
                    task.current_segment = action
                    return "compute"
                continue  # zero-work segment: nothing to execute
            try:
                handler = handlers[type(action)]
            except KeyError:
                raise SimulationError(
                    f"unknown action {action!r} from {task.name}"
                ) from None
            if handler(self, task, action, now) == "blocked":
                task.blocked_action = action
                task.mark_sleeping()
                core.current = None
                core.bump_version()
                hook = self._hooks[BLOCK]
                if hook is not None:
                    hook(BLOCK, task, core, now, action)
                self._dispatch_pending.add(core.core_id)
                return "blocked"
            # Zero-time action completed; the wakeups it caused may have
            # preempted this very task.
            if task.state is not TaskState.RUNNING:
                return "preempted"
        raise SimulationError(
            f"task {task.name} processed {self.config.max_actions_per_advance} "
            "zero-time actions without computing or blocking (livelock)"
        )

    # One handler per zero-time action type, each returning "blocked" or
    # "continue"; :attr:`_ACTIONS` maps the exact type to its handler.
    def _act_lock_acquire(self, task, action: LockAcquire, now) -> str:
        outcome = action.mutex.acquire(task, now)
        return "blocked" if outcome == "blocked" else "continue"

    def _act_lock_release(self, task, action: LockRelease, now) -> str:
        self._wake_all(action.mutex.release(task, now), now)
        return "continue"

    def _act_sem_acquire(self, task, action: SemAcquire, now) -> str:
        outcome = action.semaphore.acquire(task, now)
        return "blocked" if outcome == "blocked" else "continue"

    def _act_sem_release(self, task, action: SemRelease, now) -> str:
        self._wake_all(action.semaphore.release(task, now), now)
        return "continue"

    def _act_read_acquire(self, task, action: ReadAcquire, now) -> str:
        outcome = action.rwlock.acquire_read(task, now)
        return "blocked" if outcome == "blocked" else "continue"

    def _act_read_release(self, task, action: ReadRelease, now) -> str:
        self._wake_all(action.rwlock.release_read(task, now), now)
        return "continue"

    def _act_write_acquire(self, task, action: WriteAcquire, now) -> str:
        outcome = action.rwlock.acquire_write(task, now)
        return "blocked" if outcome == "blocked" else "continue"

    def _act_write_release(self, task, action: WriteRelease, now) -> str:
        self._wake_all(action.rwlock.release_write(task, now), now)
        return "continue"

    def _act_barrier_wait(self, task, action: BarrierWait, now) -> str:
        outcome = action.barrier.arrive(task, now)
        if outcome == "blocked":
            return "blocked"
        self._wake_all(outcome, now)
        return "continue"

    def _act_cond_wait(self, task, action: CondWait, now) -> str:
        action.cond.wait(task, now)
        return "blocked"

    def _act_cond_signal(self, task, action: CondSignal, now) -> str:
        self._wake_all(action.cond.signal(task, now), now)
        return "continue"

    def _act_cond_broadcast(self, task, action: CondBroadcast, now) -> str:
        self._wake_all(action.cond.broadcast(task, now), now)
        return "continue"

    def _act_pipe_put(self, task, action: PipePut, now) -> str:
        outcome = action.pipe.put(task, action.item, now)
        if outcome == "blocked":
            return "blocked"
        self._wake_all(outcome, now)
        return "continue"

    def _act_pipe_get(self, task, action: PipeGet, now) -> str:
        outcome = action.pipe.get(task, now)
        if outcome == "blocked":
            return "blocked"
        item, woken = outcome
        task.pending_result = item
        self._wake_all(woken, now)
        return "continue"

    def _act_spawn(self, task, action: Spawn, now) -> str:
        spawned = action.task
        spawned.spawn_time = now
        self._admit(spawned, task.name)
        self._wake_task(spawned, now, is_new=True)
        return "continue"

    def _act_sleep(self, task, action: Sleep, now) -> str:
        task.wait_started_at = now
        self.engine.push(
            Event(time=now + action.duration, kind=EventKind.WAKEUP, payload=task)
        )
        return "blocked"

    #: Action type -> handler (unbound; called with the machine first).
    #: :class:`Compute` is handled inline by :meth:`_advance`.
    _ACTIONS = {
        LockAcquire: _act_lock_acquire,
        LockRelease: _act_lock_release,
        SemAcquire: _act_sem_acquire,
        SemRelease: _act_sem_release,
        ReadAcquire: _act_read_acquire,
        ReadRelease: _act_read_release,
        WriteAcquire: _act_write_acquire,
        WriteRelease: _act_write_release,
        BarrierWait: _act_barrier_wait,
        CondWait: _act_cond_wait,
        CondSignal: _act_cond_signal,
        CondBroadcast: _act_cond_broadcast,
        PipePut: _act_pipe_put,
        PipeGet: _act_pipe_get,
        Spawn: _act_spawn,
        Sleep: _act_sleep,
    }

    def _wake_all(self, tasks: list[Task], now: float) -> None:
        for woken in tasks:
            self._wake_task(woken, now)

    def _finish_task(self, task: Task, core: Core, now: float) -> None:
        task.mark_done(now)
        core.current = None
        core.bump_version()
        hook = self._hooks[DONE]
        if hook is not None:
            hook(DONE, task, core, now, None)
        self._done_count += 1
        self.scheduler.on_task_done(task, now)
        self._dispatch_pending.add(core.core_id)
        if self._done_count == len(self.tasks):
            self.engine.stop()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _build_result(self) -> RunResult:
        app_turnaround: dict[int, float] = {}
        for task in self.tasks:
            finish = task.finish_time if task.finish_time is not None else 0.0
            app_turnaround[task.app_id] = max(
                app_turnaround.get(task.app_id, 0.0), finish
            )
        task_stats = [
            TaskStats(
                tid=t.tid,
                name=t.name,
                app_id=t.app_id,
                finish_time=t.finish_time,
                cpu_time_big=t.exec_time_by_kind["big"],
                cpu_time_little=t.exec_time_by_kind["little"],
                work_done=t.work_done,
                own_wait_time=t.own_wait_time,
                caused_wait_time=t.caused_wait_time,
                migrations=t.migrations,
            )
            for t in self.tasks
        ]
        makespan = max(app_turnaround.values())
        fields: dict = {}
        self.probe.finish(self, makespan, fields)
        metrics = fields.pop("metrics", {})
        if self.obs.profiler.enabled:
            metrics["profile"] = self.obs.profiler.snapshot()
        tracer = self.obs.tracer
        return RunResult(
            topology_name=self.topology.name,
            scheduler_name=self.scheduler.name,
            makespan=makespan,
            app_turnaround=app_turnaround,
            app_names=dict(self.app_names),
            tasks=task_stats,
            scheduler_stats=self.scheduler.stats,
            total_context_switches=sum(c.context_switches for c in self.cores),
            total_migrations=sum(t.migrations for t in self.tasks),
            core_busy_time={c.core_id: c.busy_time for c in self.cores},
            core_busy_by_scale={
                c.core_id: dict(c.busy_by_scale) for c in self.cores
            },
            events=tracer.events,
            metrics=metrics,
            trace_metadata=dict(tracer.metadata),
            events_processed=self.engine.processed,
            events_discarded=self.engine.discarded,
            events_suppressed=self.events_suppressed,
            **fields,
        )
