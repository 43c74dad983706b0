"""Parallelism archetypes used to model the PARSEC / SPLASH-2 benchmarks.

Each builder returns the task list of one program instance.  Four
archetypes cover the fifteen benchmarks of Table 3:

* :func:`data_parallel` -- SPMD loop nests with optional lock-protected
  critical sections and a barrier per timestep (blackscholes,
  fluidanimate, water_*, fmm);
* :func:`pipeline` -- staged producer/consumer chains over bounded pipes
  with per-stage thread pools and unbalanced stage costs (ferret, dedup);
* :func:`fork_join` -- barrier-separated phases with static per-thread
  imbalance (radix, fft, lu_*, ocean);
* :func:`task_queue` -- a master feeding a shared work queue that workers
  drain dynamically, so fast threads automatically grab more work
  (bodytrack, freqmine) -- the "splits work dynamically between threads"
  behaviour that makes AMP-awareness unprofitable for these benchmarks;
* :func:`static_partition` -- statically partitioned workers with a
  designated straggler, with *independent* core-sensitivity control for
  the straggler vs the rest (swaptions' WASH-favouring corner case).

The synchronisation counts these archetypes generate are what the Table 3
"Sync. Rate" column becomes in our reproduction; the regenerated table is
measured from instantiated programs, not hand-copied.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.kernel.sync import Barrier, Mutex, Pipe
from repro.kernel.task import Task
from repro.sim.counters import MicroArchProfile
from repro.workloads.actions import (
    BarrierWait,
    Compute,
    LockAcquire,
    LockRelease,
    PipeGet,
    PipePut,
)
from repro.workloads.programs import (
    POISON,
    ProgramEnv,
    Traits,
    jittered,
    make_profile,
    make_task,
)

# ---------------------------------------------------------------------------
# Data-parallel SPMD with critical sections
# ---------------------------------------------------------------------------


def data_parallel(
    env: ProgramEnv,
    app_id: int,
    name: str,
    traits: Traits,
    n_threads: int,
    total_work: float,
    n_phases: int = 4,
    chunk_work: float = 1.0,
    lock_every: int = 0,
    cs_work: float = 0.02,
    imbalance: float = 0.15,
) -> list[Task]:
    """SPMD workers: chunked compute, optional critical sections, barriers.

    Args:
        total_work: Aggregate compute across all threads and phases.
        n_phases: Timesteps; each ends with a full barrier.
        chunk_work: Nominal work per chunk (preemption granularity).
        lock_every: Acquire the shared lock every N chunks (0 = never).
        cs_work: Work inside each critical section.
        imbalance: Relative spread of per-thread work.
    """
    if n_threads < 1:
        raise WorkloadError(f"{name}: need >= 1 threads")
    barrier = Barrier(env.futexes, parties=n_threads, name=f"{name}.barrier")
    lock = Mutex(env.futexes, name=f"{name}.lock")
    work_per_thread_phase = total_work / (n_threads * n_phases)

    def worker(thread_idx: int, weight: float):
        my_phase_work = work_per_thread_phase * weight
        n_chunks = max(1, round(my_phase_work / max(chunk_work, 1e-9)))
        for _phase in range(n_phases):
            for chunk in range(n_chunks):
                yield Compute(jittered(env, my_phase_work / n_chunks))
                if lock_every and chunk % lock_every == 0:
                    yield LockAcquire(lock)
                    yield Compute(jittered(env, cs_work, sigma=0.1))
                    yield LockRelease(lock)
            yield BarrierWait(barrier)

    weights = [
        float(max(0.3, 1.0 + env.normal(0.0, imbalance)))
        for _ in range(n_threads)
    ]
    return [
        make_task(env, f"{name}/w{i}", app_id, traits, worker(i, weights[i]))
        for i in range(n_threads)
    ]


# ---------------------------------------------------------------------------
# Pipelines (ferret / dedup)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage: a thread pool applying per-item work."""

    name: str
    threads: int
    work_per_item: float

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise WorkloadError(f"stage {self.name}: needs >= 1 threads")
        if self.work_per_item < 0:
            raise WorkloadError(f"stage {self.name}: negative work")


class _StageControl:
    """Counts finished threads per stage to forward exactly one poison wave."""

    def __init__(self, stages: list[StageSpec]) -> None:
        self.finished = [0] * len(stages)
        self.stages = stages

    def is_last_finisher(self, stage_idx: int) -> bool:
        self.finished[stage_idx] += 1
        return self.finished[stage_idx] == self.stages[stage_idx].threads


def pipeline(
    env: ProgramEnv,
    app_id: int,
    name: str,
    traits: Traits,
    stages: list[StageSpec],
    n_items: int,
    pipe_capacity: int = 8,
) -> list[Task]:
    """Staged pipeline over bounded pipes with poison-pill shutdown.

    Stage 0 threads *generate* ``n_items`` work items (split between
    them); each downstream stage's pool consumes from the previous pipe
    and produces into the next.  The last thread of each stage to receive
    its poison forwards one poison per thread of the next stage, so the
    shutdown wave matches pool sizes exactly.
    """
    if len(stages) < 2:
        raise WorkloadError(f"{name}: a pipeline needs >= 2 stages")
    if n_items < 1:
        raise WorkloadError(f"{name}: needs >= 1 items")
    pipes = [
        Pipe(env.futexes, capacity=pipe_capacity, name=f"{name}.pipe{i}")
        for i in range(len(stages) - 1)
    ]
    control = _StageControl(stages)

    def producer(stage: StageSpec, items_for_me: int):
        out = pipes[0]
        for item in range(items_for_me):
            yield Compute(jittered(env, stage.work_per_item))
            yield PipePut(out, item)
        if control.is_last_finisher(0):
            for _ in range(stages[1].threads):
                yield PipePut(out, POISON)

    def middle(stage_idx: int, stage: StageSpec):
        inbox = pipes[stage_idx - 1]
        outbox = pipes[stage_idx]
        while True:
            item = yield PipeGet(inbox)
            if item == POISON:
                if control.is_last_finisher(stage_idx):
                    for _ in range(stages[stage_idx + 1].threads):
                        yield PipePut(outbox, POISON)
                return
            yield Compute(jittered(env, stage.work_per_item))
            yield PipePut(outbox, item)

    def sink(stage_idx: int, stage: StageSpec):
        inbox = pipes[stage_idx - 1]
        while True:
            item = yield PipeGet(inbox)
            if item == POISON:
                control.is_last_finisher(stage_idx)
                return
            yield Compute(jittered(env, stage.work_per_item))

    tasks: list[Task] = []
    first = stages[0]
    base, extra = divmod(n_items, first.threads)
    for i in range(first.threads):
        items_for_me = base + (1 if i < extra else 0)
        tasks.append(
            make_task(
                env,
                f"{name}/{first.name}{i}",
                app_id,
                traits,
                producer(first, items_for_me),
            )
        )
    for stage_idx, stage in enumerate(stages[1:-1], start=1):
        for i in range(stage.threads):
            tasks.append(
                make_task(
                    env,
                    f"{name}/{stage.name}{i}",
                    app_id,
                    traits,
                    middle(stage_idx, stage),
                )
            )
    last_idx = len(stages) - 1
    last = stages[last_idx]
    for i in range(last.threads):
        tasks.append(
            make_task(
                env, f"{name}/{last.name}{i}", app_id, traits, sink(last_idx, last)
            )
        )
    return tasks


def split_pipeline_threads(total: int, n_middle: int) -> list[int]:
    """Distribute ``total`` threads over 1 + n_middle + 1 stages.

    First (input) and last (output) stages are serial, mirroring ferret's
    load/out and dedup's fragment/reorder stages; the remaining threads
    spread round-robin over the middle stages (each gets at least one).

    Returns:
        Per-stage thread counts summing to ``total``.

    Raises:
        WorkloadError: if ``total`` cannot cover every stage.
    """
    if total < n_middle + 2:
        raise WorkloadError(
            f"pipeline needs >= {n_middle + 2} threads, got {total}"
        )
    middle = total - 2
    counts = [1] * n_middle
    middle -= n_middle
    cursor = 0
    while middle > 0:
        counts[cursor % n_middle] += 1
        cursor += 1
        middle -= 1
    return [1] + counts + [1]


# ---------------------------------------------------------------------------
# Fork-join phases (SPLASH-2 kernels)
# ---------------------------------------------------------------------------


def fork_join(
    env: ProgramEnv,
    app_id: int,
    name: str,
    traits: Traits,
    n_threads: int,
    total_work: float,
    n_phases: int = 4,
    imbalance: float = 0.25,
    chunk_work: float = 1.0,
) -> list[Task]:
    """Barrier-separated phases with static per-(thread, phase) imbalance.

    Models the SPLASH-2 kernels: every phase every thread computes its
    statically assigned share, then waits at a barrier.  The slowest
    thread of each phase is the bottleneck the futex accounting exposes.
    """
    if n_threads < 1:
        raise WorkloadError(f"{name}: need >= 1 threads")
    barrier = Barrier(env.futexes, parties=n_threads, name=f"{name}.barrier")
    per_cell = total_work / (n_threads * n_phases)
    shares = [
        [
            float(max(0.2, 1.0 + env.normal(0.0, imbalance)))
            for _ in range(n_phases)
        ]
        for _ in range(n_threads)
    ]

    def worker(thread_idx: int):
        for phase in range(n_phases):
            phase_work = per_cell * shares[thread_idx][phase]
            n_chunks = max(1, round(phase_work / max(chunk_work, 1e-9)))
            for _ in range(n_chunks):
                yield Compute(jittered(env, phase_work / n_chunks))
            yield BarrierWait(barrier)

    return [
        make_task(env, f"{name}/w{i}", app_id, traits, worker(i))
        for i in range(n_threads)
    ]


# ---------------------------------------------------------------------------
# Dynamic task queue (bodytrack / freqmine)
# ---------------------------------------------------------------------------


def task_queue(
    env: ProgramEnv,
    app_id: int,
    name: str,
    traits: Traits,
    n_threads: int,
    total_work: float,
    n_chunks: int = 64,
    master_fraction: float = 0.08,
    lock_every: int = 0,
    cs_work: float = 0.02,
    queue_capacity: int = 16,
) -> list[Task]:
    """Master/worker dynamic work splitting over a shared queue.

    The master performs a small serial generation slice per chunk (so it
    is a mild bottleneck), workers drain chunks at whatever speed their
    core allows -- the self-balancing structure for which the paper notes
    AMP-aware policies "offer no benefit while introducing overheads".

    ``n_threads`` counts the master plus the workers.
    """
    if n_threads < 2:
        raise WorkloadError(f"{name}: task queue needs master + >= 1 worker")
    n_workers = n_threads - 1
    queue = Pipe(env.futexes, capacity=queue_capacity, name=f"{name}.queue")
    lock = Mutex(env.futexes, name=f"{name}.lock")
    master_work = total_work * master_fraction
    worker_work = total_work - master_work
    chunk = worker_work / n_chunks

    def master():
        gen_cost = master_work / n_chunks
        for index in range(n_chunks):
            yield Compute(jittered(env, gen_cost, sigma=0.1))
            yield PipePut(queue, jittered(env, chunk))
        for _ in range(n_workers):
            yield PipePut(queue, POISON)

    def worker(worker_idx: int):
        processed = 0
        while True:
            item = yield PipeGet(queue)
            if item == POISON:
                return
            yield Compute(item)
            processed += 1
            if lock_every and processed % lock_every == 0:
                yield LockAcquire(lock)
                yield Compute(jittered(env, cs_work, sigma=0.1))
                yield LockRelease(lock)

    tasks = [make_task(env, f"{name}/master", app_id, traits, master())]
    tasks += [
        make_task(env, f"{name}/w{i}", app_id, traits, worker(i))
        for i in range(n_workers)
    ]
    return tasks


# ---------------------------------------------------------------------------
# Static partition with a core-insensitive straggler (swaptions)
# ---------------------------------------------------------------------------


def static_partition(
    env: ProgramEnv,
    app_id: int,
    name: str,
    traits: Traits,
    n_threads: int,
    total_work: float,
    straggler_share: float = 1.5,
    straggler_profile: MicroArchProfile | None = None,
    worker_profile: MicroArchProfile | None = None,
    chunk_work: float = 1.5,
) -> list[Task]:
    """Statically partitioned workers joining at one final barrier.

    Thread 0 receives ``straggler_share`` times the average work and an
    independently controlled profile.  The paper's swaptions analysis --
    "the bottleneck threads are core insensitive while the non-bottleneck
    threads are core sensitive" -- is expressed by passing a memory-bound
    straggler profile and a compute-bound worker profile.
    """
    if n_threads < 1:
        raise WorkloadError(f"{name}: need >= 1 threads")
    barrier = Barrier(env.futexes, parties=n_threads, name=f"{name}.join")
    denom = straggler_share + (n_threads - 1)
    straggler_work = total_work * straggler_share / denom
    worker_work = total_work / denom if n_threads > 1 else 0.0

    def body(my_work: float):
        n_chunks = max(1, round(my_work / chunk_work))
        for _ in range(n_chunks):
            yield Compute(jittered(env, my_work / n_chunks))
        yield BarrierWait(barrier)

    tasks = [
        make_task(
            env,
            f"{name}/w0",
            app_id,
            traits,
            body(straggler_work),
            profile=straggler_profile,
        )
    ]
    for i in range(1, n_threads):
        tasks.append(
            make_task(
                env,
                f"{name}/w{i}",
                app_id,
                traits,
                body(worker_work),
                profile=worker_profile,
            )
        )
    return tasks
