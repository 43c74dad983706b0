"""Process-pool evaluation of sweep points with deterministic merging.

:func:`repro.experiments.runner.sweep` resolves cached points, stores
results, and records the ledger; when ``jobs > 1`` it hands the pending
points to :func:`evaluate_on_pool`, which fans them out over a
:class:`concurrent.futures.ProcessPoolExecutor` while preserving the
repo's determinism contract:

* **Deterministic merge** -- results are collected by evaluation point
  in submission order, never by completion order, so the sweep output is
  bit-identical to the in-process path for any pure (order-insensitive)
  speedup estimator.  Iterating ``concurrent.futures.as_completed`` here
  is a lint violation (DET003).
* **Train once, ship coefficients** -- the parent trains (or reuses) the
  speedup model a single time and ships its fitted spec
  (:func:`repro.model.speedup.estimator_to_spec`) to every worker, which
  rebuilds it exactly instead of re-running the Table 2 pipeline per
  process.  With nothing pending (a fully warm cache) no model is
  trained and no worker is spawned.
* **Display-only progress** -- with a
  :class:`repro.obs.progress.SweepProgress` attached, the collector polls
  futures in submission order with a timeout and updates the progress
  line per point; the merge is oblivious to which future finished first.

Caveat: an impure estimator (oracle with ``noise_std > 0``) draws from a
sequential RNG stream, so its predictions depend on how many estimates
preceded them; parallel partitioning changes that history and such runs
are *not* bit-identical to serial ones (they remain deterministic for a
fixed ``jobs`` split).  Pure estimators -- the trained model, the
noise-free oracle -- are unaffected.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError

from repro.errors import ExperimentError
from repro.experiments.runner import (
    ExperimentContext,
    MetricsKey,
    MixMetrics,
    evaluate_mix,
)
from repro.model.speedup import estimator_from_spec, estimator_to_spec
from repro.obs.progress import SweepProgress

#: Worker-process context, built once per worker by :func:`_init_worker`.
_WORKER_CTX: ExperimentContext | None = None


def _init_worker(seed: int, work_scale: float, estimator_spec: dict) -> None:
    """Build the per-worker context from the parent's shipped state."""
    global _WORKER_CTX
    _WORKER_CTX = ExperimentContext(
        seed=seed,
        work_scale=work_scale,
        estimator=estimator_from_spec(estimator_spec),
    )


def _eval_point(
    mix_index: str, config: str, scheduler: str, sanitize: bool
) -> tuple[MixMetrics, int, float]:
    """Worker task: one evaluation point plus utilisation bookkeeping."""
    if _WORKER_CTX is None:  # pragma: no cover - initializer contract
        raise ExperimentError("worker context missing; pool not initialised")
    started = time.perf_counter()
    metrics = evaluate_mix(
        _WORKER_CTX, mix_index, config, scheduler, sanitize=sanitize
    )
    return metrics, os.getpid(), time.perf_counter() - started


def _collect_with_progress(submitted, progress: SweepProgress, done: int):
    """Drain futures in submission order, rendering live progress.

    Yields each future's result strictly in submission order -- progress
    polling uses ``Future.result(timeout=...)`` on the *next* pending
    future, so completion order is display-only and can never reorder
    the merge (DET003).
    """
    for index, (_point, future) in enumerate(submitted):
        while True:
            try:
                result = future.result(timeout=progress.poll_interval_s)
                break
            except FutureTimeoutError:
                stragglers = tuple(
                    p for p, f in submitted[index:] if f.running()
                )
                progress.update(done, stragglers)
        done += 1
        progress.update(done)
        yield result


def evaluate_on_pool(
    ctx: ExperimentContext,
    pending: list[MetricsKey],
    jobs: int,
    sanitize: bool,
    progress: SweepProgress | None,
    from_cache: int,
) -> list[tuple[MixMetrics, float]]:
    """Evaluate ``pending`` on ``jobs`` workers; ``(metrics, wall_s)`` each.

    The output is in submission (= ``pending``) order.  Workers neither
    read nor write the parent's caches; the caller stores the results.
    Publishes the ``parallel.*`` metrics (``from_cache`` counts the points
    the caller resolved without the pool, and is where ``progress``
    starts counting).
    """
    registry = ctx.obs_metrics
    registry.gauge("parallel.jobs").set(jobs)
    registry.counter("parallel.points_from_cache").inc(from_cache)
    if not pending:
        return []

    # Train (or reuse) the model once in the parent; workers rebuild it
    # from the fitted spec instead of re-running the training pipeline.
    estimator_spec = estimator_to_spec(ctx.get_estimator())
    initargs = (ctx.seed, ctx.work_scale, estimator_spec)

    evaluated: list[tuple[MixMetrics, float]] = []
    busy_s: dict[int, float] = {}
    points_by_pid: dict[int, int] = {}
    started = time.perf_counter()
    with ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_worker, initargs=initargs
    ) as pool:
        submitted = [
            (point, pool.submit(_eval_point, *point, sanitize))
            for point in pending
        ]
        # Deterministic merge: collect by evaluation point in submission
        # order.  Completion order must never influence the output (or
        # anything else observable) -- see DET003.
        if progress is not None:
            outcomes = _collect_with_progress(submitted, progress, from_cache)
        else:
            outcomes = (future.result() for _point, future in submitted)
        for metrics, pid, seconds in outcomes:
            evaluated.append((metrics, seconds))
            busy_s[pid] = busy_s.get(pid, 0.0) + seconds
            points_by_pid[pid] = points_by_pid.get(pid, 0) + 1
    elapsed = time.perf_counter() - started

    registry.counter("parallel.points_executed").inc(len(pending))
    registry.gauge("parallel.wall_s").set(elapsed)
    registry.gauge("parallel.workers_used").set(len(busy_s))
    for index, pid in enumerate(sorted(busy_s)):
        registry.gauge(f"parallel.worker.{index}.busy_s").set(busy_s[pid])
        registry.gauge(f"parallel.worker.{index}.points").set(
            points_by_pid[pid]
        )
        if elapsed > 0.0:
            registry.gauge(f"parallel.worker.{index}.utilization").set(
                busy_s[pid] / elapsed
            )
    return evaluated
