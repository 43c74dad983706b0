"""Process-pool evaluation of sweep points with deterministic merging.

:func:`repro.experiments.runner.sweep` resolves cached points, stores
results, and records the ledger; when it runs pending points on a pool
(``jobs > 1`` or telemetry attached) it hands them to
:func:`evaluate_on_pool`, which fans them out over a
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
* **Observational telemetry** -- with a
  :class:`repro.obs.dist.DistTelemetry` attached, each worker records
  spans and counter deltas per point and ships a
  :class:`~repro.obs.dist.PointTelemetry` bundle back alongside the
  result.  Bundles ride the same futures but never touch the merge keys,
  the caches, or the fingerprint, so telemetry-enabled sweeps return
  bit-identical results to plain ones.  Live progress polls futures in
  submission order with a timeout (display only; the merge is oblivious
  to which future finished first).

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
from repro.experiments.runner import ExperimentContext, MixMetrics, evaluate_mix
from repro.model.speedup import estimator_from_spec, estimator_to_spec
from repro.obs.dist import DistTelemetry, Point, PointTelemetry, point_label
from repro.obs.spans import SpanCollector

#: Worker-process context, built once per worker by :func:`_init_worker`.
_WORKER_CTX: ExperimentContext | None = None


def _init_worker(
    seed: int,
    work_scale: float,
    estimator_spec: dict,
    telemetry_ctx: dict | None = None,
) -> None:
    """Build the per-worker context from the parent's shipped state.

    ``telemetry_ctx`` (``{"trace_id": ...}``) propagates the sweep's
    trace id; when present the worker context gets its own
    :class:`~repro.obs.spans.SpanCollector` whose spans are drained into
    per-point bundles by :func:`_eval_point`.
    """
    global _WORKER_CTX
    _WORKER_CTX = ExperimentContext(
        seed=seed,
        work_scale=work_scale,
        estimator=estimator_from_spec(estimator_spec),
    )
    if telemetry_ctx is not None:
        _WORKER_CTX.spans = SpanCollector(
            actor=f"pid-{os.getpid()}",
            trace_id=telemetry_ctx.get("trace_id", ""),
        )


def _counter_snapshot(ctx: ExperimentContext) -> dict[str, float]:
    """Current counter values of the worker context's registry."""
    if not ctx.obs_metrics.enabled:
        return {}
    return dict(ctx.obs_metrics.snapshot().get("counters", {}))


def _eval_point(
    mix_index: str,
    config: str,
    scheduler: str,
    sanitize: bool,
    submit_s: float | None = None,
) -> tuple[MixMetrics, int, float, PointTelemetry | None]:
    """Worker task: one evaluation point plus utilisation bookkeeping.

    With telemetry enabled (a span collector on the worker context and a
    ``submit_s`` from the parent), also returns the point's telemetry
    bundle: the point span (wrapping the whole evaluation), any nested
    run spans / cache-hit marks, and the counter deltas this point caused
    (sim event totals, run-cache traffic, ...).
    """
    if _WORKER_CTX is None:  # pragma: no cover - initializer contract
        raise ExperimentError("worker context missing; pool not initialised")
    ctx = _WORKER_CTX
    started = time.perf_counter()
    spans = ctx.spans
    collect = spans is not None and spans.enabled and submit_s is not None
    if not collect:
        metrics = evaluate_mix(ctx, mix_index, config, scheduler, sanitize=sanitize)
        return metrics, os.getpid(), time.perf_counter() - started, None

    point = (mix_index, config, scheduler)
    before = _counter_snapshot(ctx)
    start_s = time.time()
    with spans.span(
        point_label(point), mix=mix_index, config=config, scheduler=scheduler
    ):
        metrics = evaluate_mix(ctx, mix_index, config, scheduler, sanitize=sanitize)
    end_s = time.time()
    after = _counter_snapshot(ctx)
    deltas = {
        name: value - before.get(name, 0.0)
        for name, value in after.items()
        if value != before.get(name, 0.0)
    }
    point_spans, point_events = spans.drain()
    bundle = PointTelemetry(
        point=point,
        pid=os.getpid(),
        submit_s=submit_s,
        start_s=start_s,
        end_s=end_s,
        spans=point_spans,
        events=point_events,
        counters=deltas,
    )
    return metrics, os.getpid(), time.perf_counter() - started, bundle


def _collect_with_progress(submitted, telemetry: DistTelemetry):
    """Drain futures in submission order, rendering live progress.

    Yields ``(point, result)`` strictly in submission order -- progress
    polling uses ``Future.result(timeout=...)`` on the *next* pending
    future, so completion order is display-only and can never reorder
    the merge (DET003).
    """
    progress = telemetry.progress
    live = progress is not None and progress.enabled
    done = len(telemetry.cached)
    if live:
        progress.update(done, force=True)
    for index, (point, future) in enumerate(submitted):
        while True:
            try:
                result = future.result(
                    timeout=progress.poll_interval_s if live else None
                )
                break
            except FutureTimeoutError:
                stragglers = tuple(
                    p for p, f in submitted[index:] if f.running()
                )
                progress.update(done, stragglers)
        done += 1
        if live:
            progress.update(done)
        yield point, result


def evaluate_on_pool(
    ctx: ExperimentContext,
    pending: list[Point],
    jobs: int,
    sanitize: bool,
    telemetry: DistTelemetry | None,
    from_cache: int,
) -> list[tuple[MixMetrics, float]]:
    """Evaluate ``pending`` on ``jobs`` workers; ``(metrics, wall_s)`` each.

    The output is in submission (= ``pending``) order.  Workers neither
    read nor write the parent's caches; the caller stores the results.
    Publishes the ``parallel.*`` metrics (``from_cache`` counts the points
    the caller resolved without the pool) and, with ``telemetry``, the
    worker bundles, the parent's orchestration spans and the pool
    accounting.
    """
    registry = ctx.obs_metrics
    registry.gauge("parallel.jobs").set(jobs)
    registry.counter("parallel.points_from_cache").inc(from_cache)
    if not pending:
        return []
    if telemetry is not None:
        spans = telemetry.parent
        telemetry_ctx = {"trace_id": telemetry.trace_id}
    else:
        spans = SpanCollector(actor="parent", enabled=False)
        telemetry_ctx = None

    # Train (or reuse) the model once in the parent; workers rebuild it
    # from the fitted spec instead of re-running the training pipeline.
    with spans.span("train_estimator"):
        estimator_spec = estimator_to_spec(ctx.get_estimator())
    initargs = (ctx.seed, ctx.work_scale, estimator_spec, telemetry_ctx)

    evaluated: list[tuple[MixMetrics, float]] = []
    busy_s: dict[int, float] = {}
    points_by_pid: dict[int, int] = {}
    started = time.perf_counter()
    with ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_worker, initargs=initargs
    ) as pool:
        with spans.span("submit", points=len(pending)):
            submitted = [
                (
                    point,
                    pool.submit(
                        _eval_point,
                        *point,
                        sanitize,
                        time.time() if telemetry is not None else None,
                    ),
                )
                for point in pending
            ]
        # Deterministic merge: collect by evaluation point in submission
        # order.  Completion order must never influence the output (or
        # anything else observable) -- see DET003.
        with spans.span("collect", points=len(pending)):
            if telemetry is not None:
                outcomes = _collect_with_progress(submitted, telemetry)
            else:
                outcomes = (
                    (point, future.result()) for point, future in submitted
                )
            for point, (metrics, pid, seconds, bundle) in outcomes:
                evaluated.append((metrics, seconds))
                busy_s[pid] = busy_s.get(pid, 0.0) + seconds
                points_by_pid[pid] = points_by_pid.get(pid, 0) + 1
                if bundle is not None:
                    telemetry.record_bundle(point, bundle)
    elapsed = time.perf_counter() - started

    if telemetry is not None:
        telemetry.record_pool(busy_s, points_by_pid, elapsed)
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
