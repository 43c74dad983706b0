"""Core experiment runner with the paper's averaging methodology.

One *evaluation point* is (mix, topology, scheduler).  Following Section
5.1, every point is the average of two simulations that differ only in
core enumeration order (big cores first vs little cores first), because
initial round-robin placement -- and hence everything downstream -- depends
on it.

All runs share one :class:`ExperimentContext`, which carries the seed, the
work scale, the trained speedup model (WASH and COLAB share it, as in the
paper where both use the same performance-model machinery), the baseline
cache, and two bounded in-process caches so the figure drivers that
regroup the same 26 x 4 x 3 sweep (Figures 8 and 9) do not re-simulate
it.  A context may additionally carry a persistent on-disk cache
(:class:`repro.parallel.cache.ResultCache`) and a worker count, in which
case :func:`sweep` fans evaluation points out over a process pool with
deterministic merging (:mod:`repro.parallel.executor`).
"""

from __future__ import annotations

import pathlib
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Generic, TypeVar

from repro.errors import ExperimentError
from repro.metrics.baselines import BaselineCache
from repro.metrics.turnaround import h_antt, h_stp
from repro.model.speedup import OracleSpeedupModel, SpeedupEstimator
from repro.obs.metrics import Counter, MetricsRegistry
from repro.schedulers import SCHEDULER_NAMES, make_scheduler
from repro.sim.machine import Machine, MachineConfig, RunResult
from repro.sim.topology import Topology, make_topology, standard_topologies
from repro.workloads.mixes import MIXES, WorkloadMix
from repro.workloads.programs import ProgramEnv

#: Scheduler evaluation order used in every figure.
SCHEDULERS = ("linux", "wash", "colab")

#: The four hardware configurations of Section 5.1.
CONFIGS = ("2B2S", "2B4S", "4B2S", "4B4S")

#: One simulation: (mix index, config, scheduler, big-cores-first order).
RunKey = tuple[str, str, str, bool]
#: One evaluation point: (mix index, config, scheduler), order-averaged.
MetricsKey = tuple[str, str, str]

_K = TypeVar("_K")
_V = TypeVar("_V")


class BoundedCache(Generic[_K, _V]):
    """A small LRU map with hit/miss/eviction counters.

    The context's run and metrics caches used to be unbounded ``dict``s;
    a long-lived context (a bench session, a service) could grow them
    without limit.  The bound is sized so one full 26 x 4 x 3 campaign
    (624 runs, 312 points) still fits entirely -- eviction only kicks in
    beyond that -- and the counters publish into the context's
    :class:`~repro.obs.metrics.MetricsRegistry`.
    """

    def __init__(
        self, maxsize: int, hits: Counter, misses: Counter, evictions: Counter
    ) -> None:
        if maxsize < 1:
            raise ExperimentError(f"cache maxsize {maxsize} < 1")
        self.maxsize = maxsize
        self._data: OrderedDict[_K, _V] = OrderedDict()
        self.hits = hits
        self.misses = misses
        self.evictions = evictions

    def get(self, key: _K) -> _V | None:
        """The cached value (refreshing recency), or ``None`` on miss."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses.inc()
            return None
        self._data.move_to_end(key)
        self.hits.inc()
        return value

    def put(self, key: _K, value: _V) -> None:
        """Insert/refresh ``key``, evicting the least recent beyond bound."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions.inc()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: _K) -> bool:
        return key in self._data


@dataclass
class MixMetrics:
    """Metrics of one evaluation point (already order-averaged)."""

    mix_index: str
    config: str
    scheduler: str
    h_antt: float
    h_stp: float
    makespan: float
    #: app label -> order-averaged turnaround.
    turnarounds: dict[str, float]


@dataclass
class ExperimentContext:
    """Shared state of one experimental campaign.

    Args:
        seed: Master seed (workload structure, counter noise, ...).
        work_scale: Uniform shrink factor on all compute.  1.0 is the
            reference scale; the pytest benches use smaller values to keep
            wall time low without changing workload structure.
        estimator: Speedup model for WASH/COLAB.  ``None`` selects the
            paper-faithful trained model (lazily, cached per process);
            pass an :class:`~repro.model.speedup.OracleSpeedupModel` for
            the model ablation or for fast tests.
        jobs: Default worker-process count for :func:`sweep` and the
            figure drivers; 1 means serial execution in this process.
        cache_dir: Directory for the persistent on-disk result cache; the
            default ``None`` disables persistence (pass
            :func:`repro.parallel.cache.default_cache_dir` for the
            conventional location).
        result_cache: An explicit cache backend (anything with the
            :class:`repro.parallel.cache.ResultCache` ``load``/``store``
            surface); overrides ``cache_dir``.
    """

    #: In-process cache bounds; one full campaign (624 runs, 312 points)
    #: fits with headroom, so eviction only affects multi-campaign use.
    RUN_CACHE_SIZE = 1024
    METRICS_CACHE_SIZE = 512

    seed: int = 42
    work_scale: float = 1.0
    estimator: SpeedupEstimator | None = None
    use_learned_model: bool = True
    jobs: int = 1
    cache_dir: str | pathlib.Path | None = None
    result_cache: object | None = None
    obs_metrics: MetricsRegistry = field(
        default_factory=lambda: MetricsRegistry(enabled=True), repr=False
    )
    #: Optional append-only run ledger (:class:`repro.obs.ledger.Ledger`).
    #: When set, :func:`sweep` records every point (ledger semantics in
    #: its docstring).  Recording happens strictly after results exist
    #: and the field is excluded from cache fingerprints
    #: (``TELEMETRY_EXCLUDED_FIELDS``), so results are bit-identical with
    #: or without a ledger attached.
    ledger: object | None = field(default=None, repr=False)
    _run_cache: "BoundedCache[RunKey, RunResult]" = field(
        init=False, repr=False
    )
    _metrics_cache: "BoundedCache[MetricsKey, MixMetrics]" = field(
        init=False, repr=False
    )
    _baselines: BaselineCache | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self._baselines = BaselineCache(seed=self.seed, work_scale=self.work_scale)
        registry = self.obs_metrics
        self._run_cache = BoundedCache(
            self.RUN_CACHE_SIZE,
            registry.counter("ctx.run_cache.hits"),
            registry.counter("ctx.run_cache.misses"),
            registry.counter("ctx.run_cache.evictions"),
        )
        self._metrics_cache = BoundedCache(
            self.METRICS_CACHE_SIZE,
            registry.counter("ctx.metrics_cache.hits"),
            registry.counter("ctx.metrics_cache.misses"),
            registry.counter("ctx.metrics_cache.evictions"),
        )
        if self.result_cache is None and self.cache_dir is not None:
            from repro.parallel.cache import ResultCache

            self.result_cache = ResultCache(self.cache_dir, metrics=registry)

    # ------------------------------------------------------------------
    # Persistent-cache plumbing
    # ------------------------------------------------------------------
    def _point_entry(
        self, mix_index: str, config: str, scheduler: str
    ) -> tuple[str, dict] | None:
        """(fingerprint, key material) of a point, or None if uncacheable."""
        if self.result_cache is None:
            return None
        from repro.parallel.fingerprint import (
            point_fingerprint,
            point_key_material,
        )

        material = point_key_material(self, mix_index, config, scheduler)
        if material is None:
            return None
        return point_fingerprint(material), material

    def peek_metrics(
        self, mix_index: str, config: str, scheduler: str
    ) -> "MixMetrics | None":
        """Cached metrics of one point (in-process, then persistent)."""
        hit = self._metrics_cache.get((mix_index, config, scheduler))
        if hit is not None:
            return hit
        entry = self._point_entry(mix_index, config, scheduler)
        if entry is None:
            return None
        cached = self.result_cache.load(entry[0])
        if cached is not None:
            self._metrics_cache.put((mix_index, config, scheduler), cached)
        return cached

    def store_metrics(self, metrics: "MixMetrics") -> None:
        """Record one computed point in every cache layer it belongs in."""
        key = (metrics.mix_index, metrics.config, metrics.scheduler)
        self._metrics_cache.put(key, metrics)
        entry = self._point_entry(*key)
        if entry is not None:
            self.result_cache.store(entry[0], metrics, entry[1])

    # ------------------------------------------------------------------
    def get_estimator(self) -> SpeedupEstimator:
        """The shared runtime speedup model (train lazily if needed)."""
        if self.estimator is None:
            if self.use_learned_model:
                from repro.model.training import default_speedup_model

                self.estimator = default_speedup_model()
            else:
                self.estimator = OracleSpeedupModel(noise_std=0.1, seed=self.seed)
        return self.estimator

    def make_scheduler(self, name: str):
        """Fresh scheduler instance (schedulers are per-machine objects)."""
        if name.lower() not in SCHEDULER_NAMES:
            raise ExperimentError(
                f"unknown scheduler {name!r}; expected linux/wash/colab/gts"
            )
        if name in ("wash", "colab"):
            return make_scheduler(name, estimator=self.get_estimator())
        return make_scheduler(name)

    def topology(self, config: str, big_first: bool) -> Topology:
        base = standard_topologies().get(config)
        if base is None:
            raise ExperimentError(f"unknown config {config!r}; expected {CONFIGS}")
        return base.with_order(big_first)

    def baselines_for(self, mix: WorkloadMix, config: str) -> dict[str, float]:
        """Isolated big-only baselines for every app of ``mix``."""
        n_cores = standard_topologies()[config].n_cores
        return self._baselines.for_mix(mix, n_cores)

    def isolated_big_turnaround(self, benchmark: str, n_threads: int, n_cores: int) -> float:
        return self._baselines.isolated_turnaround(benchmark, n_threads, n_cores)


def run_mix_once(
    ctx: ExperimentContext,
    mix: WorkloadMix,
    config: str,
    scheduler_name: str,
    big_first: bool,
    obs=None,
    sanitize: bool = False,
    timeseries: bool = False,
) -> RunResult:
    """One simulation of ``mix`` on ``config`` under ``scheduler_name``.

    ``obs`` (a :class:`repro.obs.context.ObsConfig`, optional) enables
    tracing/metrics/profiling for this run.  ``sanitize`` enables the
    runtime scheduler sanitizer (schedsan); outcomes stay bit-identical
    but invariant violations raise :class:`repro.errors.SanitizerError`.
    ``timeseries`` enables the sim-time timeline sampler
    (:mod:`repro.obs.timeseries`); outcomes stay bit-identical and
    ``RunResult.timeseries`` carries the windowed series.  Observed,
    sanitized, and sampled runs bypass the context's result cache in both
    directions: instrumentation must not leak into the figure pipelines,
    and a cached bare result would lack the requested checking/series.
    """
    key = (mix.index, config, scheduler_name, big_first)
    cacheable = obs is None and not sanitize and not timeseries
    if cacheable:
        cached = ctx._run_cache.get(key)
        if cached is not None:
            return cached
    topology = ctx.topology(config, big_first)
    machine = Machine(
        topology,
        ctx.make_scheduler(scheduler_name),
        MachineConfig(
            seed=ctx.seed, obs=obs, sanitize=sanitize, timeseries=timeseries
        ),
    )
    env = ProgramEnv.for_machine(machine, work_scale=ctx.work_scale)
    for instance in mix.instantiate(env):
        machine.add_program(instance)
    result = machine.run()
    registry = ctx.obs_metrics
    if registry.enabled:
        # Fresh computation only -- cache hits above return early, so these
        # counters measure actual simulation work, not cache traffic.
        registry.counter("sim.events_processed").inc(result.events_processed)
        registry.counter("sim.events_discarded").inc(result.events_discarded)
        registry.counter("sim.events_suppressed").inc(result.events_suppressed)
    if cacheable:
        ctx._run_cache.put(key, result)
    return result


def evaluate_mix(
    ctx: ExperimentContext,
    mix_index: str,
    config: str,
    scheduler_name: str,
    sanitize: bool = False,
) -> MixMetrics:
    """Order-averaged H_ANTT / H_STP of one evaluation point.

    ``sanitize`` runs both orderings under schedsan and bypasses the
    metrics caches -- in-process and persistent -- in both directions
    (results are bit-identical either way, but a cached entry would skip
    the checking the caller asked for).
    """
    if not sanitize:
        cached = ctx.peek_metrics(mix_index, config, scheduler_name)
        if cached is not None:
            return cached
    return _evaluate_uncached(ctx, mix_index, config, scheduler_name, sanitize)


def _evaluate_uncached(
    ctx: ExperimentContext,
    mix_index: str,
    config: str,
    scheduler_name: str,
    sanitize: bool,
) -> MixMetrics:
    """Simulate both core orders of one point and store the result.

    The caller has already missed the metrics caches; a sanitized result
    is never stored.
    """
    mix = MIXES.get(mix_index)
    if mix is None:
        raise ExperimentError(f"unknown mix {mix_index!r}")

    per_order: list[dict[str, float]] = []
    makespans: list[float] = []
    for big_first in (True, False):
        result = run_mix_once(
            ctx, mix, config, scheduler_name, big_first, sanitize=sanitize
        )
        turnarounds = {
            result.app_names[app_id]: value
            for app_id, value in result.app_turnaround.items()
        }
        per_order.append(turnarounds)
        makespans.append(result.makespan)

    averaged = {
        app: (per_order[0][app] + per_order[1][app]) / 2 for app in per_order[0]
    }
    baselines = ctx.baselines_for(mix, config)
    metrics = MixMetrics(
        mix_index=mix_index,
        config=config,
        scheduler=scheduler_name,
        h_antt=h_antt(averaged, baselines),
        h_stp=h_stp(averaged, baselines),
        makespan=sum(makespans) / len(makespans),
        turnarounds=averaged,
    )
    if not sanitize:
        ctx.store_metrics(metrics)
    return metrics


def sweep(
    ctx: ExperimentContext,
    mix_indices: list[str],
    configs: tuple[str, ...] = CONFIGS,
    schedulers: tuple[str, ...] = SCHEDULERS,
    jobs: int | None = None,
    sanitize: bool = False,
    progress=None,
) -> list[MixMetrics]:
    """Evaluate the full cross product (cached, order-averaged).

    The one sweep pipeline: resolve every point the caches can answer
    (skipped when ``sanitize``), evaluate the rest, store them, and
    record every point in ``ctx.ledger`` in point order.  The only fork
    is where pending points run: in this process when the job count
    (``jobs``, else ``ctx.jobs``) is 1, otherwise on
    :func:`repro.parallel.executor.evaluate_on_pool`, whose output is
    merged in submission order and is bit-identical to the in-process
    path for pure estimators.

    ``progress`` (a :class:`repro.obs.progress.SweepProgress`, optional)
    is updated once per finished point on either path and finished at
    the end, also when a point fails; it only displays.

    Ledger rows: an evaluated point records its measured ``wall_s`` and
    ``cache_hit=False``; a cache hit records ``wall_s=None`` and
    ``cache_hit=True``; under ``sanitize`` (no cache lookup) every point
    records ``cache_hit=None``.
    """
    points = [
        (mix_index, config, scheduler)
        for mix_index in mix_indices
        for config in configs
        for scheduler in schedulers
    ]
    jobs = max(1, ctx.jobs if jobs is None else jobs)

    results: dict[MetricsKey, MixMetrics] = {}
    for point in () if sanitize else points:
        hit = ctx.peek_metrics(*point)
        if hit is not None:
            results[point] = hit
    pending = [point for point in points if point not in results]
    if progress is not None:
        progress.total = len(points)
        progress.update(len(results), force=True)

    try:
        if jobs > 1:
            from repro.parallel.executor import evaluate_on_pool

            evaluated = evaluate_on_pool(
                ctx, pending, jobs, sanitize, progress, from_cache=len(results)
            )
            if not sanitize:
                for metrics, _seconds in evaluated:
                    ctx.store_metrics(metrics)
        else:
            # Each point is stored as soon as it exists, so an interrupted
            # sweep keeps what it finished.
            evaluated = []
            for point in pending:
                started = time.perf_counter()
                metrics = _evaluate_uncached(ctx, *point, sanitize)
                evaluated.append((metrics, time.perf_counter() - started))
                if progress is not None:
                    progress.update(len(results) + len(evaluated))
    finally:
        # On an error the line stops at the points that finished, and
        # whatever is printed next starts a line of its own.
        if progress is not None:
            progress.finish(progress.done)
    wall_s: dict[MetricsKey, float] = {}
    for point, (metrics, seconds) in zip(pending, evaluated):
        results[point] = metrics
        wall_s[point] = seconds

    _record_ledger(ctx, points, results, wall_s, sanitize)
    return [results[point] for point in points]


def _record_ledger(
    ctx: ExperimentContext,
    points: list[MetricsKey],
    results: dict[MetricsKey, MixMetrics],
    wall_s: dict[MetricsKey, float],
    sanitize: bool,
) -> None:
    """Append every sweep point to ``ctx.ledger`` (if any), in point order.

    ``wall_s`` holds exactly the evaluated points; the rest were cache
    hits.  Runs strictly after results exist, so the ledger never touches
    results, caches, or fingerprints.
    """
    if ctx.ledger is None:
        return
    from repro.obs.ledger import record_point

    for point in points:
        record_point(
            ctx.ledger,
            ctx,
            results[point],
            wall_s=wall_s.get(point),
            cache_hit=None if sanitize else point not in wall_s,
        )
