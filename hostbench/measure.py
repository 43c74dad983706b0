"""One benchmark process: set up the program, run one workload, check it.

``run.py`` starts this module once per process it needs; to run it by
hand, from the repository root::

    python3 -m hostbench.measure MODE --workload NAME --seed N [--seconds S]

Modes:

* ``warmup``  -- import everything the benchmark uses (compiles bytecode,
  fills the page cache), untimed;
* ``setup``   -- time ``import repro``, training the speedup model and
  building the context;
* ``measure`` -- ``setup``, then whole sweeps until ``--seconds`` have
  passed (at least the workload's ``timed_sweeps``), each checked against
  the stored digests;
* ``trace``   -- ``setup``, one untraced sweep of the workload's traced
  part, then the same sweep under cProfile; writes the per-layer report
  to ``.hostbench-out/``;
* ``record``  -- ``setup`` and one sweep; writes the expected digests of
  the input seed to ``hostbench/expected/``.

The last line of standard output is one JSON object.  Each sweep starts
from a fresh context (cold in-process caches), a fresh persistent cache
directory where the workload uses one, and task id 1, so every run of
the fixed run order has the same task ids, digests and event counts.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import heapq
import json
import pathlib
import pstats
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from hostbench.layers import LayerMap, NullSpans, Spans, call_count
from hostbench.layers import inclusive_time, layer_self_time
from hostbench.workloads import SCALE, WORKLOADS, Workload, expected_path

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = pathlib.Path(__file__).resolve().parent
OUT_DIR = ROOT / ".hostbench-out"

#: Digests are stored truncated to this many hex digits (64 bits).
DIGEST_CHARS = 16

#: Layers reported as ``<layer>.self_s`` per-layer metrics.
SELF_TIME_LAYERS = (
    "sim.engine", "sim.machine", "sim.core", "sim.counters", "obs.attribution",
    "kernel.rbtree", "kernel.runqueue", "kernel.futex", "kernel.sync",
    "kernel.task", "schedulers", "core", "model.speedup", "workloads",
    "experiments", "sanitize.schedsan", "obs.tracer", "obs.timeseries",
    "obs.exporters",
)


#: Nominal seconds of one :func:`reference_kernel` call.  Sweep and run
#: times are reported as ``wall * KERNEL_REF_S / kernel time measured
#: beside them``: host seconds at a fixed reference speed, so that the
#: shared host's speed drift (often 10-25 % over a minute) cancels while
#: any change to the program still shows in full.
KERNEL_REF_S = 0.0035

#: Kernel calls on each side of a timed set-up.
SETUP_KERNEL_CALLS = 10

#: Kernel samples (one per point) around a run that set its speed.
KERNEL_WINDOW = 9


class _Item:
    __slots__ = ("time", "owner", "weight")

    def __init__(self, time: float, owner: int, weight: float) -> None:
        self.time = time
        self.owner = owner
        self.weight = weight

    def charge(self, amount: float) -> float:
        self.weight += amount
        return self.weight


def reference_kernel() -> float:
    """Seconds taken by a fixed pure-Python event loop independent of ``repro``.

    It uses the simulator's staple operations -- slotted objects, heap
    pushes and pops of tuples, dict updates, method calls, float sums --
    so host slowdowns that hit the simulator hit it too, while changes
    to the program cannot change it.
    """
    # Collections would charge the caller's heap to the kernel.
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        heap: list = []
        totals: dict = {}
        now = 0.0
        for i in range(2500):
            item = _Item(now + (i * 7919 % 101) * 0.01, i % 37, 0.0)
            heapq.heappush(heap, (item.time, i, item))
            if len(heap) > 64:
                now, _, item = heapq.heappop(heap)
                key = (item.owner, i & 7)
                totals[key] = totals.get(key, 0.0) + item.charge(now * 0.5)
        return time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()


class Program:
    """The program's public entry points; constructing it imports them."""

    def __init__(self) -> None:
        if str(ROOT / "src") not in sys.path:
            sys.path.insert(0, str(ROOT / "src"))
        import repro
        from repro.experiments.runner import (
            ExperimentContext,
            evaluate_mix,
            run_mix_once,
        )
        from repro.kernel.task import reset_tid_counter
        from repro.model.training import train_speedup_model
        from repro.obs.attribution import link_decisions
        from repro.obs.context import ObsConfig
        from repro.obs.exporters import to_chrome_trace
        from repro.obs.tracer import EventKind
        from repro.parallel.cache import ResultCache
        from repro.sim.digest import run_digest
        from repro.workloads.mixes import MIXES

        self.package_dir = pathlib.Path(repro.__file__).resolve().parent
        self.ExperimentContext = ExperimentContext
        self.evaluate_mix = evaluate_mix
        self.run_mix_once = run_mix_once
        self.reset_tid_counter = reset_tid_counter
        self.train_speedup_model = train_speedup_model
        self.link_decisions = link_decisions
        self.observe = ObsConfig(trace=True, metrics=True)
        self.to_chrome_trace = to_chrome_trace
        self.EventKind = EventKind
        self.ResultCache = ResultCache
        self.run_digest = run_digest
        self.MIXES = MIXES
        self.model = None


def set_up(seed: int) -> tuple[Program, dict]:
    """Import the program, train the model and build a context, timed.

    ``setup_ref_s`` is ``setup_s`` at reference speed, from
    :data:`SETUP_KERNEL_CALLS` kernel calls on each side of the set-up.
    """
    gc.collect()
    kernel_s = [reference_kernel() for _ in range(SETUP_KERNEL_CALLS)]
    started = time.perf_counter()
    program = Program()
    imported = time.perf_counter()
    program.model, _ = program.train_speedup_model()
    trained = time.perf_counter()
    program.ExperimentContext(seed=seed, work_scale=SCALE, estimator=program.model)
    built = time.perf_counter()
    kernel_s += [reference_kernel() for _ in range(SETUP_KERNEL_CALLS)]
    return program, {
        "setup_s": built - started,
        "setup_ref_s": (built - started) * KERNEL_REF_S / statistics.mean(kernel_s),
        "import_s": imported - started,
        "train_s": trained - imported,
    }


class TimedCache:
    """Delegating ``result_cache``: times every load and store of a point."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.load_s = 0.0
        self.loads = 0
        self.hits = 0
        self.store_s = 0.0
        self.stores = 0

    def load(self, fingerprint: str):
        started = time.perf_counter()
        point = self.inner.load(fingerprint)
        self.load_s += time.perf_counter() - started
        self.loads += 1
        self.hits += point is not None
        return point

    def store(self, fingerprint: str, metrics, material: dict) -> None:
        started = time.perf_counter()
        self.inner.store(fingerprint, metrics, material)
        self.store_s += time.perf_counter() - started
        self.stores += 1


def point_digest(metrics) -> str:
    """Digest of one evaluation point's ``MixMetrics`` (floats via repr)."""
    material = (
        metrics.mix_index, metrics.config, metrics.scheduler, metrics.h_antt,
        metrics.h_stp, metrics.makespan, list(metrics.turnarounds.items()),
    )
    return hashlib.sha256(repr(material).encode()).hexdigest()[:DIGEST_CHARS]


def missing_events(program: Program, events: list, document: dict) -> int:
    """Trace events of a run that its exported Chrome document lacks.

    Every DISPATCH must open a run slice (same start, core and task),
    every DESCHEDULE must close one, and every other kind must appear as
    an instant of that kind at its time, core and task.
    """
    kind = program.EventKind
    have: Counter = Counter()
    for record in document["traceEvents"]:
        if record.get("pid") != 0:
            continue
        if record["ph"] == "X":
            have["start", record["ts"], record["tid"], record["args"]["tid"]] += 1
            end = round(record["ts"] + record["dur"], 3)
            have["end", end, record["tid"], record["args"]["tid"]] += 1
        elif record["ph"] == "i":
            tid = record["args"].get("tid")
            have[record["name"], record["ts"], record["tid"], tid] += 1
    want: Counter = Counter()
    for event in events:
        if event.kind is kind.DISPATCH:
            want["start", event.time * 1000.0, event.core_id, event.tid] += 1
        elif event.kind is kind.DESCHEDULE:
            end = round(event.time * 1000.0, 3)
            want["end", end, event.core_id, event.tid] += 1
        else:
            core = event.core_id if event.core_id is not None else 0
            want[event.kind.value, event.time * 1000.0, core, event.tid] += 1
    return sum((want - have).values())


class Checker:
    """Compares each run and point with its stored digest (or records it)."""

    def __init__(self, expected: dict | None) -> None:
        self.expected = expected
        self.runs: list[str] = []
        self.points: list[str] = []
        self.failed: set[int] = set()
        self.problems: list[str] = []

    def fail(self, runs: tuple[int, ...], why: str) -> None:
        self.failed.update(runs)
        self.problems.append(why)

    def run(self, index: int, digest: str, label: str) -> None:
        self.runs.append(digest)
        if self.expected is not None and self.expected["runs"][index] != digest:
            self.fail((index,), f"run {index} {label}: digest {digest} != stored")

    def point(self, index: int, digest: str, label: str) -> None:
        self.points.append(digest)
        if self.expected is not None and self.expected["points"][index] != digest:
            self.fail(
                (2 * index, 2 * index + 1),
                f"point {index} {label}: digest {digest} != stored",
            )


@dataclass
class Sweep:
    """What one sweep measured (host seconds unless named otherwise)."""

    sweep_s: float = 0.0
    #: Wall seconds of each run that completed, by run index.
    run_s: dict[int, float] = field(default_factory=dict)
    #: Sum of run makespans, simulated seconds.
    sim_s: float = 0.0
    #: (point index, MixMetrics) of every point computed.
    points: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    cache: TimedCache | None = None
    cache_dir: pathlib.Path | None = None
    #: Seconds of each :func:`reference_kernel` call, one after every point.
    kernel_s: list[float] = field(default_factory=list)
    #: ``run_s`` at reference speed, each scaled by the median kernel
    #: sample of the :data:`KERNEL_WINDOW` points around it.
    run_ref_s: dict[int, float] = field(default_factory=dict)
    #: The cache wrapper of the warm re-read (dense only).
    reread: TimedCache | None = None


def sweep(
    program: Program,
    workload: Workload,
    seed: int,
    checker: Checker,
    spans=NullSpans(),
    unprofiled=nullcontext,
) -> Sweep:
    """Run every simulation of ``workload`` once, in order, from cold caches.

    Each run is checked right after it; the time spent checking (inside
    ``unprofiled()``, which pauses a profiler if one runs) is left out of
    ``sweep_s``.
    """
    out = Sweep()
    if workload.persistent_cache:
        OUT_DIR.mkdir(exist_ok=True)
        out.cache_dir = pathlib.Path(tempfile.mkdtemp(prefix="cache-", dir=OUT_DIR))
        out.cache = TimedCache(program.ResultCache(out.cache_dir))
    program.reset_tid_counter()
    gc.collect()
    checking = 0.0
    started = time.perf_counter()
    ctx = program.ExperimentContext(
        seed=seed, work_scale=SCALE, estimator=program.model, result_cache=out.cache
    )
    for index, (mix_name, config, scheduler) in enumerate(workload.points()):
        mix = program.MIXES[mix_name]
        ok = True
        for order, big_first in enumerate((True, False)):
            run_index = 2 * index + order
            label = f"{mix_name}/{config}/{scheduler}/{'big' if big_first else 'little'}-first"
            began = time.perf_counter()
            try:
                with spans.span("run"):
                    if workload.observed:
                        result, document, encoded = observed_run(
                            program, ctx, mix, config, scheduler, big_first, spans
                        )
                    else:
                        result = program.run_mix_once(
                            ctx, mix, config, scheduler, big_first
                        )
            except Exception:  # a run that raises is a failed run, not a crash
                checker.fail((run_index,), f"run {run_index} {label}: "
                             + traceback.format_exc(limit=3))
                ok = False
                continue
            out.run_s[run_index] = time.perf_counter() - began
            out.sim_s += result.makespan / 1000.0
            tally(out.counts, result, workload.observed)
            with unprofiled():
                began = time.perf_counter()
                checker.run(run_index, program.run_digest(result)[:DIGEST_CHARS], label)
                if workload.observed:
                    out.counts["obs.trace.events"] += len(result.events)
                    out.counts["obs.export.bytes"] += len(encoded)
                    lost = missing_events(program, result.events, document)
                    if lost:
                        checker.fail((run_index,), f"run {run_index} {label}: "
                                     f"export lacks {lost} trace events")
                    del document, encoded
                checking += time.perf_counter() - began
        with unprofiled():
            began = time.perf_counter()
            out.kernel_s.append(reference_kernel())
            checking += time.perf_counter() - began
        if workload.observed or not ok:
            continue
        try:
            with spans.span("point"):
                metrics = program.evaluate_mix(ctx, mix_name, config, scheduler)
        except Exception:
            checker.fail((2 * index, 2 * index + 1), f"point {index}: "
                         + traceback.format_exc(limit=3))
            continue
        with unprofiled():
            began = time.perf_counter()
            out.points.append((index, metrics))
            checker.point(index, point_digest(metrics), f"{mix_name}/{config}/{scheduler}")
            checking += time.perf_counter() - began
    out.sweep_s = time.perf_counter() - started - checking
    half = KERNEL_WINDOW // 2
    out.run_ref_s = {
        run: wall * KERNEL_REF_S
        / statistics.median(out.kernel_s[max(0, run // 2 - half):run // 2 + half + 1])
        for run, wall in out.run_s.items()
    }
    return out


def observed_run(program, ctx, mix, config, scheduler, big_first, spans):
    """One fully observed run, exported, JSON-encoded and decision-linked."""
    with spans.span("simulate"):
        result = program.run_mix_once(
            ctx, mix, config, scheduler, big_first,
            obs=program.observe, sanitize=True, timeseries=True,
        )
    with spans.span("export"):
        document = program.to_chrome_trace(
            result.events, metadata=result.trace_metadata,
            end_time=result.makespan, task_tracks=True,
            timeseries=result.timeseries,
        )
    with spans.span("encode"):
        encoded = json.dumps(document)
    with spans.span("link"):
        program.link_decisions(
            result.events, metadata=result.trace_metadata, end_time=result.makespan
        )
    return result, document, encoded


def tally(counts: Counter, result, observed: bool) -> None:
    """Add a run's engine counters (and published prediction-cache counters)."""
    counts["sim.engine.events_processed"] += result.events_processed
    counts["sim.engine.events_discarded"] += result.events_discarded
    counts["sim.engine.events_suppressed"] += result.events_suppressed
    if observed:
        published = result.metrics.get("counters", {})
        counts["pred_cache.hits"] += published.get("model.pred_cache.hits", 0)
        counts["pred_cache.misses"] += published.get("model.pred_cache.misses", 0)


def reread(program: Program, seed: int, done: Sweep, checker: Checker) -> TimedCache:
    """A fresh context must read every point of ``done`` back from disk."""
    cache = TimedCache(program.ResultCache(done.cache_dir))
    ctx = program.ExperimentContext(
        seed=seed, work_scale=SCALE, estimator=program.model, result_cache=cache
    )
    for index, cold in done.points:
        warm = program.evaluate_mix(ctx, cold.mix_index, cold.config, cold.scheduler)
        if warm != cold or point_digest(warm) != point_digest(cold):
            checker.fail((2 * index, 2 * index + 1),
                         f"point {index}: warm re-read differs from the cold result")
    if cache.hits != len(done.points):
        checker.fail((), f"warm re-read hit {cache.hits} of {len(done.points)} points")
    return cache


def checked_sweep(
    program: Program, workload: Workload, seed: int, expected: dict | None
) -> tuple[Sweep, Checker]:
    """:func:`sweep`, then the warm re-read of its persistent cache."""
    checker = Checker(expected)
    done = sweep(program, workload, seed, checker)
    if done.cache_dir is not None:
        try:
            if done.points:
                done.reread = reread(program, seed, done, checker)
        finally:
            shutil.rmtree(done.cache_dir, ignore_errors=True)
    return done, checker


def load_expected(workload: Workload, seed: int) -> dict:
    """The stored digests of ``workload`` at ``seed``, checked for shape.

    ``workload`` may be the traced part of a named workload; its runs come
    first, so it gets the leading digests.
    """
    full = WORKLOADS[workload.name]
    path = expected_path(workload.name, seed)
    expected = json.loads(path.read_text())
    n_points = 0 if full.observed else len(full.points())
    if (
        expected["scale"] != SCALE
        or len(expected["runs"]) != len(full.runs())
        or len(expected["points"]) != n_points
    ):
        raise SystemExit(f"{path} does not match the workload definition")
    return {
        **expected,
        "runs": expected["runs"][:len(workload.runs())],
        "points": expected["points"][:len(workload.points())],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class GcClock:
    """Sums garbage-collection pauses while installed in ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._began = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._began = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._began

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def run_samples(workload: Workload, sweeps: list[Sweep]) -> list[float]:
    """One reference-speed time per run, from the first ``timed_sweeps`` sweeps.

    Each run repeats once per timed sweep; its median over them drops
    brief host stalls that would otherwise set the tail.  Later sweeps
    are left out, so the estimator does not change with the host's or
    the program's speed.
    """
    timed = sweeps[:workload.timed_sweeps]
    return [
        statistics.median(times)
        for run in range(len(workload.runs()))
        if (times := [done.run_ref_s[run] for done in timed if run in done.run_ref_s])
    ]


def mode_measure(workload: Workload, seed: int, seconds: float) -> dict:
    """Set up, then sweep until ``seconds`` have passed.

    At least ``workload.timed_sweeps`` sweeps run; exactly those set the
    run-time samples, while every sweep feeds ``sweep_s``.
    """
    program, setup = set_up(seed)
    expected = load_expected(workload, seed)
    sweeps: list[Sweep] = []
    failed = 0
    problems: list[str] = []
    started = time.perf_counter()
    while len(sweeps) < workload.timed_sweeps or time.perf_counter() - started < seconds:
        done, checker = checked_sweep(program, workload, seed, expected)
        sweeps.append(done)
        failed += len(checker.failed)
        problems += checker.problems
    return {
        "setup": setup,
        "sweep_s": [done.sweep_s for done in sweeps],
        "sim_s": [done.sim_s for done in sweeps],
        "sweep_ref_s": [
            done.sweep_s * KERNEL_REF_S / statistics.mean(done.kernel_s)
            for done in sweeps
        ],
        "kernel_ms": statistics.mean(k for done in sweeps for k in done.kernel_s) * 1e3,
        "run_ref_s": run_samples(workload, sweeps),
        "attempted": len(workload.runs()) * len(sweeps),
        "failed": failed,
        "problems": problems[:20],
        "peak_rss_mb": peak_rss_mb(),
    }


@dataclass
class Profiled:
    """One checked sweep under cProfile, with its self time per layer."""

    done: Sweep
    checker: Checker
    stats: dict
    layers: dict[str, float]
    #: Profiled seconds; the layers sum to it.
    total_s: float

    def table(self) -> list[dict]:
        return [
            {"layer": name, "self_s": value, "share": value / self.total_s}
            for name, value in sorted(self.layers.items(), key=lambda kv: -kv[1])
        ]


def profiled_sweep(
    program: Program, workload: Workload, seed: int, layer_of, spans: Spans
) -> Profiled:
    """:func:`sweep` under cProfile, paused while runs are checked."""
    profiler = cProfile.Profile()

    @contextmanager
    def unprofiled():
        profiler.disable()
        try:
            yield
        finally:
            profiler.enable()

    checker = Checker(load_expected(workload, seed))
    profiler.enable()
    try:
        with spans.span(workload.name):
            done = sweep(program, workload, seed, checker, spans, unprofiled)
    finally:
        profiler.disable()
    if done.cache_dir is not None:
        shutil.rmtree(done.cache_dir, ignore_errors=True)
    stats = pstats.Stats(profiler).stats
    return Profiled(
        done, checker, stats, layer_self_time(stats, layer_of),
        sum(entry[2] for entry in stats.values()),
    )


def mode_trace(workload: Workload, seed: int) -> dict:
    """One untraced and one profiled sweep; the per-layer metrics and report.

    Both sweeps run the workload's traced part (:meth:`Workload.traced`).
    """
    program, setup = set_up(seed)
    part = workload.traced()
    with GcClock() as gc_clock:
        plain, plain_check = checked_sweep(program, part, seed, load_expected(part, seed))
    spans = Spans()
    layer_of = LayerMap(str(program.package_dir), str(BENCH_DIR))
    traced = profiled_sweep(program, part, seed, layer_of, spans)
    metrics = layer_metrics(layer_of, setup, plain, traced, gc_clock)
    report = {
        "workload": workload.name,
        "seed": seed,
        "runs": len(part.runs()),
        "workload_runs": len(workload.runs()),
        "total_s": traced.total_s,
        "layer_sum_s": sum(traced.layers.values()),
        "layers": traced.table(),
        "spans": spans.summary(),
        "metrics": metrics,
    }
    report_path = write_report(report)
    return {
        "metrics": metrics,
        "attempted": len(part.runs()),
        "failed": len(plain_check.failed | traced.checker.failed),
        "problems": (plain_check.problems + traced.checker.problems)[:20],
        "report": str(report_path.relative_to(ROOT)),
    }


def layer_metrics(layer_of, setup, plain: Sweep, traced: Profiled, gc_clock) -> dict:
    """The per-layer metrics named in README.md, from one trace run."""
    stats, counts = traced.stats, traced.done.counts
    processed = counts["sim.engine.events_processed"]
    discarded = counts["sim.engine.events_discarded"]
    lookups = counts["pred_cache.hits"] + counts["pred_cache.misses"]
    hooks = ("select_core", "pick_next", "check_preempt_wakeup")
    metrics = {"import_s": setup["import_s"], "model.training.s": setup["train_s"]}
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = traced.layers.get(layer, 0.0)
    metrics.update({
        "sim.engine.events_processed": processed,
        "sim.engine.events_discarded": discarded,
        "sim.engine.events_suppressed": counts["sim.engine.events_suppressed"],
        "sim.engine.useful_ratio": processed / (processed + discarded),
        "sim.counters.record_calls": call_count(
            stats, layer_of, "sim.counters", ("record_compute", "record_wait")
        ),
        "kernel.runqueue.enqueue_calls": call_count(
            stats, layer_of, "kernel.runqueue", ("enqueue",)
        ),
        "kernel.runqueue.dequeue_calls": call_count(
            stats, layer_of, "kernel.runqueue", ("dequeue",)
        ),
        "kernel.runqueue.pick_calls": call_count(
            stats, layer_of, "kernel.runqueue", ("pop_min", "peek_min", "best")
        ),
        "schedulers.hook_calls": call_count(stats, layer_of, "schedulers", hooks)
        + call_count(stats, layer_of, "core", hooks),
        "model.pred_cache.hit_ratio": (
            counts["pred_cache.hits"] / lookups if lookups else 0.0
        ),
        "metrics.baselines.s": inclusive_time(
            stats, layer_of, "metrics.baselines", "_measure"
        ),
        "metrics.baselines.runs": call_count(
            stats, layer_of, "metrics.baselines", ("_measure",)
        ),
        "parallel.cache.store_ms": per_call_ms(plain.cache, "store"),
        "parallel.cache.load_ms": per_call_ms(plain.reread, "load"),
        "obs.trace.events": counts["obs.trace.events"],
        "obs.export.bytes": counts["obs.export.bytes"],
        "python.gc_s": gc_clock.seconds,
        "trace.overhead_ratio": (
            traced.done.sweep_s / statistics.mean(traced.done.kernel_s)
            / (plain.sweep_s / statistics.mean(plain.kernel_s))
        ),
        "trace.total_s": traced.total_s,
    })
    return metrics


def per_call_ms(cache: TimedCache | None, op: str) -> float:
    """Mean milliseconds per ``op`` ("load"/"store") through ``cache``."""
    if cache is None:
        return 0.0
    calls = getattr(cache, op + "s")
    return getattr(cache, op + "_s") / calls * 1000.0 if calls else 0.0


def write_report(report: dict) -> pathlib.Path:
    """Write the trace report as JSON and as a Markdown table; return the JSON path."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"trace-{report['workload']}-seed{report['seed']}"
    json_path = stem.with_suffix(".json")
    json_path.write_text(json.dumps(report, indent=1) + "\n")
    lines = [
        f"# Traced run: {report['workload']}, seed {report['seed']}, "
        f"{report['runs']} of {report['workload_runs']} runs",
        "",
        f"Traced total {report['total_s']:.3f} s; layers sum to "
        f"{report['layer_sum_s']:.3f} s; trace.overhead_ratio "
        f"{report['metrics']['trace.overhead_ratio']:.2f}.",
        "",
        "| layer | self s | share |",
        "|---|---:|---:|",
    ]
    lines += [
        f"| {row['layer']} | {row['self_s']:.3f} | {row['share']:.1%} |"
        for row in report["layers"]
    ]
    lines += ["", "| metric | value |", "|---|---:|"]
    lines += [f"| {name} | {value:.6g} |" for name, value in report["metrics"].items()]
    stem.with_suffix(".md").write_text("\n".join(lines) + "\n")
    return json_path


def mode_record(workload: Workload, seed: int) -> dict:
    """Write the expected digests of ``workload`` at ``seed``."""
    program, _ = set_up(seed)
    done, checker = checked_sweep(program, workload, seed, None)
    if checker.problems:
        raise SystemExit("not recording a failing sweep:\n" + "\n".join(checker.problems))
    path = expected_path(workload.name, seed)
    path.write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "scale": SCALE,
        "runs": checker.runs,
        "points": checker.points,
    }, indent=0) + "\n")
    return {"recorded": str(path.relative_to(ROOT)), "runs": len(checker.runs)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m hostbench.measure")
    parser.add_argument(
        "mode", choices=("warmup", "setup", "measure", "trace", "record")
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "warmup":
        Program()
        result: dict = {"warm": True}
    elif args.mode == "setup":
        result = set_up(args.seed)[1]
    elif args.mode == "measure":
        result = mode_measure(workload, args.seed, args.seconds)
    elif args.mode == "trace":
        result = mode_trace(workload, args.seed)
    else:
        result = mode_record(workload, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
