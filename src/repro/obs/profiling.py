"""Wall-clock profiling of the simulator's host-side hot paths.

The simulated clock tells us nothing about where *host* CPU time goes;
before optimising the engine loop or the schedulers we need attribution.
:class:`Profiler` accumulates wall-clock time per named section:

* ``engine.run`` -- the whole event loop;
* ``engine.handle.<KIND>`` -- per-event-kind handler time;
* ``scheduler.pick_next`` / ``scheduler.select_core`` /
  ``scheduler.on_label_tick`` -- the policy callbacks;
* ``model.estimate`` -- runtime speedup-model predictions.

Profiling works by wrapping, not by branching: with
``ObsConfig(profile=True)`` the machine builds a :class:`Profiler` and
calls :meth:`Profiler.instrument` once at construction, which replaces those callables on the run's engine,
scheduler and estimator with timed wrappers.  It is the one facility that
does not sit behind the observer seam (:mod:`repro.obs.probe`), because
it times calls rather than observing state changes.  A run without
profiling builds no profiler and has no profiler call sites at all, so
unlike the observers (whose guards ``benchmarks/bench_observer_overhead.py``
bounds) it costs a plain run nothing.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable


class Profiler:
    """Accumulates wall-clock seconds per named section."""

    __slots__ = ("_totals", "_counts")

    def __init__(self) -> None:
        self._totals: dict[str, float] = {}
        self._counts: dict[str, int] = {}

    def stop(self, name: str, started: float) -> None:
        """Charge the time since ``started`` (a perf_counter) to ``name``."""
        elapsed = perf_counter() - started
        self._totals[name] = self._totals.get(name, 0.0) + elapsed
        self._counts[name] = self._counts.get(name, 0) + 1

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to charge each call's wall time to ``name``."""

        def wrapper(*args, **kwargs):
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.stop(name, started)

        return wrapper

    def instrument(self, machine) -> None:
        """Wrap ``machine``'s timed sections (see the module docstring).

        The estimator is shared between runs, so it is wrapped in a
        per-run proxy rather than patched in place.
        """
        engine = machine.engine
        engine.wrap_handlers(
            lambda kind, handler: self.timed(f"engine.handle.{kind.name}", handler)
        )
        engine.run = self.timed("engine.run", engine.run)
        scheduler = machine.scheduler
        for hook in ("pick_next", "select_core", "on_label_tick"):
            setattr(
                scheduler, hook,
                self.timed(f"scheduler.{hook}", getattr(scheduler, hook)),
            )
        proxies: dict[int, _TimedEstimator] = {}
        for holder in (scheduler, getattr(scheduler, "labeler", None)):
            estimator = getattr(holder, "estimator", None)
            if estimator is not None:
                if id(estimator) not in proxies:
                    proxies[id(estimator)] = _TimedEstimator(estimator, self)
                holder.estimator = proxies[id(estimator)]

    def snapshot(self) -> dict:
        """``name -> {total_s, count, mean_us}`` for every section."""
        out: dict[str, dict] = {}
        for name in sorted(self._totals):
            total = self._totals[name]
            count = self._counts[name]
            out[name] = {
                "total_s": total,
                "count": count,
                "mean_us": (total / count) * 1e6 if count else 0.0,
            }
        return out


class _TimedEstimator:
    """A speedup estimator whose ``estimate`` is timed as ``model.estimate``."""

    def __init__(self, inner, profiler: Profiler) -> None:
        self._inner = inner
        self.estimate = profiler.timed("model.estimate", inner.estimate)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)
