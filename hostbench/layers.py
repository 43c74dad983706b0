"""Per-layer host time: spans around the benchmark's calls, cProfile self time.

A *layer* is a module of the ``repro`` package, named by its dotted path
below ``repro`` (``sim.engine``, ``kernel.rbtree``, ...); the packages
``core``, ``schedulers``, ``workloads`` and ``experiments`` each count as
one layer.  The benchmark's own code is the ``bench`` layer.

cProfile charges self time to every function, including builtins and
stdlib/numpy code.  :func:`layer_self_time` charges such foreign self
time to the repo layer that called it (through any chain of foreign
callers), so the layers sum exactly to the profile's total.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Packages reported as one layer each.
COLLAPSED = frozenset({"core", "schedulers", "workloads", "experiments"})

#: Layer for foreign code reached from no repo or benchmark frame.
OTHER = "other"
BENCH = "bench"

#: cProfile function key: (filename, line, name).
Func = tuple[str, int, str]


@dataclass
class Spans:
    """In-memory span recorder: (name, start, end, parent index) records."""

    records: list[list] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.records)
        self.records.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.records[index][2] = time.perf_counter()

    def summary(self) -> dict[str, dict]:
        """Per span name: count, total seconds, and self seconds.

        Self time is a span's duration minus its direct children's.
        """
        child_time = defaultdict(float)
        for _, start, end, parent in self.records:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, start, end, _) in enumerate(self.records):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        return out


class NullSpans:
    """Span recorder that records nothing (untraced runs)."""

    @contextmanager
    def span(self, name: str):
        yield


class LayerMap:
    """Maps a cProfile filename to its layer, or ``None`` for foreign code."""

    def __init__(self, package_dir: str, bench_dir: str) -> None:
        self._package = package_dir.rstrip("/") + "/"
        self._bench = bench_dir.rstrip("/") + "/"

    def __call__(self, filename: str) -> str | None:
        if filename.startswith(self._package):
            parts = filename[len(self._package):].removesuffix(".py").split("/")
            if parts[0] in COLLAPSED:
                return parts[0]
            if parts[-1] == "__init__":
                parts = parts[:-1]
            return ".".join(parts) or "repro"
        if filename.startswith(self._bench):
            return BENCH
        return None


def layer_self_time(stats: dict, layer_of) -> dict[str, float]:
    """Self seconds per layer from ``pstats.Stats(...).stats``.

    ``stats`` maps func -> (cc, nc, tt, ct, callers) with callers mapping
    caller func -> (nc, cc, tt, ct) for that call edge.  A foreign
    function's self time is split over its callers by the edge's self
    time; a foreign caller passes its share on to its own callers in
    proportion to the inclusive time of each edge.  Cycles among foreign
    functions and foreign roots fall to :data:`OTHER`.
    """
    shares: dict[Func, dict[str, float]] = {}
    active: set[Func] = set()

    def share_of(func: Func) -> dict[str, float]:
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        if func in active:
            return {}
        active.add(func)
        edges = stats[func][4] if func in stats else {}
        result = _split(
            {caller: edge[3] for caller, edge in edges.items()},
            {caller: edge[0] for caller, edge in edges.items()},
            share_of,
        )
        active.discard(func)
        shares[func] = result
        return result

    totals: dict[str, float] = defaultdict(float)
    for func, (_, _, tt, _, callers) in stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            totals[layer] += tt
            continue
        split = _split(
            {caller: edge[2] for caller, edge in callers.items()},
            {caller: edge[0] for caller, edge in callers.items()},
            share_of,
        )
        for name, fraction in split.items():
            totals[name] += tt * fraction
    return dict(totals)


def _split(weights: dict, counts: dict, share_of) -> dict[str, float]:
    """Blend the callers' layer shares, weighted by ``weights`` (else counts)."""
    for basis in (weights, counts):
        mixed: dict[str, float] = defaultdict(float)
        total = 0.0
        for caller, weight in basis.items():
            if weight <= 0:
                continue
            share = share_of(caller)
            if not share:
                continue
            total += weight
            for name, fraction in share.items():
                mixed[name] += weight * fraction
        if total > 0:
            return {name: value / total for name, value in mixed.items()}
    return {OTHER: 1.0}


def call_count(stats: dict, layer_of, layer: str, names: tuple[str, ...]) -> int:
    """Calls of the functions called ``names`` defined in ``layer``."""
    return sum(
        entry[1]
        for func, entry in stats.items()
        if func[2] in names and layer_of(func[0]) == layer
    )


def inclusive_time(stats: dict, layer_of, layer: str, name: str) -> float:
    """Inclusive seconds of the (non-recursive) function ``name`` in ``layer``."""
    return sum(
        entry[3]
        for func, entry in stats.items()
        if func[2] == name and layer_of(func[0]) == layer
    )
