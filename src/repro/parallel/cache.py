"""Persistent, content-addressed on-disk cache of evaluation points.

Every figure in the paper regroups the same 26 x 4 x 3 sweep, and each
process used to pay the full simulation cost again.  :class:`ResultCache`
stores one :class:`~repro.experiments.runner.MixMetrics` per evaluation
point under a fingerprint that covers the experiment parameters, the
estimator identity, and a hash of the source tree (see
:mod:`repro.parallel.fingerprint`), so entries self-invalidate whenever
the code changes -- stale results are simply never addressed again.

Bit-identity: payloads are JSON; Python serialises floats via ``repr``
and parses them back with exact ``float64`` round-trip, so a cache hit
reproduces the computed metrics bit-for-bit.  Writes are atomic
(``os.replace`` of a same-directory temp file), making concurrent
writers -- parallel sweep parents, several CLI runs -- safe: the worst
case is both computing the same point and one overwriting the other with
identical bytes.
"""

from __future__ import annotations

import json
import os
import pathlib

from repro.errors import ExperimentError
from repro.experiments.runner import MixMetrics

#: Environment override for the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return pathlib.Path(override)
    return pathlib.Path.home() / ".cache" / "repro"


class ResultCache:
    """Directory-backed map ``fingerprint -> MixMetrics``.

    Layout: ``<root>/points/<aa>/<fingerprint>.json`` where ``aa`` is the
    first byte of the fingerprint (keeps directories small).  Each file
    records the full key material next to the payload so entries are
    auditable and debuggable with nothing but ``cat``.

    Args:
        root: Cache directory (created lazily on first store).
        metrics: Optional :class:`repro.obs.MetricsRegistry`; hit / miss /
            store counts are published as ``cache.persistent.*`` counters.
    """

    def __init__(self, root: str | pathlib.Path, metrics=None) -> None:
        self.root = pathlib.Path(root)
        self._points = self.root / "points"
        self._hits = metrics.counter("cache.persistent.hits") if metrics else None
        self._misses = (
            metrics.counter("cache.persistent.misses") if metrics else None
        )
        self._stores = (
            metrics.counter("cache.persistent.stores") if metrics else None
        )

    # ------------------------------------------------------------------
    def _path_for(self, fingerprint: str) -> pathlib.Path:
        return self._points / fingerprint[:2] / f"{fingerprint}.json"

    def load(self, fingerprint: str) -> MixMetrics | None:
        """The cached point, or ``None`` on miss or unreadable entry."""
        path = self._path_for(fingerprint)
        try:
            point = json.loads(path.read_text(encoding="utf-8"))["point"]
            metrics = MixMetrics(
                mix_index=point["mix_index"],
                config=point["config"],
                scheduler=point["scheduler"],
                h_antt=point["h_antt"],
                h_stp=point["h_stp"],
                makespan=point["makespan"],
                turnarounds=dict(point["turnarounds"]),
            )
        except (OSError, ValueError, LookupError, TypeError):
            # A missing, torn or foreign file is a miss, not an error: the
            # caller recomputes and the next store overwrites it atomically.
            if self._misses is not None:
                self._misses.inc()
            return None
        if self._hits is not None:
            self._hits.inc()
        return metrics

    def store(
        self, fingerprint: str, metrics: MixMetrics, material: dict
    ) -> None:
        """Atomically persist ``metrics`` under ``fingerprint``."""
        path = self._path_for(fingerprint)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ExperimentError(
                f"cannot create cache directory {path.parent}: {exc}"
            ) from exc
        payload = {
            "schema": material.get("schema", 1),
            "key": material,
            "point": {
                "mix_index": metrics.mix_index,
                "config": metrics.config,
                "scheduler": metrics.scheduler,
                "h_antt": metrics.h_antt,
                "h_stp": metrics.h_stp,
                "makespan": metrics.makespan,
                "turnarounds": metrics.turnarounds,
            },
        }
        tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
        # No sort_keys: ``turnarounds`` insertion order is part of the
        # result (reports render programs in mix order), and JSON objects
        # round-trip it.  Fingerprint canonicalisation sorts separately.
        try:
            tmp.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
            os.replace(tmp, path)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise ExperimentError(
                f"cannot write cache entry {path}: {exc}"
            ) from exc
        if self._stores is not None:
            self._stores.inc()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of cached points on disk (walks the directory)."""
        if not self._points.is_dir():
            return 0
        return sum(1 for _ in self._points.glob("*/*.json"))
