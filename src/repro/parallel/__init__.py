"""repro.parallel: parallel sweep execution and the persistent result cache.

Public surface:

* :func:`repro.parallel.executor.evaluate_on_pool` -- the process pool
  behind :func:`repro.experiments.runner.sweep` for ``jobs > 1``, with
  deterministic, submission-ordered result merging;
* :class:`repro.parallel.cache.ResultCache` -- content-addressed on-disk
  cache of evaluation points, self-invalidating on code change;
* :func:`repro.parallel.cache.default_cache_dir` -- ``$REPRO_CACHE_DIR``
  or ``~/.cache/repro``;
* :mod:`repro.parallel.fingerprint` -- the cache-key material.

Most callers never import this package directly:
``ExperimentContext(jobs=4, cache_dir=...)`` or ``sweep(..., jobs=4)``
plus the figure drivers route through it automatically, as does
``python -m repro --jobs 4 ...``.
"""

from repro.parallel.cache import ResultCache, default_cache_dir
from repro.parallel.fingerprint import (
    estimator_fingerprint,
    point_fingerprint,
    point_key_material,
    source_tree_hash,
)

__all__ = [
    "ResultCache",
    "default_cache_dir",
    "estimator_fingerprint",
    "point_fingerprint",
    "point_key_material",
    "source_tree_hash",
]
