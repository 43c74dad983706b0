"""Cache-key fingerprints for evaluation points.

One persistent-cache entry corresponds to one *evaluation point* -- a
(mix, config, scheduler) triple, order-averaged over both core
enumerations exactly as :func:`repro.experiments.runner.evaluate_mix`
produces it.  The key is a SHA-256 over canonical JSON of everything the
outcome is a function of:

* the experiment parameters -- seed, work scale, mix index, hardware
  config, scheduler, and the fixed big-first/little-first order pair;
* the estimator identity (fitted coefficients for an explicit learned
  model, noise/seed for a pure oracle, or the "train with defaults"
  marker for the lazily trained default model);
* a hash of the simulator's own source tree, so any code change -- a
  scheduler tweak, an engine fix -- silently invalidates every stale
  entry instead of serving results the current code would not produce.

Estimators whose predictions depend on estimate-issue order (a noisy
oracle draws from a sequential RNG stream) have no stable fingerprint:
:func:`estimator_fingerprint` returns ``None`` and callers must skip the
persistent cache for them.

Observation is deliberately **not** key material: the context's metrics
registry and run ledger change nothing about the outcome, so a sweep
that records them must hit the same cache entries a plain one wrote.
:data:`TELEMETRY_EXCLUDED_FIELDS` names the excluded state for tests.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import TYPE_CHECKING

from repro.model.speedup import LearnedSpeedupModel, OracleSpeedupModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import ExperimentContext

#: Bump when the cached payload layout or key material changes shape.
SCHEMA_VERSION = 1

#: Context state that must never appear in key material or cached
#: payloads: the metrics registry describes an execution, not an outcome,
#: and the run ledger observes results after they exist and can never
#: influence them.
TELEMETRY_EXCLUDED_FIELDS = ("obs_metrics", "ledger")

#: MachineConfig knobs the experiment runner pins at their defaults for
#: every sweep point (it only ever varies seed/topology/scheduler).  A
#: change to a *default* changes source, so the source-tree hash already
#: invalidates stale entries; a runner change that starts varying one of
#: these must move it into the key material -- ANA002 will insist.
PINNED_CONFIG_FIELDS = (
    "context_switch_cost",
    "migration_cost",
    "max_actions_per_advance",
    "dvfs",
)

#: MachineConfig switches asserted digest-neutral: runs produce
#: bit-identical behavioural results with them on or off (the
#: observer-neutrality fuzz test and the tracer/schedsan/timeseries tests
#: pin this), so they must not fragment the cache key space.
PARITY_NEUTRAL_FIELDS = (
    "obs",
    "sanitize",
    "timeseries",
)

#: ExperimentContext state that selects an execution *strategy*, never an
#: outcome: worker counts and cache locations.  The serial==parallel
#: merge contract (DET003) is what keeps these out of the key
#: legitimately.
EXECUTION_EXCLUDED_FIELDS = ("jobs", "cache_dir", "result_cache")

_SOURCE_HASH: str | None = None


def _canonical(material: dict) -> str:
    return json.dumps(material, sort_keys=True, separators=(",", ":"))


def _is_source_file(relative: pathlib.PurePath) -> bool:
    """Real package source only: no bytecode caches, no editor droppings.

    ``__pycache__`` contents and hidden files (``.#mod.py`` Emacs locks,
    ``.mod.py.swp``-style artifacts) are not inputs to any computed
    result, so hashing them would churn cache keys on byte-identical
    source.
    """
    return not any(
        part == "__pycache__" or part.startswith(".") for part in relative.parts
    )


def source_tree_hash(root: pathlib.Path | None = None) -> str:
    """SHA-256 over every ``repro`` source file (cached per process).

    Hashes (relative path, content digest) pairs of all ``.py`` files
    under the installed ``repro`` package, in sorted path order, so the
    digest is stable across machines and checkouts of the same code.
    ``root`` overrides the package directory (for tests); only the
    default root's hash is cached.
    """
    global _SOURCE_HASH
    if root is None and _SOURCE_HASH is not None:
        return _SOURCE_HASH
    if root is None:
        import repro

        tree_root = pathlib.Path(repro.__file__).resolve().parent
    else:
        tree_root = root
    digest = hashlib.sha256()
    for path in sorted(tree_root.rglob("*.py")):
        relative = path.relative_to(tree_root)
        if not _is_source_file(relative):
            continue
        digest.update(relative.as_posix().encode())
        digest.update(b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    if root is None:
        _SOURCE_HASH = digest.hexdigest()
        return _SOURCE_HASH
    return digest.hexdigest()


def estimator_fingerprint(ctx: "ExperimentContext") -> str | None:
    """Stable identity of the context's speedup model, or ``None``.

    ``None`` means the estimator is order-sensitive (or of an unknown
    type) and results must not be served from or written to the
    persistent cache.
    """
    estimator = ctx.estimator
    if estimator is None:
        if ctx.use_learned_model:
            # The default model is fully determined by the training
            # defaults plus the source tree (already part of the key);
            # naming it symbolically lets a warm cache skip training.
            return "learned:default"
        # The lazily built default oracle carries noise -> order-sensitive.
        return None
    if isinstance(estimator, LearnedSpeedupModel):
        spec = _canonical(estimator.to_spec())
        return "learned:" + hashlib.sha256(spec.encode()).hexdigest()
    if isinstance(estimator, OracleSpeedupModel):
        if not estimator.is_pure:
            return None
        return f"oracle:pure:seed={estimator.seed}"
    return None


def point_key_material(
    ctx: "ExperimentContext", mix_index: str, config: str, scheduler: str
) -> dict | None:
    """Key material of one evaluation point, or ``None`` if uncacheable."""
    estimator_id = estimator_fingerprint(ctx)
    if estimator_id is None:
        return None
    return {
        "schema": SCHEMA_VERSION,
        "source_tree": source_tree_hash(),
        "seed": ctx.seed,
        "work_scale": ctx.work_scale,
        "estimator": estimator_id,
        "mix_index": mix_index,
        "config": config,
        "scheduler": scheduler,
        # One point averages both core enumerations (Section 5.1).
        "core_orders": ["big_first", "little_first"],
    }


def point_fingerprint(material: dict) -> str:
    """Content address (SHA-256 hex) of one point's key material."""
    return hashlib.sha256(_canonical(material).encode()).hexdigest()
