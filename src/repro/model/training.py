"""Offline training of the speedup model (the paper's Table 2 pipeline).

"To construct the training set, we run all applications in single-program
mode with two symmetric configurations, using either only little cores or
only big cores.  We first record all 225 performance counters of the
simulated big cores and the relative speedup between the two
configurations.  ...  we apply Principal Component Analysis to select the
six performance counters with the largest effect ...  We then normalize
all counters to the number of committed instructions and use linear
regression to build the final model."

This module performs exactly those steps against our simulator:

1. :func:`collect_training_set` runs every benchmark alone on an all-big
   and an all-little machine and records, per thread, the 225-counter
   vector from the big run plus the measured big-vs-little execution-rate
   ratio (the per-thread relative speedup);
2. :func:`train_speedup_model` selects six counters with PCA, normalises
   by committed instructions, fits the linear regression, and returns the
   runtime :class:`~repro.model.speedup.LearnedSpeedupModel` together with
   a :class:`TrainingReport` from which the Table 2 regeneration bench
   prints its rows.

Step 1 is most of the cost (120 simulations at the defaults) and a pure
function of the source tree, numpy and its arguments, so its output is
stored in the persistent cache directory as ``training/<sha256>.npz``,
keyed by :func:`training_key_material`.  Step 2 runs in every process,
so a stored set gives the model and report a fresh collection would.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import json
import os
import pathlib
import warnings
import zipfile
from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.model.pca import select_counters
from repro.model.regression import LinearRegression
from repro.model.speedup import LearnedSpeedupModel
from repro.schedulers.cfs import CFSScheduler
from repro.sim.counters import WIDE_VECTOR_SIZE, counter_names, wide_vector
from repro.sim.machine import Machine, MachineConfig
from repro.sim.topology import make_topology
from repro.workloads.benchmarks import BENCHMARKS, instantiate_benchmark
from repro.workloads.programs import ProgramEnv

#: Ignore threads with less CPU time than this (ms): their rates are noise.
MIN_CPU_TIME = 2.0


class _CountingCFS(CFSScheduler):
    """CFS that declares it reads counters: training needs their totals."""

    reads_counters = True


@dataclass
class TrainingSample:
    """One per-thread training observation."""

    benchmark: str
    thread_name: str
    #: Full 225-counter vector from the big-cores run.
    counters: np.ndarray
    #: Measured big-vs-little execution-rate ratio (the target).
    speedup: float


@dataclass
class TrainingReport:
    """Everything the Table 2 regeneration needs."""

    selected_counters: list[str]
    model: LearnedSpeedupModel
    n_samples: int
    r2: float
    residual_std: float
    #: Mean absolute error of the final model on the training set.
    mae: float


def _rates_and_counters(
    benchmark: str, n_cores: int, big: bool, seed: int, work_scale: float
) -> dict[str, tuple[float, dict[str, float]]]:
    """Run ``benchmark`` alone on a symmetric machine.

    Returns per-thread ``name -> (execution rate, lifetime counters)``,
    where the rate is work retired per CPU millisecond.
    """
    topology = make_topology(n_cores if big else 0, 0 if big else n_cores)
    machine = Machine(topology, _CountingCFS(), MachineConfig(seed=seed))
    env = ProgramEnv.for_machine(machine, work_scale=work_scale)
    spec = BENCHMARKS[benchmark]
    instance = instantiate_benchmark(
        benchmark, env, app_id=0, n_threads=spec.default_threads
    )
    machine.add_program(instance)
    machine.run()
    observations: dict[str, tuple[float, dict[str, float]]] = {}
    for task in machine.tasks:
        cpu = task.sum_exec_runtime
        if cpu < MIN_CPU_TIME:
            continue
        observations[task.name] = (task.work_done / cpu, dict(task.counters.totals))
    return observations


def collect_training_set(
    seed: int = 1234,
    work_scale: float = 0.35,
    n_cores: int = 4,
    benchmarks: list[str] | None = None,
    replicas: int = 4,
) -> list[TrainingSample]:
    """Gather per-thread (counters, measured speedup) samples.

    Args:
        seed: Seed for both symmetric runs and the distractor noise.
        work_scale: Training runs are shrunk; counter *rates* are
            scale-invariant so the model is unaffected.
        n_cores: Core count of each symmetric machine.
        benchmarks: Subset to train on (default: all of Table 3).
        replicas: Independent run pairs per benchmark.  Each replica draws
            fresh thread profiles and jitter, widening the sampled
            speedup range; with 225 candidate counters the selection
            stage needs a few hundred samples to reject spuriously
            correlated distractors.
    """
    names = benchmarks if benchmarks is not None else sorted(BENCHMARKS)
    noise_rng = np.random.default_rng(seed)
    samples: list[TrainingSample] = []
    for replica in range(replicas):
        base_seed = seed + 1000 * replica
        for benchmark in names:
            big = _rates_and_counters(benchmark, n_cores, True, base_seed, work_scale)
            little = _rates_and_counters(
                benchmark, n_cores, False, base_seed + 1, work_scale
            )
            for thread_name, (big_rate, counters) in big.items():
                if thread_name not in little:
                    continue
                little_rate = little[thread_name][0]
                if little_rate <= 0:
                    continue
                samples.append(
                    TrainingSample(
                        benchmark=benchmark,
                        thread_name=thread_name,
                        counters=wide_vector(counters, noise_rng),
                        speedup=big_rate / little_rate,
                    )
                )
    if len(samples) < 10:
        raise ModelError(f"only {len(samples)} training samples collected")
    return samples


#: Bump when the stored training-set layout or its key material changes shape.
TRAINING_SCHEMA = 1

#: ``train_speedup_model``'s default ``cache_dir``: the persistent cache
#: directory (:func:`repro.parallel.cache.default_cache_dir`).
DEFAULT_CACHE_DIR = object()


def training_key_material(**collect_kwargs) -> dict:
    """Everything a :func:`collect_training_set` call's output depends on.

    The source tree and numpy (its RNG streams draw the distractor
    counters) plus every argument of the call, defaults filled in.
    """
    from repro.parallel.fingerprint import source_tree_hash

    bound = inspect.signature(collect_training_set).bind(**collect_kwargs)
    bound.apply_defaults()
    return {
        "schema": TRAINING_SCHEMA,
        "source_tree": source_tree_hash(),
        "numpy": np.__version__,
        "collect": dict(bound.arguments),
    }


def _load_training_set(
    path: pathlib.Path, key: str
) -> tuple[np.ndarray, np.ndarray] | None:
    """The stored ``(counter matrix, speedups)``, or ``None`` on a miss.

    A missing, torn or foreign file is a miss, not an error: the caller
    collects again and overwrites it.
    """
    try:
        with np.load(path, allow_pickle=False) as entry:
            if str(entry["key"]) != key:
                return None
            matrix = entry["counters"]
            targets = entry["speedups"]
            n_labels = len(entry["benchmarks"]), len(entry["threads"])
    except (OSError, EOFError, ValueError, LookupError, TypeError,
            zipfile.BadZipFile):
        # Missing, empty, not an archive (or a bare ``.npy``), torn, or
        # lacking a member.
        return None
    n_rows = len(targets)
    if (
        matrix.shape != (n_rows, WIDE_VECTOR_SIZE)
        or targets.shape != (n_rows,)
        or n_labels != (n_rows, n_rows)
    ):
        return None
    return matrix, targets


def _store_training_set(
    path: pathlib.Path, key: str, samples: list[TrainingSample],
    matrix: np.ndarray, targets: np.ndarray,
) -> None:
    """Atomically write one entry; a failure warns once and is not raised.

    The model is worth more than its memo: an unwritable cache directory
    costs the next process a retraining, nothing else.
    """
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as handle:
            np.savez(
                handle,
                key=np.array(key),
                counters=matrix,
                speedups=targets,
                benchmarks=np.array([s.benchmark for s in samples]),
                threads=np.array([s.thread_name for s in samples]),
            )
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        warnings.warn(f"speedup-model training set not cached at {path}: {exc}")


def _training_set(
    cache_dir: str | os.PathLike | None, collect_kwargs: dict
) -> tuple[np.ndarray, np.ndarray]:
    """``(counter matrix, speedups)``: loaded from ``cache_dir``, else collected.

    ``cache_dir=None`` neither reads nor writes a stored entry.
    """
    if cache_dir is not None:
        key = json.dumps(
            training_key_material(**collect_kwargs),
            sort_keys=True, separators=(",", ":"),
        )
        digest = hashlib.sha256(key.encode()).hexdigest()
        path = pathlib.Path(cache_dir) / "training" / f"{digest}.npz"
        loaded = _load_training_set(path, key)
        if loaded is not None:
            return loaded
    samples = collect_training_set(**collect_kwargs)
    matrix = np.stack([s.counters for s in samples])
    targets = np.array([s.speedup for s in samples])
    if cache_dir is not None:
        _store_training_set(path, key, samples, matrix, targets)
    return matrix, targets


def _train(
    cache_dir: str | os.PathLike | None, n_selected: int = 6, **collect_kwargs
) -> tuple[LearnedSpeedupModel, TrainingReport]:
    """Select, normalise and regress over the (possibly stored) samples.

    The fit always runs here, so a stored training set yields the model
    and report a fresh collection would, bit for bit.
    """
    matrix, targets = _training_set(cache_dir, collect_kwargs)
    names = counter_names()
    normalizer = "commit.committedInsts"
    selected = select_counters(
        matrix, names, k=n_selected, exclude={normalizer}, targets=targets
    )
    index_of = {name: i for i, name in enumerate(names)}
    insts = matrix[:, index_of[normalizer]]
    insts = np.where(insts > 0, insts, 1.0)
    features = np.stack(
        [matrix[:, index_of[name]] / insts for name in selected], axis=1
    )
    regression = LinearRegression().fit(features, targets)
    model = LearnedSpeedupModel(selected, regression, normalizer=normalizer)
    mae = float(np.mean(np.abs(regression.predict(features) - targets)))
    report = TrainingReport(
        selected_counters=selected,
        model=model,
        n_samples=len(targets),
        r2=regression.r2_,
        residual_std=regression.residual_std_,
        mae=mae,
    )
    return model, report


def train_speedup_model(
    seed: int = 1234,
    work_scale: float = 0.35,
    n_cores: int = 4,
    n_selected: int = 6,
    benchmarks: list[str] | None = None,
    replicas: int = 4,
    cache_dir: str | os.PathLike | None | object = DEFAULT_CACHE_DIR,
) -> tuple[LearnedSpeedupModel, TrainingReport]:
    """Run the full Table 2 pipeline: collect, select, normalise, regress.

    Args:
        cache_dir: Directory whose ``training/`` holds the collected
            training sets, keyed by :func:`training_key_material`.  The
            default is the persistent cache directory; ``None`` collects
            without reading or writing one.
        Others: as for :func:`collect_training_set`; ``n_selected`` is
            the number of counters PCA keeps.
    """
    if cache_dir is DEFAULT_CACHE_DIR:
        from repro.parallel.cache import default_cache_dir

        cache_dir = default_cache_dir()
    return _train(
        cache_dir,
        n_selected,
        seed=seed,
        work_scale=work_scale,
        n_cores=n_cores,
        benchmarks=benchmarks,
        replicas=replicas,
    )


_DEFAULT_MODEL: tuple[LearnedSpeedupModel, TrainingReport] | None = None


def _default_model(
    cache_dir: str | os.PathLike | None,
) -> tuple[LearnedSpeedupModel, TrainingReport]:
    """The process-cached default training (``cache_dir`` as in ``_train``).

    Takes the cache directory rather than resolving it, so the run path
    that trains the default model reads no environment.
    """
    global _DEFAULT_MODEL
    if _DEFAULT_MODEL is None:
        _DEFAULT_MODEL = _train(cache_dir)
    return _DEFAULT_MODEL


def default_speedup_model(
    cache_dir: str | os.PathLike | None = None,
) -> LearnedSpeedupModel:
    """The lazily trained, process-cached model the harness uses.

    ``cache_dir`` holds the stored training set (``None``: collect
    without one); every directory gives the same model.
    """
    return _default_model(cache_dir)[0]


def default_training_report(
    cache_dir: str | os.PathLike | None = None,
) -> TrainingReport:
    """The report backing :func:`default_speedup_model` (trains if needed)."""
    return _default_model(cache_dir)[1]
