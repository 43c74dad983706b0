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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.model.pca import select_counters
from repro.model.regression import LinearRegression
from repro.model.speedup import LearnedSpeedupModel
from repro.schedulers.cfs import CFSScheduler
from repro.sim.counters import counter_names, wide_vector
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


def train_speedup_model(
    seed: int = 1234,
    work_scale: float = 0.35,
    n_cores: int = 4,
    n_selected: int = 6,
    benchmarks: list[str] | None = None,
    replicas: int = 4,
) -> tuple[LearnedSpeedupModel, TrainingReport]:
    """Run the full Table 2 pipeline: collect, select, normalise, regress."""
    samples = collect_training_set(
        seed=seed,
        work_scale=work_scale,
        n_cores=n_cores,
        benchmarks=benchmarks,
        replicas=replicas,
    )
    names = counter_names()
    matrix = np.stack([s.counters for s in samples])
    targets = np.array([s.speedup for s in samples])

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
        n_samples=len(samples),
        r2=regression.r2_,
        residual_std=regression.residual_std_,
        mae=mae,
    )
    return model, report


_DEFAULT_MODEL: tuple[LearnedSpeedupModel, TrainingReport] | None = None


def default_speedup_model() -> LearnedSpeedupModel:
    """The lazily trained, process-cached model the harness uses."""
    global _DEFAULT_MODEL
    if _DEFAULT_MODEL is None:
        _DEFAULT_MODEL = train_speedup_model()
    return _DEFAULT_MODEL[0]


def default_training_report() -> TrainingReport:
    """The report backing :func:`default_speedup_model` (trains if needed)."""
    global _DEFAULT_MODEL
    if _DEFAULT_MODEL is None:
        _DEFAULT_MODEL = train_speedup_model()
    return _DEFAULT_MODEL[1]
