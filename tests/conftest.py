"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernel.task import Task, reset_tid_counter
from repro.obs.probe import FanOut
from repro.parallel.cache import CACHE_DIR_ENV
from repro.schedulers.cfs import CFSScheduler
from repro.sim.counters import MicroArchProfile
from repro.sim.machine import Machine, MachineConfig
from repro.sim.topology import make_topology
from repro.workloads.actions import Compute


@pytest.fixture(scope="session", autouse=True)
def _session_cache_dir(tmp_path_factory):
    """Point the default persistent cache at a session temp directory.

    Default-argument training stores its training set there, so the suite
    never reads or writes the user's ``~/.cache/repro``.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(CACHE_DIR_ENV, str(tmp_path_factory.mktemp("repro-cache")))
        yield


@pytest.fixture(autouse=True)
def _fresh_tids():
    """Keep task ids deterministic within each test."""
    reset_tid_counter()
    yield


#: A neutral latent profile (speedup ~= 1.75) used where the exact value
#: does not matter.
NEUTRAL_PROFILE = MicroArchProfile(
    ilp=0.5, branchiness=0.4, store_pressure=0.3,
    mem_bound=0.3, frontend_stall=0.2, quiesce=0.2,
)

#: A strongly core-sensitive profile (speedup near the ceiling).
FAST_PROFILE = MicroArchProfile(
    ilp=0.95, branchiness=0.5, store_pressure=0.7,
    mem_bound=0.02, frontend_stall=0.05, quiesce=0.1,
)

#: A core-insensitive (memory-bound) profile (speedup near 1.0).
SLOW_PROFILE = MicroArchProfile(
    ilp=0.05, branchiness=0.2, store_pressure=0.05,
    mem_bound=0.95, frontend_stall=0.6, quiesce=0.2,
)


def compute_only(work: float, speedup: float | None = None, chunks: int = 1):
    """Generator emitting ``chunks`` equal compute segments."""
    for _ in range(chunks):
        yield Compute(work / chunks, speedup=speedup)


def make_simple_task(
    name: str = "t",
    work: float = 10.0,
    app_id: int = 0,
    profile: MicroArchProfile = NEUTRAL_PROFILE,
    speedup: float | None = None,
    chunks: int = 1,
) -> Task:
    """A task that just computes ``work`` and exits."""
    return Task(
        name=name,
        app_id=app_id,
        actions=compute_only(work, speedup, chunks),
        profile=profile,
    )


class CountingCFS(CFSScheduler):
    """CFS declaring it reads counters, so the machine builds them."""

    reads_counters = True


def make_machine(
    n_big: int = 1,
    n_little: int = 1,
    scheduler=None,
    seed: int = 0,
    **config_kwargs,
) -> Machine:
    """A small machine with a CFS scheduler by default."""
    return Machine(
        make_topology(n_big, n_little),
        scheduler if scheduler is not None else CFSScheduler(),
        MachineConfig(seed=seed, **config_kwargs),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def observer_of(machine: Machine, cls: type):
    """The observer of type ``cls`` behind ``machine.probe``, or ``None``."""
    probe = machine.probe
    members = probe.probes if isinstance(probe, FanOut) else (probe,)
    for member in members:
        if isinstance(member, cls):
            return member
    return None
