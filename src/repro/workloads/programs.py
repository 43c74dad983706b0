"""Program instantiation plumbing shared by all benchmark models.

A *program* is one application of a multi-programmed workload: a set of
tasks sharing synchronisation objects.  :class:`ProgramEnv` carries the
per-machine resources a model needs (the futex table its primitives park
on, the normal draws all stochastic structure derives from, and a global
work scale), and :class:`ProgramInstance` is the finished bundle handed to
:meth:`repro.sim.machine.Machine.add_program`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import WorkloadError
from repro.kernel.futex import FutexTable
from repro.kernel.task import Task
from repro.sim.counters import MicroArchProfile, profile_from_traits

#: Sentinel item that tells a pipe consumer to shut down.
POISON = "__poison__"


class ProgramEnv:
    """Resources available to workload builders.

    Attributes:
        futexes: The machine's futex table (primitives must park there so
            blocking feeds the criticality metric).
        work_scale: Multiplies every compute segment; lets the experiment
            harness shrink simulations uniformly without changing their
            relative structure.

    All structure jitter comes from :meth:`normal`, which serves the
    env's private generator (the ``rng`` argument) in blocks: one
    ``standard_normal(size=BLOCK)`` call per :data:`BLOCK` draws instead
    of one ``Generator.normal`` call per draw.  ``Generator.normal(loc,
    scale)`` is ``loc + scale * z`` for the next standard normal ``z`` of
    the same stream, so every draw, and its place in the stream, is
    unchanged.  That holds only while nothing else draws from the
    generator, which is why it is private.
    """

    #: Standard normals drawn per refill.
    BLOCK = 32

    __slots__ = ("futexes", "work_scale", "_rng", "_block", "_next")

    def __init__(
        self, futexes: FutexTable, rng: np.random.Generator, work_scale: float = 1.0
    ) -> None:
        self.futexes = futexes
        self.work_scale = work_scale
        self._rng = rng
        self._block: list[float] = []
        self._next = self.BLOCK

    @classmethod
    def for_machine(cls, machine, work_scale: float = 1.0) -> "ProgramEnv":
        """Build an env bound to ``machine``'s futex table and RNG."""
        return cls(
            futexes=machine.futexes,
            rng=np.random.default_rng(machine.rng.integers(0, 2**63)),
            work_scale=work_scale,
        )

    def normal(self, loc: float, scale: float) -> float:
        """The next draw of ``Generator.normal(loc, scale)``, bit for bit."""
        i = self._next
        if i == self.BLOCK:
            self._block = self._rng.standard_normal(size=self.BLOCK).tolist()
            i = 0
        self._next = i + 1
        return loc + scale * self._block[i]


@dataclass
class ProgramInstance:
    """One instantiated application: name + its tasks."""

    name: str
    app_id: int
    tasks: list[Task] = field(default_factory=list)

    @property
    def n_threads(self) -> int:
        return len(self.tasks)


@dataclass(frozen=True)
class Traits:
    """Benchmark-level behavioural traits in [0, 1] each.

    These drive both the latent micro-architectural profiles (hence the
    ground-truth core sensitivity) and nothing else -- synchronisation
    structure is explicit in the action streams.
    """

    compute_intensity: float
    memory_intensity: float
    sync_intensity: float

    def __post_init__(self) -> None:
        for name in ("compute_intensity", "memory_intensity", "sync_intensity"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise WorkloadError(f"trait {name}={value} outside [0,1]")


def make_profile(
    env: ProgramEnv, traits: Traits, jitter: float = 0.08
) -> MicroArchProfile:
    """Sample one thread's latent profile from benchmark traits."""
    return profile_from_traits(
        compute_intensity=traits.compute_intensity,
        memory_intensity=traits.memory_intensity,
        sync_intensity=traits.sync_intensity,
        rng=env,
        jitter=jitter,
    )


def make_task(
    env: ProgramEnv,
    name: str,
    app_id: int,
    traits: Traits,
    generator,
    profile: MicroArchProfile | None = None,
) -> Task:
    """Build a task with a (possibly overridden) sampled profile."""
    return Task(
        name=name,
        app_id=app_id,
        actions=generator,
        profile=profile if profile is not None else make_profile(env, traits),
    )


def jittered(env: ProgramEnv, work: float, sigma: float = 0.2) -> float:
    """Scaled work with lognormal jitter (never negative, mean ~= work)."""
    if work < 0:
        raise WorkloadError(f"negative work {work}")
    factor = float(np.exp(env.normal(-sigma * sigma / 2, sigma)))
    return work * env.work_scale * factor
