"""ProgramEnv / Traits / helper tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.kernel.futex import FutexTable
from repro.sim.counters import profile_from_traits
from repro.workloads.programs import (
    ProgramEnv,
    ProgramInstance,
    Traits,
    jittered,
    make_profile,
    make_task,
)
from tests.conftest import make_machine


def env_with(seed=0, scale=1.0):
    return ProgramEnv(
        futexes=FutexTable(), rng=np.random.default_rng(seed), work_scale=scale
    )


class TestTraits:
    def test_valid_traits(self):
        traits = Traits(0.5, 0.5, 0.5)
        assert traits.compute_intensity == 0.5

    def test_out_of_range_rejected(self):
        with pytest.raises(WorkloadError):
            Traits(1.5, 0.5, 0.5)
        with pytest.raises(WorkloadError):
            Traits(0.5, -0.1, 0.5)


class TestEnv:
    def test_for_machine_binds_futex_table(self):
        machine = make_machine(1, 1)
        env = ProgramEnv.for_machine(machine, work_scale=0.5)
        assert env.futexes is machine.futexes
        assert env.work_scale == 0.5

    def test_for_machine_rng_derived_from_machine_seed(self):
        def draws(env):
            return [env.normal(0.0, 1.0) for _ in range(2 * ProgramEnv.BLOCK + 1)]

        e1 = ProgramEnv.for_machine(make_machine(1, 1, seed=3))
        e2 = ProgramEnv.for_machine(make_machine(1, 1, seed=3))
        assert draws(e1) == draws(e2)
        # The stream is the one a Generator seeded from the machine's RNG
        # gives, so another machine seed gives another stream.
        seed = make_machine(1, 1, seed=3).rng.integers(0, 2**63)
        reference = np.random.default_rng(seed)
        assert draws(ProgramEnv.for_machine(make_machine(1, 1, seed=3))) == [
            reference.normal(0.0, 1.0) for _ in range(2 * ProgramEnv.BLOCK + 1)
        ]
        assert draws(ProgramEnv.for_machine(make_machine(1, 1, seed=4))) != draws(e1)


#: (loc, scale) of every normal draw the workload models make: ``jittered``
#: at sigma 0.2 (default), 0.1 and 0.0; the imbalance weights; the
#: profile jitter at 0.08 (default) and 0.0.
WORKLOAD_NORMALS = (
    [(-s * s / 2, s) for s in (0.2, 0.1, 0.0)]
    + [(0.0, s) for s in (0.08, 0.12, 0.15, 0.2, 0.25, 0.35, 0.0)]
)


class TestBlockDraws:
    """``ProgramEnv.normal`` is the scalar ``Generator.normal``, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 11, 2**40 + 3])
    def test_draws_equal_scalar_generator_normal(self, seed):
        env = env_with(seed=seed)
        reference = np.random.default_rng(seed)
        # Several refills, and each pair at several offsets into a block.
        for i in range(5 * ProgramEnv.BLOCK + 7):
            loc, scale = WORKLOAD_NORMALS[i % len(WORKLOAD_NORMALS)]
            got = env.normal(loc, scale)
            want = reference.normal(loc, scale)
            assert type(got) is float
            # ``float.hex`` tells -0.0 from 0.0 and every last bit apart.
            # numpy computes ``loc + scale * z`` in C; a build that fuses
            # it into one FMA rounds once, not twice, and fails here.
            assert got.hex() == want.hex(), (i, loc, scale, got, want)

    def test_jittered_and_profiles_match_scalar_draws(self):
        env = env_with(seed=5)
        reference = np.random.default_rng(5)
        sigma = 0.2
        for _ in range(3 * ProgramEnv.BLOCK):
            want = 1.0 * float(np.exp(reference.normal(-sigma * sigma / 2, sigma)))
            assert jittered(env, 1.0, sigma=sigma) == want
        profile = make_profile(env, Traits(0.5, 0.4, 0.3))
        assert profile == profile_from_traits(0.5, 0.4, 0.3, reference, jitter=0.08)


class TestJittered:
    def test_scales_with_work_scale(self):
        env = env_with(scale=0.5)
        values = [jittered(env, 10.0, sigma=0.0) for _ in range(5)]
        assert all(v == pytest.approx(5.0) for v in values)

    def test_jitter_varies_but_stays_positive(self):
        env = env_with()
        values = [jittered(env, 1.0) for _ in range(200)]
        assert min(values) > 0
        assert len(set(values)) > 100

    def test_mean_preserving(self):
        env = env_with()
        values = [jittered(env, 1.0, sigma=0.2) for _ in range(4000)]
        assert np.mean(values) == pytest.approx(1.0, rel=0.05)

    def test_negative_rejected(self):
        with pytest.raises(WorkloadError):
            jittered(env_with(), -1.0)


class TestFactories:
    def test_make_profile_uses_traits(self):
        env = env_with()
        profile = make_profile(env, Traits(0.9, 0.1, 0.1), jitter=0.0)
        assert profile.ilp > 0.7
        assert profile.mem_bound < 0.2

    def test_make_task_default_profile(self):
        env = env_with()
        task = make_task(env, "t", 0, Traits(0.5, 0.5, 0.5), iter([]))
        assert task.name == "t"
        assert task.profile is not None

    def test_make_task_explicit_profile(self):
        from tests.conftest import FAST_PROFILE

        env = env_with()
        task = make_task(
            env, "t", 0, Traits(0.5, 0.5, 0.5), iter([]), profile=FAST_PROFILE
        )
        assert task.profile is FAST_PROFILE

    def test_program_instance_thread_count(self):
        env = env_with()
        tasks = [
            make_task(env, f"t{i}", 0, Traits(0.5, 0.5, 0.5), iter([]))
            for i in range(3)
        ]
        instance = ProgramInstance(name="p", app_id=0, tasks=tasks)
        assert instance.n_threads == 3
