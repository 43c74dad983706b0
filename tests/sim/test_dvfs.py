"""DVFS subsystem tests (governors, machine integration, energy)."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.kernel.task import reset_tid_counter
from repro.schedulers.cfs import CFSScheduler
from repro.sim.dvfs import (
    DVFSPolicy,
    OndemandGovernor,
    PerformanceGovernor,
    PowersaveGovernor,
    energy_of_dvfs,
)
from repro.sim.machine import Machine, MachineConfig
from repro.sim.topology import make_topology
from tests.conftest import make_simple_task

FREE = dict(context_switch_cost=0.0, migration_cost=0.0)


def dvfs_machine(policy, n_big=1, n_little=1, **extra):
    return Machine(
        make_topology(n_big, n_little),
        CFSScheduler(),
        MachineConfig(seed=0, dvfs=policy, **dict(FREE, **extra)),
    )


class TestGovernors:
    def test_performance_always_max(self):
        governor = PerformanceGovernor()
        assert governor.choose_scale(0.0) == 1.0
        assert governor.choose_scale(1.0) == 1.0

    def test_powersave_always_floor(self):
        governor = PowersaveGovernor()
        assert governor.choose_scale(1.0) == governor.min_scale

    def test_ondemand_races_to_max(self):
        governor = OndemandGovernor(up_threshold=0.8)
        assert governor.choose_scale(0.9) == 1.0
        assert governor.choose_scale(0.8) == 1.0

    def test_ondemand_scales_with_load(self):
        governor = OndemandGovernor(up_threshold=0.8, min_scale=0.4)
        assert governor.choose_scale(0.4) == pytest.approx(0.5)
        assert governor.choose_scale(0.0) == 0.4  # floored

    def test_ondemand_validation(self):
        with pytest.raises(SimulationError):
            OndemandGovernor(up_threshold=0.0)
        with pytest.raises(SimulationError):
            OndemandGovernor(min_scale=1.5)

    def test_policy_period_validated(self):
        with pytest.raises(SimulationError):
            DVFSPolicy(period_ms=0.0)


class TestMachineIntegration:
    def test_powersave_slows_execution_proportionally(self):
        fast = dvfs_machine(None, n_big=1, n_little=0)
        fast.add_task(make_simple_task(work=50.0))
        t_full = fast.run().makespan

        policy = DVFSPolicy(
            big_governor=PowersaveGovernor(), period_ms=1.0
        )
        slow = dvfs_machine(policy, n_big=1, n_little=0)
        slow.add_task(make_simple_task(work=50.0))
        t_slow = slow.run().makespan
        # The first millisecond runs at full speed, then 0.4x.
        assert t_slow > t_full * 2.0
        assert t_slow < t_full / PowersaveGovernor().min_scale + 2.0

    def test_ondemand_keeps_busy_cluster_fast(self):
        policy = DVFSPolicy(
            big_governor=OndemandGovernor(up_threshold=0.5), period_ms=2.0
        )
        machine = dvfs_machine(policy, n_big=1, n_little=0)
        machine.add_task(make_simple_task(work=30.0))
        result = machine.run()
        # A fully busy core stays at scale 1.0: no slowdown beyond epsilon.
        assert result.makespan == pytest.approx(30.0, rel=0.05)

    def test_residency_recorded_per_scale(self):
        policy = DVFSPolicy(
            big_governor=PowersaveGovernor(), period_ms=5.0
        )
        machine = dvfs_machine(policy, n_big=1, n_little=0)
        machine.add_task(make_simple_task(work=20.0))
        result = machine.run()
        residency = result.core_busy_by_scale[0]
        assert set(residency) == {1.0, PowersaveGovernor().min_scale}
        assert sum(residency.values()) == pytest.approx(
            result.core_busy_time[0]
        )

    def test_residency_pinned(self):
        # Exact residency and makespan of a two-cluster run with ondemand
        # and powersave scaling: residency bookkeeping may not move a bit.
        reset_tid_counter()
        policy = DVFSPolicy(
            big_governor=OndemandGovernor(up_threshold=0.9, min_scale=0.4),
            little_governor=PowersaveGovernor(),
            period_ms=3.0,
        )
        machine = Machine(
            make_topology(2, 1), CFSScheduler(),
            MachineConfig(seed=3, dvfs=policy),
        )
        for i, work in enumerate((12.0, 7.0, 5.0, 20.0)):
            machine.add_task(make_simple_task(f"t{i}", work=work, chunks=3))
        result = machine.run()
        assert result.core_busy_by_scale == {
            0: {1.0: 15.015},
            1: {
                1.0: 18.0,
                0.5583333333333333: 3.0,
                0.5555555555555556: 7.947000000000003,
            },
            2: {1.0: 3.0, 0.4: 13.585296934865898},
        }
        assert result.makespan == 28.947000000000003

    def test_work_conserved_across_frequency_changes(self):
        policy = DVFSPolicy(
            big_governor=PowersaveGovernor(),
            little_governor=PowersaveGovernor(),
            period_ms=3.0,
        )
        machine = dvfs_machine(policy, n_big=1, n_little=1)
        tasks = [make_simple_task(f"t{i}", work=10.0, app_id=i) for i in range(3)]
        for task in tasks:
            machine.add_task(task)
        machine.run()
        for task in tasks:
            assert task.work_done == pytest.approx(10.0, rel=1e-6)

    def test_set_frequency_validation(self):
        machine = dvfs_machine(None)
        with pytest.raises(SimulationError):
            machine.set_core_frequency(machine.cores[0], 0.0, 0.0)
        with pytest.raises(SimulationError):
            machine.set_core_frequency(machine.cores[0], 1.5, 0.0)

    def test_no_dvfs_config_means_nominal_speed(self):
        machine = dvfs_machine(None, n_big=1, n_little=0)
        machine.add_task(make_simple_task(work=10.0))
        assert machine.run().makespan == pytest.approx(10.0)


class TestDVFSEnergy:
    def test_downscaling_saves_energy_cubically(self):
        def run_with(governor):
            policy = DVFSPolicy(big_governor=governor, period_ms=1.0)
            machine = dvfs_machine(policy, n_big=1, n_little=0)
            machine.add_task(make_simple_task(work=30.0))
            result = machine.run()
            return result, machine.topology

        full_result, topo = run_with(PerformanceGovernor())
        slow_result, _ = run_with(PowersaveGovernor())
        full_energy = energy_of_dvfs(full_result, topo)
        slow_energy = energy_of_dvfs(slow_result, topo)
        # 0.4^3 active power over 1/0.4 the time: ~0.16x active energy,
        # plus idle; powersave must come out well below performance.
        assert slow_energy < full_energy * 0.6

    def test_energy_positive_and_finite(self):
        policy = DVFSPolicy(period_ms=5.0)
        machine = dvfs_machine(policy)
        machine.add_task(make_simple_task(work=10.0))
        result = machine.run()
        energy = energy_of_dvfs(result, machine.topology)
        assert energy > 0
