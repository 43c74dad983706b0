"""Topology construction and core model tests."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.core import BIG_SPEC, LITTLE_SPEC, Core, CoreKind
from repro.sim.topology import (
    big_only_equivalent,
    little_only_equivalent,
    make_topology,
    standard_topologies,
)
from tests.conftest import FAST_PROFILE, SLOW_PROFILE, make_simple_task


class TestTopology:
    def test_counts(self):
        topo = make_topology(2, 4)
        assert topo.name == "2B4S"
        assert topo.n_big == 2
        assert topo.n_little == 4
        assert topo.n_cores == 6

    def test_big_first_ordering(self):
        topo = make_topology(2, 2, big_first=True)
        kinds = [s.kind for s in topo.specs]
        assert kinds == [CoreKind.BIG, CoreKind.BIG, CoreKind.LITTLE, CoreKind.LITTLE]

    def test_little_first_ordering(self):
        topo = make_topology(2, 2, big_first=False)
        kinds = [s.kind for s in topo.specs]
        assert kinds == [CoreKind.LITTLE, CoreKind.LITTLE, CoreKind.BIG, CoreKind.BIG]

    def test_with_order_keeps_mix(self):
        topo = make_topology(2, 4)
        flipped = topo.with_order(big_first=False)
        assert flipped.n_big == 2
        assert flipped.n_little == 4
        assert flipped.specs[0].kind is CoreKind.LITTLE
        assert flipped.name.endswith("-lf")

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            make_topology(0, 0)

    def test_build_cores_assigns_sequential_ids(self):
        cores = make_topology(1, 2).build_cores()
        assert [c.core_id for c in cores] == [0, 1, 2]
        assert cores[0].is_big
        assert not cores[1].is_big

    def test_core_kind_fields_follow_spec(self):
        topologies = []
        for topo in standard_topologies().values():
            topologies += [topo.with_order(True), topo.with_order(False)]
            topologies += [big_only_equivalent(topo), little_only_equivalent(topo)]
        for topo in topologies:
            for core in topo.build_cores():
                kind = core.spec.kind
                assert core.kind is kind
                assert core.is_big == (kind is CoreKind.BIG)
                assert core.kind_name == kind.value

    def test_standard_topologies_match_paper(self):
        topos = standard_topologies()
        assert set(topos) == {"2B2S", "2B4S", "4B2S", "4B4S"}
        assert topos["4B2S"].n_big == 4
        assert topos["4B2S"].n_little == 2

    def test_big_only_equivalent_preserves_core_count(self):
        for topo in standard_topologies().values():
            reference = big_only_equivalent(topo)
            assert reference.n_cores == topo.n_cores
            assert reference.n_little == 0

    def test_little_only_equivalent(self):
        reference = little_only_equivalent(make_topology(2, 2))
        assert reference.n_big == 0
        assert reference.n_cores == 4

    def test_str(self):
        assert str(make_topology(4, 4)) == "4B4S"


class TestCoreSpecs:
    def test_paper_big_core_parameters(self):
        assert BIG_SPEC.freq_ghz == 2.0
        assert BIG_SPEC.l1i_kb == 48
        assert BIG_SPEC.l2_kb == 2048
        assert BIG_SPEC.pipeline == "out-of-order"

    def test_paper_little_core_parameters(self):
        assert LITTLE_SPEC.freq_ghz == 1.2
        assert LITTLE_SPEC.l1i_kb == 32
        assert LITTLE_SPEC.l2_kb == 512
        assert LITTLE_SPEC.pipeline == "in-order"

    def test_kind_other(self):
        assert CoreKind.BIG.other is CoreKind.LITTLE
        assert CoreKind.LITTLE.other is CoreKind.BIG


class TestCoreRates:
    def test_big_core_reference_rate(self):
        core = Core(core_id=0, spec=BIG_SPEC)
        task = make_simple_task(profile=SLOW_PROFILE)
        assert core.rate_for(task) == 1.0

    def test_little_core_inverse_speedup(self):
        core = Core(core_id=0, spec=LITTLE_SPEC)
        fast = make_simple_task(profile=FAST_PROFILE)
        slow = make_simple_task(profile=SLOW_PROFILE)
        assert core.rate_for(fast) == pytest.approx(1.0 / FAST_PROFILE.speedup())
        assert core.rate_for(slow) > core.rate_for(fast)

    def test_little_rate_uses_segment_override(self):
        from repro.workloads.actions import Compute

        core = Core(core_id=0, spec=LITTLE_SPEC)
        task = make_simple_task(profile=FAST_PROFILE)
        task.current_segment = Compute(1.0, speedup=2.0)
        assert core.rate_for(task) == pytest.approx(0.5)

    def test_version_bump(self):
        core = Core(core_id=0, spec=BIG_SPEC)
        v0 = core.sched_version
        assert core.bump_version() == v0 + 1
        assert core.sched_version == v0 + 1

    def test_is_idle(self):
        core = Core(core_id=0, spec=BIG_SPEC)
        assert core.is_idle
        core.current = make_simple_task()
        assert not core.is_idle
