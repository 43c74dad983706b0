"""Pins the :func:`run_digest` recipe to literal hex values.

Hot-vs-reference parity compares two digests built with the same recipe,
so it cannot notice the recipe itself changing.  These literals can: any
change to what is hashed, or in which order, moves them (and with them
every stored digest under ``hostbench/expected/``).
"""

from __future__ import annotations

import pytest

from repro.kernel.task import Task
from repro.obs.context import ObsConfig
from repro.sim.digest import run_digest
from repro.sim.dvfs import DVFSPolicy, FrequencyGovernor, OndemandGovernor
from repro.workloads.actions import Compute, Sleep
from tests.conftest import (
    FAST_PROFILE,
    NEUTRAL_PROFILE,
    make_machine,
    make_simple_task,
)

TRACED = "1d2512acd8ec22b85c45f49c1756cd5fba10b016ad2f8177f51db2931c32b7fc"
UNTRACED = "7949b7502e189f47cadfa38c057d82156967897961e843da8354705b0e1cdd65"
DVFS = "b24234ff744c44138b81e6713f4d34a28edae97d6731ac496800cd665c91adc4"


@pytest.mark.parametrize(
    "obs, expected",
    [(ObsConfig(trace=True), TRACED), (None, UNTRACED)],
    ids=["traced", "untraced"],
)
def test_run_digest_literal(obs, expected):
    machine = make_machine(1, 1, obs=obs)
    for i, work in enumerate((10.0, 20.0, 30.0)):
        machine.add_task(make_simple_task(f"t{i}", work=work))
    assert run_digest(machine.run()) == expected


class SteppingGovernor(FrequencyGovernor):
    """Cycles 1.0, 0.6, 0.8 whatever the load, so running segments re-time."""

    def __init__(self) -> None:
        self.period = -1

    def choose_scale(self, utilization: float) -> float:
        self.period += 1
        return (1.0, 0.6, 0.8)[self.period % 3]


def sleeper(rounds: int = 12):
    for _ in range(rounds):
        yield Sleep(0.7)
        yield Compute(0.05)


def test_dvfs_run_digest_literal():
    """A governor changes a core's frequency while a segment is in flight.

    That is the one path where a running segment's rate changes:
    ``set_core_frequency`` settles the elapsed work at the old rate and
    re-arms the segment at the new one.
    """
    machine = make_machine(
        1, 1,
        dvfs=DVFSPolicy(
            big_governor=SteppingGovernor(),
            little_governor=OndemandGovernor(up_threshold=0.95),
            period_ms=1.5,
        ),
    )
    for i, work in enumerate((6.0, 9.0, 12.0)):
        machine.add_task(
            make_simple_task(f"t{i}", work=work, chunks=3, profile=FAST_PROFILE)
        )
    machine.add_task(
        Task(name="sleeper", app_id=1, actions=sleeper(), profile=NEUTRAL_PROFILE)
    )
    retimed = 0
    set_frequency = machine.set_core_frequency

    def counting(core, scale, now):
        nonlocal retimed
        task = core.current
        if task is not None and task.current_segment is not None:
            retimed += abs(scale - core.freq_scale) >= 1e-12
        set_frequency(core, scale, now)

    machine.set_core_frequency = counting
    result = machine.run()
    assert retimed > 0
    assert len(result.core_busy_by_scale[0]) == 3
    assert run_digest(result) == DVFS
