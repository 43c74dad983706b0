"""Pins the :func:`run_digest` recipe to literal hex values.

Hot-vs-reference parity compares two digests built with the same recipe,
so it cannot notice the recipe itself changing.  These literals can: any
change to what is hashed, or in which order, moves them (and with them
every stored digest under ``hostbench/expected/``).
"""

from __future__ import annotations

import pytest

from repro.obs.context import ObsConfig
from repro.sim.digest import run_digest
from tests.conftest import make_machine, make_simple_task

TRACED = "1d2512acd8ec22b85c45f49c1756cd5fba10b016ad2f8177f51db2931c32b7fc"
UNTRACED = "7949b7502e189f47cadfa38c057d82156967897961e843da8354705b0e1cdd65"


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
