"""Every observer's output matches the committed golden digests."""

from __future__ import annotations

import json

import pytest

from tests.obs.golden_observers import (
    FIXTURE,
    MIXES_COVERED,
    SCHEDULERS,
    digests,
    observed_run,
)

GOLDEN = json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("mix", MIXES_COVERED)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_observer_outputs_match_golden(scheduler, mix):
    machine, result = observed_run(scheduler, mix)
    assert digests(machine, result) == GOLDEN[f"{scheduler}/{mix}"]
    # One armed timer per core: only a preemption (these runs have no
    # DVFS re-times) leaves a stale timer in the heap to discard.
    assert machine.config.dvfs is None
    assert result.events_discarded <= sum(c.preemptions for c in machine.cores)


def test_fixture_covers_every_run():
    assert sorted(GOLDEN) == sorted(
        f"{scheduler}/{mix}" for scheduler in SCHEDULERS for mix in MIXES_COVERED
    )
