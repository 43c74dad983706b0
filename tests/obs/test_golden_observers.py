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
    assert digests(*observed_run(scheduler, mix)) == GOLDEN[f"{scheduler}/{mix}"]


def test_fixture_covers_every_run():
    assert sorted(GOLDEN) == sorted(
        f"{scheduler}/{mix}" for scheduler in SCHEDULERS for mix in MIXES_COVERED
    )
