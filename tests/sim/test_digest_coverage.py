"""Every behavioural result field reaches :func:`run_digest`, by value.

Each ``RunResult`` and ``TaskStats`` field of a real traced run is
changed in turn: the digest must change exactly when the field is not
named in :data:`~repro.sim.digest.DIGEST_EXCLUDED_FIELDS`.  A new field
is checked as soon as it exists, and a stale or wrong exclusion fails.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.runner import ExperimentContext, run_mix_once
from repro.model.speedup import OracleSpeedupModel
from repro.obs.context import ObsConfig
from repro.obs.tracer import EventKind, TraceEvent
from repro.sim.digest import DIGEST_EXCLUDED_FIELDS, run_digest
from repro.sim.machine import RunResult, TaskStats
from repro.workloads.mixes import MIXES

#: Checked on their own below: a list of records, not one value.
LIST_FIELDS = ("tasks", "events")
RESULT_FIELDS = [
    f.name for f in dataclasses.fields(RunResult) if f.name not in LIST_FIELDS
]
TASK_FIELDS = [f.name for f in dataclasses.fields(TaskStats)]


def changed(value):
    """A value of the same shape as ``value`` that compares unequal."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "~"
    if isinstance(value, dict):
        if not value:
            return {"extra": 1}
        key = next(iter(value))
        return {**value, key: changed(value[key])}
    return object()


@pytest.fixture(scope="module")
def result() -> RunResult:
    ctx = ExperimentContext(
        seed=3, work_scale=0.05, estimator=OracleSpeedupModel(noise_std=0.0)
    )
    return run_mix_once(
        ctx, MIXES["Sync-1"], "2B2S", "colab", True, obs=ObsConfig(trace=True)
    )


def test_exclusions_name_result_fields():
    assert set(DIGEST_EXCLUDED_FIELDS) <= set(RESULT_FIELDS)


@pytest.mark.parametrize("name", RESULT_FIELDS)
def test_result_field_reaches_digest_unless_excluded(result, name):
    other = dataclasses.replace(result, **{name: changed(getattr(result, name))})
    unchanged = run_digest(other) == run_digest(result)
    assert unchanged == (name in DIGEST_EXCLUDED_FIELDS)


@pytest.mark.parametrize("name", TASK_FIELDS)
def test_task_field_reaches_digest(result, name):
    first = result.tasks[0]
    task = dataclasses.replace(first, **{name: changed(getattr(first, name))})
    other = dataclasses.replace(result, tasks=[task, *result.tasks[1:]])
    assert run_digest(other) != run_digest(result)


@pytest.mark.parametrize("kind", list(EventKind), ids=lambda kind: kind.value)
def test_only_dispatch_records_reach_digest(result, kind):
    assert any(e.kind is EventKind.DISPATCH for e in result.events)
    record = TraceEvent(time=1.0, kind=kind, core_id=0, tid=result.tasks[0].tid)
    other = dataclasses.replace(result, events=[*result.events, record])
    unchanged = run_digest(other) == run_digest(result)
    assert unchanged == (kind is not EventKind.DISPATCH)
