"""The observer seam: combining probes and routing their hooks."""

from __future__ import annotations

from dataclasses import replace

from repro.kernel.task import reset_tid_counter
from repro.obs.context import ObsConfig
from repro.obs.probe import (
    DRAIN,
    ENQUEUE,
    EXEC,
    NO_HOOKS,
    FanOut,
    Probe,
    combine,
)
from repro.sim.digest import run_digest
from tests.conftest import make_machine, make_simple_task


class Recorder(Probe):
    def __init__(self, name, log, kinds=None, with_event=False):
        self.name = name
        self.log = log
        if kinds is not None:
            self.kinds = frozenset(kinds)
        if with_event:
            self.event = lambda event, now: log.append((name, "event", event))

    def transition(self, kind, task, where, now, detail):
        self.log.append((self.name, kind))

    def finish(self, machine, makespan, fields):
        fields[self.name] = makespan


class EventOnly(Probe):
    def event(self, event, now):
        pass


def test_no_observer_is_the_null_probe():
    null = combine([])
    assert type(null) is Probe
    assert null.event is None
    assert null.hooks() == NO_HOOKS


def test_one_observer_is_attached_as_is():
    probe = Recorder("a", [])
    assert combine([probe]) is probe
    assert isinstance(combine([probe, Recorder("b", [])]), FanOut)


def test_transitions_reach_only_members_watching_the_kind():
    log = []
    fan = combine([
        Recorder("a", log, kinds=(ENQUEUE,)),
        Recorder("b", log),
        EventOnly(),
    ])
    fan.transition(ENQUEUE, None, None, 0.0, None)
    fan.transition(EXEC, None, None, 0.0, None)
    fan.transition(DRAIN, None, None, 0.0, None)
    assert log == [("a", ENQUEUE), ("b", ENQUEUE), ("b", EXEC), ("b", DRAIN)]


def test_event_hook_only_when_a_member_has_one():
    log = []
    assert combine([Recorder("a", log), Recorder("b", log)]).event is None
    fan = combine([Recorder("a", log), Recorder("b", log, with_event=True)])
    fan.event("ev", 1.0)
    assert log == [("b", "event", "ev")]


def test_finish_reaches_every_member_in_order():
    fields = {}
    combine([Recorder("a", []), EventOnly(), Recorder("b", [])]).finish(
        None, 5.0, fields
    )
    assert list(fields) == ["a", "b"]


def test_hook_table_skips_kinds_no_member_watches():
    log = []
    lone = Recorder("a", log, kinds=(ENQUEUE,))
    assert lone.hooks()[ENQUEUE] == lone.transition
    assert lone.hooks()[EXEC] is None
    assert EventOnly().hooks() == NO_HOOKS

    b = Recorder("b", log, kinds=(ENQUEUE, EXEC))
    hooks = combine([lone, b, EventOnly()]).hooks()
    assert hooks[DRAIN] is None
    assert hooks[EXEC] == b.transition  # one watcher: called directly
    hooks[ENQUEUE](ENQUEUE, None, None, 0.0, None)
    assert log == [("a", ENQUEUE), ("b", ENQUEUE)]


def run_two_tasks(**config):
    machine = make_machine(**config)
    for i in range(2):
        machine.add_task(make_simple_task(f"t{i}", work=4.0, app_id=i))
    return machine, machine.run()


def test_untraced_machine_attaches_no_observer():
    reset_tid_counter()
    machine, result = run_two_tasks()
    assert machine.probe.hooks() == NO_HOOKS
    assert machine.cores[0].rq.hooks == NO_HOOKS
    assert machine.probe.event is None
    assert result.attribution == {}

    reset_tid_counter()
    _, traced = run_two_tasks(obs=ObsConfig(trace=True))
    assert traced.attribution["tasks"]
    # The traced digest also hashes the trace's DISPATCH records, which
    # the untraced run has none of; every outcome around them must match.
    assert run_digest(result) == run_digest(replace(traced, events=[]))
