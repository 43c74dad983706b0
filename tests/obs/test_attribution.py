"""Per-task attribution accounting and decision→outcome linkage tests.

The load-bearing contract is **sum-to-turnaround**: every task's state
times telescope to its turnaround (asserted for all four schedulers on a
real mix).  Attribution rides on the trace, so these runs turn tracing
on; its outputs are pinned by the golden observer fixture
(``tests/obs/test_golden_observers.py``).
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import ExperimentContext, run_mix_once
from repro.kernel.task import reset_tid_counter
from repro.obs.attribution import (
    MIGRATING,
    N_STATES,
    NO_STATE,
    OPEN_STATE,
    RUNNING_BIG,
    RUNNING_LITTLE,
    STATE_NAMES,
    AttributionAccounting,
    decision_quality,
    link_decisions,
    render_attribution,
    render_decision_quality,
    summarize_attribution,
    task_state_slices,
)
from repro.obs.context import ObsConfig
from repro.obs.probe import ENQUEUE, EXEC
from repro.sim.core import BIG_SPEC, Core
from repro.sim.machine import Machine, MachineConfig
from repro.workloads.mixes import MIXES
from repro.workloads.programs import ProgramEnv
from tests.conftest import make_machine, make_simple_task

ALL_SCHEDULERS = ("linux", "gts", "wash", "colab")


def fast_ctx() -> ExperimentContext:
    """A fresh, cache-free context (fresh oracle RNG stream per call)."""
    return ExperimentContext(
        seed=42, work_scale=0.05, use_learned_model=False, cache_dir=None
    )


def mix_run(scheduler: str, obs=ObsConfig(trace=True)):
    """One traced Sync-1/2B2S run built from a fresh context and tid space."""
    reset_tid_counter()
    ctx = fast_ctx()
    machine = Machine(
        ctx.topology("2B2S", big_first=True),
        ctx.make_scheduler(scheduler),
        MachineConfig(seed=ctx.seed, obs=obs),
    )
    env = ProgramEnv.for_machine(machine, work_scale=ctx.work_scale)
    for instance in MIXES["Sync-1"].instantiate(env):
        machine.add_program(instance)
    return machine.run()


class TestSumToTurnaround:
    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
    def test_states_sum_to_turnaround(self, scheduler):
        result = mix_run(scheduler)
        summary = result.attribution
        assert summary["tasks"], "attribution summary has no task rows"
        for row in summary["tasks"]:
            total = sum(row["state_ms"].values())
            assert total == pytest.approx(
                row["turnaround_ms"], abs=1e-6
            ), f"{scheduler}/{row['name']}: state sum != turnaround"
            assert abs(row["residual_ms"]) < 1e-6

    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
    def test_totals_aggregate_task_rows(self, scheduler):
        summary = mix_run(scheduler).attribution
        for index, state in enumerate(STATE_NAMES):
            assert summary["totals_ms"][state] == pytest.approx(
                sum(row["state_ms"][state] for row in summary["tasks"])
            )
        assert summary["states"] == list(STATE_NAMES)

    def test_migration_cost_shows_up_as_migrating_time(self):
        result = mix_run("colab")
        # The default config charges context-switch/migration penalties;
        # some task must have paid one on this multi-core sync workload.
        assert result.attribution["totals_ms"]["migrating"] > 0.0


def state_ms(accounting: AttributionAccounting, task) -> dict:
    """The task's ``state_ms`` row of the accounting's summary."""
    (row,) = summarize_attribution([task], accounting)["tasks"]
    return row["state_ms"]


class TestAccountingHelper:
    def test_windows_telescope_over_transitions(self):
        accounting = AttributionAccounting()
        task = make_simple_task()
        accounting.begin(task, 0.0)
        accounting.enter(task, RUNNING_BIG, 1.0)
        accounting.enter(task, RUNNING_LITTLE, 3.0)
        accounting.enter(task, NO_STATE, 7.0)
        states = state_ms(accounting, task)
        assert states["running_big"] == pytest.approx(2.0)
        assert states["running_little"] == pytest.approx(4.0)
        assert accounting.timelines[task.tid][OPEN_STATE] == NO_STATE

    def test_on_exec_splits_penalty_from_productive_time(self):
        accounting = AttributionAccounting()
        task = make_simple_task()
        accounting.begin(task, 0.0)
        accounting.enter(task, RUNNING_BIG, 0.0)
        core = Core(core_id=0, spec=BIG_SPEC, run_started=0.0)
        accounting.on_exec(EXEC, task, core, now=5.0, penalty_used=1.5)
        states = state_ms(accounting, task)
        assert states[STATE_NAMES[MIGRATING]] == pytest.approx(1.5)
        assert states["running_big"] == pytest.approx(3.5)

    def test_exec_hook_is_on_exec(self):
        # EXEC skips transition()'s dispatch on kind; the other watched
        # kinds still go through it.
        accounting = AttributionAccounting()
        hooks = accounting.hooks()
        assert hooks[EXEC] == accounting.on_exec
        assert hooks[ENQUEUE] == accounting.transition

    def test_unbegun_task_is_opened_lazily(self):
        accounting = AttributionAccounting()
        task = make_simple_task()
        accounting.enter(task, RUNNING_BIG, 2.0)
        timeline = accounting.timelines[task.tid]
        assert timeline[:N_STATES] == [0.0] * N_STATES
        assert timeline[OPEN_STATE] == RUNNING_BIG

    def test_summary_skips_tasks_without_timeline(self):
        accounting = AttributionAccounting()
        begun, skipped = make_simple_task("a"), make_simple_task("b")
        accounting.begin(begun, 0.0)
        summary = summarize_attribution([begun, skipped], accounting)
        assert [row["name"] for row in summary["tasks"]] == ["a"]


class TestDecisionLinkage:
    def traced(self, scheduler="colab"):
        return mix_run(scheduler, obs=ObsConfig(trace=True))

    def test_colab_decisions_link_to_dispatches(self):
        result = self.traced("colab")
        linked = link_decisions(
            result.events, metadata=result.trace_metadata,
            end_time=result.makespan,
        )
        assert linked, "colab emitted no linkable decisions"
        for record in linked:
            assert record["op"] == "colab_pick"
            assert record["dispatch_latency_ms"] >= 0.0
            if record["held_ms"] is not None:
                assert record["held_ms"] >= 0.0
            assert record["core_kind"] in ("big", "little", None)

    def test_quality_rows_aggregate_counts(self):
        result = self.traced("colab")
        linked = link_decisions(
            result.events, metadata=result.trace_metadata,
            end_time=result.makespan,
        )
        rows = decision_quality(linked)
        assert sum(row["count"] for row in rows) == len(linked)
        for row in rows:
            assert 0.0 <= row["big_share"] <= 1.0

    def test_untraced_run_links_nothing(self):
        assert link_decisions([]) == []
        assert decision_quality([]) == []


class TestTaskStateSlices:
    def test_slices_cover_valid_states_within_run(self):
        machine = make_machine(1, 1, obs=ObsConfig(trace=True))
        for i in range(3):
            machine.add_task(make_simple_task(f"t{i}", work=4.0, app_id=i))
        result = machine.run()
        slices = task_state_slices(
            result.events, metadata=result.trace_metadata,
            end_time=result.makespan,
        )
        assert slices
        for start, end, tid, name, state in slices:
            assert 0.0 <= start <= end <= result.makespan + 1e-9
            assert state in STATE_NAMES
            assert name.startswith("t")
        assert slices == sorted(slices, key=lambda s: (s[2], s[0]))


class TestRenderers:
    def test_attribution_table_mentions_every_state(self):
        text = render_attribution(mix_run("linux").attribution)
        for state in STATE_NAMES:
            assert state in text
        assert "TOTAL" in text

    def test_decision_table_handles_empty_input(self):
        assert "no linked scheduler decisions" in render_decision_quality([])
