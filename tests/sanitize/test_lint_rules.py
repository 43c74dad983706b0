"""Per-rule positive/negative coverage for every registered lint rule."""

from __future__ import annotations

from repro.sanitize import run_lint


def lint_source(tmp_path, source, rel="repro/sim/mod.py"):
    """Lint ``source`` placed at ``rel`` under tmp_path; return hit codes."""
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return [v.code for v in run_lint([target]).violations]


class TestDET001:
    def test_wall_clock_flagged(self, tmp_path):
        codes = lint_source(
            tmp_path, "import time\nstart = time.perf_counter()\n"
        )
        assert codes == ["DET001"]

    def test_wall_clock_flagged_through_alias(self, tmp_path):
        codes = lint_source(
            tmp_path, "from time import monotonic as clock\nnow = clock()\n"
        )
        assert codes == ["DET001"]

    def test_global_random_flagged(self, tmp_path):
        codes = lint_source(
            tmp_path, "import random\nx = random.random()\n"
        )
        assert codes == ["DET001"]

    def test_unseeded_default_rng_flagged(self, tmp_path):
        codes = lint_source(
            tmp_path, "import numpy as np\nrng = np.random.default_rng()\n"
        )
        assert codes == ["DET001"]

    def test_legacy_numpy_global_rng_flagged(self, tmp_path):
        codes = lint_source(
            tmp_path, "import numpy as np\nx = np.random.rand(3)\n"
        )
        assert codes == ["DET001"]

    def test_entropy_source_flagged(self, tmp_path):
        codes = lint_source(tmp_path, "import os\ntok = os.urandom(8)\n")
        assert codes == ["DET001"]

    def test_seeded_default_rng_allowed(self, tmp_path):
        codes = lint_source(
            tmp_path, "import numpy as np\nrng = np.random.default_rng(42)\n"
        )
        assert codes == []

    def test_engine_clock_allowed(self, tmp_path):
        codes = lint_source(
            tmp_path, "def step(self, engine):\n    return engine.now\n"
        )
        assert codes == []

    def test_wall_clock_in_sampler_flagged(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "import time\n"
            "def _sample(self):\n"
            "    stamp = time.time()\n"
            "    return stamp\n",
            rel="repro/obs/timeseries.py",
        )
        assert codes == ["DET001"]

    def test_wall_clock_in_probe_seam_flagged(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "import time\n"
            "def event(self, event, now):\n"
            "    self.seen = time.monotonic()\n",
            rel="repro/obs/probe.py",
        )
        assert codes == ["DET001"]

    def test_out_of_scope_obs_module_not_flagged(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n",
            rel="repro/obs/ledger.py",
        )
        assert codes == []


class TestDET002:
    def test_for_over_set_literal_flagged(self, tmp_path):
        codes = lint_source(
            tmp_path, "def f(a, b):\n    for x in {a, b}:\n        pass\n"
        )
        assert codes == ["DET002"]

    def test_for_over_set_bound_name_flagged(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "def f(items):\n"
            "    pending = set(items)\n"
            "    for x in pending:\n"
            "        pass\n",
        )
        assert codes == ["DET002"]

    def test_comprehension_over_affinity_flagged(self, tmp_path):
        codes = lint_source(
            tmp_path, "def f(task):\n    return [c for c in task.affinity]\n"
        )
        assert codes == ["DET002"]

    def test_sorted_set_allowed(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "def f(items):\n"
            "    pending = set(items)\n"
            "    for x in sorted(pending):\n"
            "        pass\n",
        )
        assert codes == []

    def test_list_iteration_allowed(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "def f(items):\n"
            "    ordered = list(items)\n"
            "    for x in ordered:\n"
            "        pass\n",
        )
        assert codes == []


class TestDET003:
    REL = "repro/parallel/mod.py"

    def test_as_completed_iteration_flagged(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "from concurrent.futures import as_completed\n"
            "def merge(futures):\n"
            "    return [f.result() for f in as_completed(futures)]\n",
            rel=self.REL,
        )
        assert codes == ["DET003"]

    def test_as_completed_through_module_flagged(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "import concurrent.futures\n"
            "def merge(futures):\n"
            "    for f in concurrent.futures.as_completed(futures):\n"
            "        f.result()\n",
            rel=self.REL,
        )
        assert codes == ["DET003"]

    def test_asyncio_as_completed_flagged(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "import asyncio\n"
            "async def merge(aws):\n"
            "    for f in asyncio.as_completed(aws):\n"
            "        await f\n",
            rel=self.REL,
        )
        assert codes == ["DET003"]

    def test_flagged_in_experiments_scope(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "from concurrent.futures import as_completed\n"
            "def merge(fs):\n"
            "    return list(as_completed(fs))\n",
            rel="repro/experiments/mod.py",
        )
        assert codes == ["DET003"]

    def test_submission_order_merge_allowed(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "def merge(submitted):\n"
            "    return [future.result() for _, future in submitted]\n",
            rel=self.REL,
        )
        assert codes == []

    def test_out_of_scope_not_flagged(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "from concurrent.futures import as_completed\n"
            "def merge(fs):\n"
            "    return list(as_completed(fs))\n",
            rel="repro/analysis/mod.py",
        )
        assert codes == []


class TestOBS001:
    def test_unguarded_emit_flagged(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "def f(tracer):\n"
            "    tracer.emit('pick', tid=1)\n",
        )
        assert codes == ["OBS001"]

    def test_guard_on_different_tracer_flagged(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "def f(self, other_tracer):\n"
            "    if self._tracer.enabled:\n"
            "        other_tracer.emit('pick', tid=1)\n",
        )
        assert codes == ["OBS001"]

    def test_guarded_emit_allowed(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "def f(self):\n"
            "    if self._tracer.enabled:\n"
            "        self._tracer.emit('pick', tid=1)\n",
        )
        assert codes == []

    def test_guarded_emit_in_compound_test_allowed(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "def f(tracer, verbose):\n"
            "    if tracer.enabled and verbose:\n"
            "        tracer.emit('pick', tid=1)\n",
        )
        assert codes == []


class TestKERN001:
    def test_private_tree_access_flagged(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "def steal(rq):\n    return rq._entries[0]\n",
            rel="repro/schedulers/mod.py",
        )
        assert codes == ["KERN001"]

    def test_min_vruntime_write_flagged(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "def reset(rq):\n    rq.min_vruntime = 0.0\n",
        )
        assert codes == ["KERN001"]

    def test_public_api_allowed(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "def move(src, dst, task):\n"
            "    src.dequeue(task)\n"
            "    dst.enqueue(task)\n"
            "    return dst.min_vruntime\n",
        )
        assert codes == []

    def test_runqueue_module_itself_excluded(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "def enqueue(self, task):\n"
            "    insort(self._entries, (key, task))\n",
            rel="repro/kernel/runqueue.py",
        )
        assert codes == []


class TestERR001:
    def test_bare_except_flagged(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except:\n"
            "        pass\n",
            rel="repro/kernel/mod.py",
        )
        assert codes == ["ERR001"]

    def test_blanket_exception_flagged(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except (ValueError, Exception):\n"
            "        pass\n",
        )
        assert codes == ["ERR001"]

    def test_specific_exception_allowed(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except KeyError:\n"
            "        pass\n",
        )
        assert codes == []

    def test_blanket_outside_sim_kernel_allowed(self, tmp_path):
        # ERR001 is scoped to sim/kernel only; experiment drivers may
        # legitimately catch broadly.
        codes = lint_source(
            tmp_path,
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception:\n"
            "        pass\n",
            rel="repro/experiments/mod.py",
        )
        assert codes == []


class TestPERF001:
    def test_comprehension_in_dispatch_flagged(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "def _dispatch(self, core):\n"
            "    ready = [t for t in core.rq if t.is_ready]\n"
            "    return ready\n",
        )
        assert codes == ["PERF001"]

    def test_sorted_in_account_flagged(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "def _account(self, core, now):\n"
            "    order = sorted(core.rq)\n"
            "    return order\n",
        )
        assert codes == ["PERF001"]

    def test_generator_expression_in_step_flagged(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "def step(self):\n"
            "    return sum(e.time for e in self._heap)\n",
        )
        assert codes == ["PERF001"]

    def test_cold_function_allowed(self, tmp_path):
        # Same constructs outside the per-event hot set are fine.
        codes = lint_source(
            tmp_path,
            "def snapshot(self):\n"
            "    return sorted(t.tid for t in self.tasks)\n",
        )
        assert codes == []

    def test_outside_sim_kernel_allowed(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "def step(self):\n"
            "    return [x for x in self.rows]\n",
            rel="repro/experiments/mod.py",
        )
        assert codes == []

    def test_suppression_comment_honoured(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "def _advance(self, task):\n"
            "    # sanitize: ignore[PERF001]\n"
            "    return sorted(task.chunks)\n",
        )
        assert codes == []


class TestOBS003:
    def test_attr_state_write_flagged(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "def f(task, now):\n    task.attr_state = 3\n",
            rel="repro/sim/machine.py",
        )
        assert codes == ["OBS003"]

    def test_attr_since_write_flagged(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "def f(task, now):\n    task.attr_since = now\n",
            rel="repro/kernel/runqueue.py",
        )
        assert "OBS003" in codes

    def test_bucket_augassign_flagged(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "def f(task, state, dt):\n    task.attr_ms[state] += dt\n",
            rel="repro/schedulers/colab.py",
        )
        assert "OBS003" in codes

    def test_annotated_write_flagged(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "def f(task):\n    task.attr_ms: list = []\n",
            rel="repro/obs/context.py",
        )
        assert codes == ["OBS003"]

    def test_accounting_helper_module_exempt(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "def begin(task, now):\n"
            "    task.attr_ms = [0.0] * 7\n"
            "    task.attr_since = now\n"
            "    task.attr_state = -1\n",
            rel="repro/obs/attribution.py",
        )
        assert codes == []

    def test_reads_and_unrelated_attrs_allowed(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "def f(task):\n"
            "    x = task.attr_ms[0] + task.attr_since\n"
            "    task.vruntime = 1.0\n",
            rel="repro/sim/machine.py",
        )
        assert codes == []

    def test_suppression_comment_respected(self, tmp_path):
        codes = lint_source(
            tmp_path,
            "def f(task):\n"
            "    task.attr_state = 0  # sanitize: ignore[OBS003]\n",
            rel="repro/sim/machine.py",
        )
        assert codes == []
