"""ANA001 determinism taint: positive/negative fixtures and chains."""

from __future__ import annotations

from repro.sanitize import run_lint


def write_tree(tmp_path, files):
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return tmp_path


def ana_report(*trees):
    """``run_lint`` over ``trees``, keeping only the ANA family's findings.

    Taint fixtures put ``time.time()`` under ``repro/sim/``, where the
    per-file DET001 rule fires too; test_lint_rules covers that rule.
    """
    report = run_lint(list(trees))
    for found in (report.violations, report.suppressed):
        found[:] = [v for v in found if v.code.startswith("ANA")]
    return report


def codes(report):
    return [v.code for v in report.violations]


class TestTaintANA001:
    def test_cross_module_taint_with_full_chain(self, tmp_path):
        tree = write_tree(tmp_path, {
            "repro/sim/digest.py": (
                "from repro.sim.clockuser import ambient\n"
                "def run_digest(result):\n"
                "    return _mix(result)\n"
                "def _mix(result):\n"
                "    return ambient()\n"
            ),
            "repro/sim/clockuser.py": (
                "import time\n"
                "def ambient():\n"
                "    return time.time()\n"
            ),
        })
        report = ana_report(tree)
        assert codes(report) == ["ANA001"]
        finding = report.violations[0]
        assert finding.path.endswith("clockuser.py")
        assert finding.line == 3  # anchored at the time.time() call
        assert "time.time()" in finding.message
        assert "run_digest" in finding.message
        # Full source->sink chain, root first.
        assert [f.split(" ")[0] for f in finding.chain] == [
            "run_digest", "_mix", "ambient",
        ]
        assert "clockuser.py:2" in finding.chain[-1]

    def test_taint_propagates_through_relative_imports(self, tmp_path):
        tree = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/sim/__init__.py": "",
            "repro/sim/digest.py": (
                "from . import helper\n"
                "def run_digest(result):\n"
                "    return helper.stamp(result)\n"
            ),
            "repro/sim/helper.py": (
                "import time\n"
                "def stamp(result):\n"
                "    return (time.time(), result)\n"
            ),
        })
        report = ana_report(tree)
        assert codes(report) == ["ANA001"]
        finding = report.violations[0]
        assert finding.path.endswith("helper.py")
        assert [f.split(" ")[0] for f in finding.chain] == ["run_digest", "stamp"]

    def test_unreachable_source_is_not_flagged(self, tmp_path):
        tree = write_tree(tmp_path, {
            "repro/sim/digest.py": (
                "import time\n"
                "def run_digest(result):\n"
                "    return repr(result)\n"
                "def unrelated():\n"
                "    return time.time()\n"
            ),
        })
        assert ana_report(tree).ok

    def test_observational_regions_are_excluded(self, tmp_path):
        tree = write_tree(tmp_path, {
            "repro/sim/digest.py": (
                "from repro.obs.meter import stamp\n"
                "def run_digest(result):\n"
                "    stamp()\n"
                "    return repr(result)\n"
            ),
            "repro/obs/meter.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()\n"
            ),
        })
        assert ana_report(tree).ok

    def test_environment_reads_are_sources(self, tmp_path):
        tree = write_tree(tmp_path, {
            "repro/sim/digest.py": (
                "import os\n"
                "def run_digest(result):\n"
                "    return os.environ.get('HOME')\n"
            ),
        })
        report = ana_report(tree)
        assert codes(report) == ["ANA001"]
        assert "os.environ" in report.violations[0].message

    def test_suppression_at_source_site(self, tmp_path):
        tree = write_tree(tmp_path, {
            "repro/sim/digest.py": (
                "import time\n"
                "def run_digest(result):\n"
                "    return time.time()  # sanitize: ignore[ANA001]\n"
            ),
        })
        report = ana_report(tree)
        assert report.ok
        assert [v.code for v in report.suppressed] == ["ANA001"]

    def test_machine_run_is_also_a_root(self, tmp_path):
        tree = write_tree(tmp_path, {
            "repro/sim/machine.py": (
                "import random\n"
                "class Machine:\n"
                "    def run(self):\n"
                "        return random.random()\n"
            ),
        })
        report = ana_report(tree)
        assert codes(report) == ["ANA001"]
        assert "Machine.run" in report.violations[0].chain[0]

    def test_method_fallback_needs_an_import_across_trees(self, tmp_path):
        # The runner calls a method on an object handed to it; only a tree
        # it imports may supply that method.
        runner = (
            "def evaluate_mix(ctx, key):\n"
            "    return ctx.cache.load(key)\n"
        )
        a, b = tmp_path / "a", tmp_path / "b"
        write_tree(a, {"repro/experiments/runner.py": runner})
        write_tree(b, {
            "bench/timing.py": (
                "import time\n"
                "class TimedCache:\n"
                "    def load(self, key):\n"
                "        return time.perf_counter()\n"
            ),
        })
        assert ana_report(a, b).ok
        assert ana_report(a).ok and ana_report(b).ok

        write_tree(a, {"repro/experiments/runner.py": "import timing\n" + runner})
        report = ana_report(a, b)
        assert codes(report) == ["ANA001"]
        finding = report.violations[0]
        assert finding.path.endswith("timing.py")
        assert [f.split(" ")[0] for f in finding.chain] == [
            "evaluate_mix", "TimedCache.load",
        ]
