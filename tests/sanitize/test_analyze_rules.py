"""ANA001-ANA004 analyses: positive/negative fixtures and chains."""

from __future__ import annotations

import pathlib

import repro
from repro.sanitize import run_lint

SRC = pathlib.Path(repro.__file__).resolve().parent


def write_tree(tmp_path, files):
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return tmp_path


def copy_real(tmp_path, *relpaths):
    """Copy real package files into a fixture tree, preserving layout."""
    files = {
        f"repro/{rel}": (SRC / rel).read_text(encoding="utf-8")
        for rel in relpaths
    }
    return write_tree(tmp_path, files)


def ana_report(tree):
    """``run_lint`` over ``tree``, keeping only the ANA family's findings.

    Taint fixtures put ``time.time()`` under ``repro/sim/``, where the
    per-file DET001 rule fires too; test_lint_rules covers that rule.
    """
    report = run_lint([tree])
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


class TestCoverageANA002:
    def fixture(self, tmp_path, *, covered: bool):
        key_line = '        "knob": ctx.knob,\n' if covered else ""
        return write_tree(tmp_path, {
            "repro/sim/machine.py": (
                "class MachineConfig:\n"
                "    seed: int = 0\n"
                "    knob: float = 1.0\n"
            ),
            "repro/parallel/fingerprint.py": (
                "def point_key_material(ctx):\n"
                "    return {\n"
                '        "seed": ctx.seed,\n'
                + key_line
                + "    }\n"
            ),
        })

    def test_uncovered_field_is_flagged_at_its_definition(self, tmp_path):
        report = ana_report(self.fixture(tmp_path, covered=False))
        assert codes(report) == ["ANA002"]
        finding = report.violations[0]
        assert finding.path.endswith("machine.py")
        assert finding.line == 3
        assert "MachineConfig.knob" in finding.message

    def test_covered_field_is_clean(self, tmp_path):
        assert ana_report(self.fixture(tmp_path, covered=True)).ok

    def test_exclusion_tuple_counts_as_coverage(self, tmp_path):
        tree = write_tree(tmp_path, {
            "repro/sim/machine.py": (
                "class MachineConfig:\n"
                "    knob: float = 1.0\n"
            ),
            "repro/parallel/fingerprint.py": (
                'PINNED_CONFIG_FIELDS = ("knob",)\n'
                "def point_key_material(ctx):\n"
                "    return {}\n"
            ),
        })
        assert ana_report(tree).ok

    def test_silent_without_fingerprint_module(self, tmp_path):
        tree = write_tree(tmp_path, {
            "repro/sim/machine.py": (
                "class MachineConfig:\n"
                "    knob: float = 1.0\n"
            ),
        })
        assert ana_report(tree).ok

    def test_deleting_a_key_from_real_fingerprint_fails(self, tmp_path):
        tree = copy_real(
            tmp_path,
            "sim/machine.py",
            "sim/digest.py",
            "experiments/runner.py",
            "parallel/fingerprint.py",
        )
        assert ana_report(tree).ok, "real files should start clean"
        fingerprint = tree / "repro/parallel/fingerprint.py"
        source = fingerprint.read_text()
        assert '"work_scale": ctx.work_scale,' in source
        fingerprint.write_text(
            source.replace('"work_scale": ctx.work_scale,\n', "")
        )
        report = ana_report(tree)
        assert codes(report) == ["ANA002"]
        assert "work_scale" in report.violations[0].message


class TestCoverageANA003:
    def test_unconsumed_result_field_is_flagged(self, tmp_path):
        tree = write_tree(tmp_path, {
            "repro/sim/machine.py": (
                "class RunResult:\n"
                "    makespan: float = 0.0\n"
                "    surprise: int = 0\n"
            ),
            "repro/sim/digest.py": (
                "def run_digest(result):\n"
                "    return repr(result.makespan)\n"
            ),
        })
        report = ana_report(tree)
        assert codes(report) == ["ANA003"]
        assert "RunResult.surprise" in report.violations[0].message

    def test_exclusion_tuple_counts(self, tmp_path):
        tree = write_tree(tmp_path, {
            "repro/sim/machine.py": (
                "class RunResult:\n"
                "    makespan: float = 0.0\n"
                "    surprise: int = 0\n"
            ),
            "repro/sim/digest.py": (
                'DIGEST_EXCLUDED_FIELDS = ("surprise",)\n'
                "def run_digest(result):\n"
                "    return repr(result.makespan)\n"
            ),
        })
        assert ana_report(tree).ok

    def test_deleting_a_field_from_real_run_digest_fails(self, tmp_path):
        tree = copy_real(
            tmp_path,
            "sim/machine.py",
            "sim/digest.py",
            "experiments/runner.py",
            "parallel/fingerprint.py",
        )
        assert ana_report(tree).ok, "real files should start clean"
        digest = tree / "repro/sim/digest.py"
        source = digest.read_text()
        assert 'put("makespan", result.makespan)' in source
        digest.write_text(
            source.replace('    put("makespan", result.makespan)\n', "")
        )
        report = ana_report(tree)
        assert codes(report) == ["ANA003"]
        assert "RunResult.makespan" in report.violations[0].message


class TestPayloadsANA004:
    def test_unsafe_leaf_in_initargs(self, tmp_path):
        tree = write_tree(tmp_path, {
            "repro/parallel/executor.py": (
                "import threading\n"
                "def _init_worker(seed: int, lock: threading.Lock) -> None:\n"
                "    pass\n"
            ),
        })
        report = ana_report(tree)
        assert codes(report) == ["ANA004"]
        assert "threading.Lock" in report.violations[0].message

    def test_unsafe_field_deep_in_submit_return_type(self, tmp_path):
        tree = write_tree(tmp_path, {
            "repro/parallel/executor.py": (
                "from repro.parallel.payload import Bundle\n"
                "def _work(x: int) -> Bundle:\n"
                "    return Bundle()\n"
                "def go(pool):\n"
                "    return pool.submit(_work, 1)\n"
            ),
            "repro/parallel/payload.py": (
                "import threading\n"
                "from dataclasses import dataclass\n"
                "@dataclass\n"
                "class Bundle:\n"
                "    values: dict[str, float] = None\n"
                "    handle: threading.Lock = None\n"
            ),
        })
        report = ana_report(tree)
        assert codes(report) == ["ANA004"]
        finding = report.violations[0]
        assert finding.path.endswith("payload.py")
        assert any("Bundle.handle" in frame for frame in finding.chain)
        assert any("_work" in frame for frame in finding.chain)

    def test_safe_closure_is_clean(self, tmp_path):
        tree = write_tree(tmp_path, {
            "repro/parallel/executor.py": (
                "from repro.parallel.payload import Bundle\n"
                "def _init_worker(seed: int, spec: dict) -> None:\n"
                "    pass\n"
                "def _work(x: str, flag: bool) -> Bundle:\n"
                "    return Bundle()\n"
                "def go(pool):\n"
                "    return pool.submit(_work, 'a', True)\n"
            ),
            "repro/parallel/payload.py": (
                "from dataclasses import dataclass\n"
                "Point = tuple[str, str, str]\n"
                "@dataclass\n"
                "class Bundle:\n"
                "    point: Point = None\n"
                "    values: dict[str, float] = None\n"
            ),
        })
        assert ana_report(tree).ok

    def test_unannotated_payload_parameter_is_unverifiable(self, tmp_path):
        tree = write_tree(tmp_path, {
            "repro/parallel/executor.py": (
                "def _init_worker(seed) -> None:\n"
                "    pass\n"
            ),
        })
        report = ana_report(tree)
        assert codes(report) == ["ANA004"]
        assert "no annotation" in report.violations[0].message

    def test_non_dataclass_payload_type_is_flagged(self, tmp_path):
        tree = write_tree(tmp_path, {
            "repro/parallel/executor.py": (
                "from repro.parallel.payload import Loose\n"
                "def _init_worker(seed: int, extra: Loose) -> None:\n"
                "    pass\n"
            ),
            "repro/parallel/payload.py": (
                "class Loose:\n"
                "    def __init__(self):\n"
                "        self.anything = lambda: 1\n"
            ),
        })
        report = ana_report(tree)
        assert codes(report) == ["ANA004"]
        assert "neither a dataclass nor a __slots__" in report.violations[0].message

    def test_callable_annotation_is_flagged(self, tmp_path):
        tree = write_tree(tmp_path, {
            "repro/parallel/executor.py": (
                "from typing import Callable\n"
                "def _init_worker(factory: Callable[[], int]) -> None:\n"
                "    pass\n"
            ),
        })
        report = ana_report(tree)
        assert codes(report) == ["ANA004"]
