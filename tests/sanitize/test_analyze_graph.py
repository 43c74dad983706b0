"""Module graph + function summaries: the analysis substrate."""

from __future__ import annotations

import pathlib

from repro.sanitize import run_lint
from repro.sanitize.analyze.graph import ModuleGraph, module_name_for
from repro.sanitize.analyze.summaries import ProjectSummaries


def write_tree(tmp_path, files):
    """Materialise ``{relpath: source}`` under ``tmp_path`` and return it."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return tmp_path


class TestModuleNames:
    def test_rooted_at_last_repro_component(self):
        path = pathlib.Path("/tmp/x/repro/sim/machine.py")
        assert module_name_for(path) == "repro.sim.machine"

    def test_init_maps_to_package(self):
        path = pathlib.Path("src/repro/sanitize/__init__.py")
        assert module_name_for(path) == "repro.sanitize"

    def test_nested_fixture_tree(self):
        path = pathlib.Path("/pytest-0/test_x0/repro/parallel/executor.py")
        assert module_name_for(path) == "repro.parallel.executor"

    def test_init_outside_repro_named_after_its_directory(self):
        assert module_name_for(pathlib.Path("tests/__init__.py")) == "tests"


class TestModuleGraph:
    def test_build_and_import_edges(self, tmp_path):
        write_tree(tmp_path, {
            "repro/sim/a.py": "from repro.sim.b import helper\n",
            "repro/sim/b.py": "def helper():\n    return 1\n",
        })
        graph = ModuleGraph.build([tmp_path])
        assert set(graph.modules) == {"repro.sim.a", "repro.sim.b"}
        assert graph.modules["repro.sim.a"].imports == {"repro.sim.b"}
        assert graph.importers_of("repro.sim.b") == ["repro.sim.a"]
        assert graph.files_scanned == 2

    def test_package_init_keeps_its_name_beside_other_packages(self, tmp_path):
        write_tree(tmp_path, {
            "tests/__init__.py": "",
            "src/repro/__init__.py": "",
            "src/repro/sim/machine.py": "x = 1\n",
        })
        graph = ModuleGraph.build([tmp_path / "tests", tmp_path / "src/repro"])
        assert graph.modules["repro"].posix.endswith("src/repro/__init__.py")
        assert graph.modules["tests"].posix.endswith("tests/__init__.py")

    def test_relative_imports_resolve_to_analysed_modules(self, tmp_path):
        write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/sim/__init__.py": "",
            "repro/sim/a.py": "from . import b\nfrom ..model import speedup\n",
            "repro/sim/b.py": "def helper():\n    return 1\n",
            "repro/model/__init__.py": "",
            "repro/model/speedup.py": "x = 1\n",
        })
        graph = ModuleGraph.build([tmp_path])
        info = graph.modules["repro.sim.a"]
        assert {"repro.sim.b", "repro.model.speedup"} <= info.imports
        assert info.aliases["b"] == "repro.sim.b"
        assert info.aliases["speedup"] == "repro.model.speedup"

    def test_relative_import_above_root_is_ignored(self, tmp_path):
        write_tree(tmp_path, {
            "repro/__init__.py": "from ...outside import thing\n",
        })
        graph = ModuleGraph.build([tmp_path])
        assert "thing" not in graph.modules["repro"].aliases

    def test_parse_errors_do_not_abort_the_build(self, tmp_path):
        write_tree(tmp_path, {
            "repro/sim/ok.py": "x = 1\n",
            "repro/sim/bad.py": "def f(:\n",
        })
        graph = ModuleGraph.build([tmp_path])
        assert "repro.sim.ok" in graph.modules
        assert len(graph.parse_errors) == 1
        assert graph.parse_errors[0].code == "PARSE"


class TestSameNamedFiles:
    """Files whose dotted names collide all stay in the graph."""

    CLOCK = (
        "import time\n"
        "class Clock:\n"
        "    def tick(self):\n"
        "        return time.time()\n"
    )

    def test_graph_keeps_every_parsed_file(self, tmp_path):
        write_tree(tmp_path, {
            "tests/conftest.py": "x = 1\n",
            "benchmarks/conftest.py": "y = 2\n",
            "tests/__init__.py": "",
            "benchmarks/__init__.py": "",
        })
        graph = ModuleGraph.build([tmp_path])
        assert graph.files_scanned == 4
        assert len(graph.modules) == 4
        assert sorted(info.posix for info in graph.modules.values()) == sorted(
            (tmp_path / rel).as_posix()
            for rel in (
                "benchmarks/__init__.py", "benchmarks/conftest.py",
                "tests/__init__.py", "tests/conftest.py",
            )
        )

    def test_findings_in_both_same_named_files_are_reported(self, tmp_path):
        # Outside a repro tree both files map to ``clock``; the digest
        # root reaches each Clock.tick through the CHA fallback.
        write_tree(tmp_path, {
            "sim/digest.py": (
                "def run_digest(timer):\n"
                "    return timer.tick()\n"
            ),
            "one/clock.py": self.CLOCK,
            "two/clock.py": self.CLOCK,
        })
        report = run_lint([tmp_path])
        assert [
            (pathlib.Path(v.path).parent.name, v.line, v.code)
            for v in report.violations
        ] == [("one", 4, "ANA001"), ("two", 4, "ANA001")]

    def test_per_file_rules_see_both_same_named_files(self, tmp_path):
        write_tree(tmp_path, {
            "a/repro/sim/clock.py": "import time\nnow = time.time()\n",
            "b/repro/sim/clock.py": "import time\nnow = time.time()\n",
        })
        report = run_lint([tmp_path])
        assert [
            (pathlib.Path(v.path).parents[2].name, v.code)
            for v in report.violations
        ] == [("a", "DET001"), ("b", "DET001")]


class TestSummaries:
    def build(self, tmp_path, files):
        return ProjectSummaries.build(ModuleGraph.build([write_tree(tmp_path, files)]))

    def test_qualnames_cover_methods_and_nested_defs(self, tmp_path):
        summaries = self.build(tmp_path, {
            "repro/sim/m.py": (
                "class Machine:\n"
                "    def run(self):\n"
                "        def inner():\n"
                "            return 1\n"
                "        return inner()\n"
                "def top():\n"
                "    return 2\n"
            ),
        })
        assert "repro.sim.m.Machine.run" in summaries.functions
        assert "repro.sim.m.Machine.run.inner" in summaries.functions
        assert "repro.sim.m.top" in summaries.functions
        assert summaries.functions["repro.sim.m.Machine.run"].cls == "Machine"

    def test_exact_cross_module_call_resolution(self, tmp_path):
        summaries = self.build(tmp_path, {
            "repro/sim/a.py": (
                "from repro.sim.b import helper\n"
                "def caller():\n"
                "    return helper()\n"
            ),
            "repro/sim/b.py": "def helper():\n    return 1\n",
        })
        caller = summaries.functions["repro.sim.a.caller"]
        assert [site.targets for site in caller.calls] == [("repro.sim.b.helper",)]

    def test_call_resolution_through_relative_import(self, tmp_path):
        summaries = self.build(tmp_path, {
            "repro/__init__.py": "",
            "repro/sim/__init__.py": "",
            "repro/sim/a.py": (
                "from . import b\n"
                "def caller():\n"
                "    return b.helper()\n"
            ),
            "repro/sim/b.py": "def helper():\n    return 1\n",
        })
        caller = summaries.functions["repro.sim.a.caller"]
        assert [site.targets for site in caller.calls] == [("repro.sim.b.helper",)]

    def test_self_method_and_nested_call_resolution(self, tmp_path):
        summaries = self.build(tmp_path, {
            "repro/sim/m.py": (
                "class M:\n"
                "    def run(self):\n"
                "        def inner():\n"
                "            return 0\n"
                "        return self.step() + inner()\n"
                "    def step(self):\n"
                "        return 1\n"
            ),
        })
        run = summaries.functions["repro.sim.m.M.run"]
        targets = {t for site in run.calls for t in site.targets}
        assert "repro.sim.m.M.step" in targets
        assert "repro.sim.m.M.run.inner" in targets

    def test_cha_fallback_for_attribute_calls(self, tmp_path):
        summaries = self.build(tmp_path, {
            "repro/sim/m.py": (
                "class Machine:\n"
                "    def run(self):\n"
                "        return 1\n"
                "def go(machine):\n"
                "    return machine.run()\n"
            ),
        })
        go = summaries.functions["repro.sim.m.go"]
        targets = {t for site in go.calls for t in site.targets}
        assert "repro.sim.m.Machine.run" in targets

    def test_cha_fallback_crosses_trees_only_along_imports(self, tmp_path):
        def targets_of_go(tree, importing):
            write_tree(tree / "src", {
                "repro/sim/m.py": (
                    ("import timing\n" if importing else "")
                    + "def go(cache):\n    return cache.load()\n"
                ),
                "repro/kernel/k.py": (
                    "class Store:\n"
                    "    def load(self):\n"
                    "        return 1\n"
                ),
            })
            write_tree(tree / "tools", {
                "timing.py": (
                    "class TimedCache:\n"
                    "    def load(self):\n"
                    "        return 2\n"
                ),
            })
            graph = ModuleGraph.build([tree / "src", tree / "tools"])
            go = ProjectSummaries.build(graph).functions["repro.sim.m.go"]
            return {t for site in go.calls for t in site.targets}

        assert targets_of_go(tmp_path / "plain", False) == {
            "repro.kernel.k.Store.load",
        }
        assert targets_of_go(tmp_path / "imports", True) == {
            "repro.kernel.k.Store.load", "timing.TimedCache.load",
        }

    def test_instantiation_resolves_to_init(self, tmp_path):
        summaries = self.build(tmp_path, {
            "repro/sim/m.py": (
                "class M:\n"
                "    def __init__(self):\n"
                "        self.x = 1\n"
                "def make():\n"
                "    return M()\n"
            ),
        })
        make = summaries.functions["repro.sim.m.make"]
        targets = {t for site in make.calls for t in site.targets}
        assert "repro.sim.m.M.__init__" in targets

    def test_sources_stay_in_their_own_scope(self, tmp_path):
        summaries = self.build(tmp_path, {
            "repro/sim/m.py": (
                "import time\n"
                "def outer():\n"
                "    def inner():\n"
                "        return time.time()\n"
                "    return inner()\n"
            ),
        })
        outer = summaries.functions["repro.sim.m.outer"]
        inner = summaries.functions["repro.sim.m.outer.inner"]
        assert outer.sources == []
        assert [display for _, display, _ in inner.sources] == ["time.time()"]

    def test_find_by_suffix_and_qualname(self, tmp_path):
        summaries = self.build(tmp_path, {
            "repro/sim/digest.py": "def run_digest(result):\n    return 1\n",
        })
        found = summaries.find("sim/digest.py", "run_digest")
        assert found is not None and found.key == "repro.sim.digest.run_digest"
        assert summaries.find("sim/digest.py", "missing") is None
