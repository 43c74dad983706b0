"""Lint engine mechanics: file discovery, suppressions, reporters, parsing."""

from __future__ import annotations

import json

from repro.sanitize import render_json, render_text, rule_catalogue, run_lint
from repro.sanitize.lint import registered_rules


def write_sim_file(tmp_path, name, source):
    """Place ``source`` under a path the sim-scope rules enforce."""
    target = tmp_path / "repro" / "sim" / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return target


class TestDiscoveryAndScope:
    def test_directory_expansion_and_file_count(self, tmp_path):
        write_sim_file(tmp_path, "a.py", "x = 1\n")
        write_sim_file(tmp_path, "b.py", "y = 2\n")
        (tmp_path / "notes.txt").write_text("not python\n")
        report = run_lint([tmp_path])
        assert report.files_scanned == 2
        assert report.ok

    def test_rules_do_not_fire_outside_their_scope(self, tmp_path):
        # Wall-clock call in a file outside repro/{sim,kernel,core,schedulers}.
        out_of_scope = tmp_path / "scripts" / "helper.py"
        out_of_scope.parent.mkdir(parents=True)
        out_of_scope.write_text("import time\nnow = time.time()\n")
        report = run_lint([out_of_scope])
        assert report.ok

    def test_single_file_argument(self, tmp_path):
        bad = write_sim_file(
            tmp_path, "clock.py", "import time\nnow = time.time()\n"
        )
        report = run_lint([bad])
        assert [v.code for v in report.violations] == ["DET001"]

    def test_syntax_error_reported_as_parse_violation(self, tmp_path):
        bad = write_sim_file(tmp_path, "broken.py", "def f(:\n")
        report = run_lint([bad])
        assert len(report.violations) == 1
        assert report.violations[0].code == "PARSE"
        assert not report.ok


class TestSuppressions:
    def test_same_line_suppression(self, tmp_path):
        write_sim_file(
            tmp_path, "s.py",
            "import time\n"
            "now = time.time()  # sanitize: ignore[DET001]\n",
        )
        assert run_lint([tmp_path]).ok

    def test_line_above_suppression(self, tmp_path):
        write_sim_file(
            tmp_path, "s.py",
            "import time\n"
            "# sanitize: ignore[DET001]\n"
            "now = time.time()\n",
        )
        assert run_lint([tmp_path]).ok

    def test_multi_code_suppression(self, tmp_path):
        write_sim_file(
            tmp_path, "s.py",
            "import time\n"
            "# sanitize: ignore[DET002, DET001]\n"
            "now = time.time()\n",
        )
        assert run_lint([tmp_path]).ok

    def test_wrong_code_does_not_suppress(self, tmp_path):
        write_sim_file(
            tmp_path, "s.py",
            "import time\n"
            "now = time.time()  # sanitize: ignore[OBS001]\n",
        )
        report = run_lint([tmp_path])
        assert [v.code for v in report.violations] == ["DET001"]


class TestSuppressionExtent:
    """Continuation lines and decorated defs (not just the flagged line)."""

    def test_comment_on_a_continuation_line(self, tmp_path):
        write_sim_file(
            tmp_path, "s.py",
            "import time\n"
            "value = max(\n"
            "    1.0,\n"
            "    time.time(),  # sanitize: ignore[DET001]\n"
            ")\n",
        )
        report = run_lint([tmp_path])
        assert report.ok
        assert [v.code for v in report.suppressed] == ["DET001"]

    def test_comment_on_the_statement_closing_line(self, tmp_path):
        write_sim_file(
            tmp_path, "s.py",
            "import time\n"
            "value = max(\n"
            "    1.0,\n"
            "    time.time(),\n"
            ")  # sanitize: ignore[DET001]\n",
        )
        assert run_lint([tmp_path]).ok

    def test_comment_above_a_multiline_statement(self, tmp_path):
        write_sim_file(
            tmp_path, "s.py",
            "import time\n"
            "# sanitize: ignore[DET001]\n"
            "value = max(\n"
            "    1.0,\n"
            "    time.time(),\n"
            ")\n",
        )
        assert run_lint([tmp_path]).ok

    def test_comment_above_decorators_of_a_flagged_def(self, tmp_path):
        # The flagged node sits inside a decorator, so only a comment
        # above the first decorator line precedes it.
        write_sim_file(
            tmp_path, "s.py",
            "import functools\n"
            "import time\n"
            "# sanitize: ignore[DET001]\n"
            "@functools.lru_cache(\n"
            "    maxsize=time.time_ns(),\n"
            ")\n"
            "def step():\n"
            "    return 1\n",
        )
        assert run_lint([tmp_path]).ok

    def test_comment_on_a_decorator_line(self, tmp_path):
        write_sim_file(
            tmp_path, "s.py",
            "import functools\n"
            "import time\n"
            "@functools.lru_cache(\n"
            "    maxsize=time.time_ns(),  # sanitize: ignore[DET001]\n"
            ")\n"
            "def step():\n"
            "    return 1\n",
        )
        assert run_lint([tmp_path]).ok

    def test_def_body_lines_do_not_suppress_the_def(self, tmp_path):
        # A suppression comment buried in the body must not silence a
        # finding anchored on the def/decorators.
        write_sim_file(
            tmp_path, "s.py",
            "import functools\n"
            "import time\n"
            "@functools.lru_cache(maxsize=time.time_ns())\n"
            "def step():\n"
            "    return 1  # sanitize: ignore[DET001]\n",
        )
        report = run_lint([tmp_path])
        assert [v.code for v in report.violations] == ["DET001"]

    def test_suppressed_findings_are_reported_with_flag(self, tmp_path):
        write_sim_file(
            tmp_path, "s.py",
            "import time\n"
            "now = time.time()  # sanitize: ignore[DET001]\n",
        )
        report = run_lint([tmp_path])
        assert report.ok
        assert len(report.suppressed) == 1
        assert report.suppressed[0].suppressed is True


class TestReporters:
    def test_text_report_format(self, tmp_path):
        write_sim_file(
            tmp_path, "clock.py", "import time\nnow = time.time()\n"
        )
        text = render_text(run_lint([tmp_path]))
        assert "clock.py:2:" in text
        assert "DET001" in text
        assert "1 file checked, 1 violation" in text

    def test_clean_text_report(self, tmp_path):
        write_sim_file(tmp_path, "ok.py", "x = 1\n")
        text = render_text(run_lint([tmp_path]))
        assert "no violations" in text

    def test_json_report_round_trips(self, tmp_path):
        write_sim_file(
            tmp_path, "clock.py", "import time\nnow = time.time()\n"
        )
        payload = json.loads(render_json(run_lint([tmp_path])))
        assert payload["files_scanned"] == 1
        assert payload["ok"] is False
        assert payload["violations"][0]["code"] == "DET001"
        assert payload["violations"][0]["line"] == 2

    def test_violations_sorted_by_location(self, tmp_path):
        write_sim_file(
            tmp_path, "z.py", "import time\nnow = time.time()\n"
        )
        write_sim_file(
            tmp_path, "a.py",
            "import time\na = time.time()\nb = time.monotonic()\n",
        )
        report = run_lint([tmp_path])
        keys = [v.sort_key() for v in report.violations]
        assert keys == sorted(keys)

    def test_json_schema_and_suppressed_counts(self, tmp_path):
        write_sim_file(
            tmp_path, "s.py",
            "import time\n"
            "a = time.time()\n"
            "b = time.time()  # sanitize: ignore[DET001]\n",
        )
        payload = json.loads(render_json(run_lint([tmp_path])))
        assert payload["schema"] == 1
        assert payload["tool"] == "lint"
        assert payload["counts"] == {"active": 1, "suppressed": 1}
        flags = [v["suppressed"] for v in payload["violations"]]
        assert flags == [False, True]  # active findings listed first

    def test_text_report_counts_suppressed(self, tmp_path):
        write_sim_file(
            tmp_path, "s.py",
            "import time\n"
            "now = time.time()  # sanitize: ignore[DET001]\n",
        )
        text = render_text(run_lint([tmp_path]))
        assert "no violations (1 suppressed)" in text

    def test_rule_catalogue_lists_all_codes(self):
        catalogue = rule_catalogue()
        for rule in registered_rules():
            assert rule.code in catalogue
        assert "# sanitize: ignore[CODE]" in catalogue

    def test_rule_catalogue_groups_by_family_with_rationales(self):
        catalogue = rule_catalogue()
        for heading in (
            "DET -- determinism",
            "OBS -- observability",
            "KERN -- kernel structure",
            "PERF -- hot-path performance",
            "ERR -- error handling",
            "ANA -- whole-program analyses",
        ):
            assert heading in catalogue
        # Rationales come from the check functions' docstrings.
        assert "pure function of (workload, topology, scheduler" in catalogue
        assert "ANA001" in catalogue
