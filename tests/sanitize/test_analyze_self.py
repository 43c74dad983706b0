"""Self-check: the repo's own source passes the ANA001 analysis (tier-1).

Like self-lint, this is the standing hygiene gate: the determinism taint
must hold on every commit.  A known finding is accepted only by an
inline ``# sanitize: ignore[CODE]`` at its site.
"""

from __future__ import annotations

import functools
import json
import pathlib

import repro
from repro.sanitize import render_json, render_sarif, run_lint

SRC = pathlib.Path(repro.__file__).resolve().parent


@functools.lru_cache(maxsize=1)
def checked_report():
    return run_lint([SRC])


class TestSelfAnalyze:
    def test_repo_source_is_clean_modulo_baseline(self):
        report = checked_report()
        details = "\n".join(
            f"{v.path}:{v.line} {v.code} {v.message}" for v in report.violations
        )
        assert report.files_scanned > 50
        assert report.ok, f"new analysis findings:\n{details}"


class TestSarif:
    def test_sarif_document_shape(self, tmp_path):
        tree = tmp_path / "repro" / "sim"
        tree.mkdir(parents=True)
        (tree / "digest.py").write_text(
            "import time\n"
            "def run_digest(result):\n"
            "    return _now()\n"
            "def _now():\n"
            "    return time.time()\n"
        )
        report = run_lint([tmp_path])
        document = json.loads(render_sarif(report))
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert "ANA001" in rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "ANA001"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("digest.py")
        assert location["region"]["startLine"] == 5
        # The interprocedural chain rides in codeFlows.
        flow = result["codeFlows"][0]["threadFlows"][0]["locations"]
        assert flow[0]["location"]["message"]["text"] == "run_digest"

    def test_suppressed_findings_carry_suppression_objects(self, tmp_path):
        tree = tmp_path / "repro" / "sim"
        tree.mkdir(parents=True)
        (tree / "digest.py").write_text(
            "import time\n"
            "def run_digest(result):\n"
            "    return time.time()  # sanitize: ignore[ANA001, DET001]\n"
        )
        report = run_lint([tmp_path])
        document = json.loads(render_sarif(report))
        result = document["runs"][0]["results"][0]
        assert result["suppressions"] == [{"kind": "inSource"}]

    def test_clean_report_has_no_results(self):
        report = checked_report()
        document = json.loads(render_sarif(report))
        assert document["runs"][0]["results"] == []


class TestSharedJsonSchema:
    def test_analyze_json_matches_lint_schema(self, tmp_path):
        # An environment read: an ANA001 source that DET001 does not flag.
        tree = tmp_path / "repro" / "sim"
        tree.mkdir(parents=True)
        (tree / "digest.py").write_text(
            "import os\n"
            "def run_digest(result):\n"
            "    return os.environ.get('HOME')\n"
        )
        payload = json.loads(render_json(run_lint([tmp_path])))
        assert payload["schema"] == 1
        assert payload["tool"] == "lint"
        assert payload["counts"] == {"active": 1, "suppressed": 0}
        violation = payload["violations"][0]
        assert set(violation) >= {
            "code", "path", "line", "col", "message", "suppressed",
        }
        assert violation["suppressed"] is False
        assert violation["chain"][0].startswith("run_digest")
