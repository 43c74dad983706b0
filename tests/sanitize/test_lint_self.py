"""The repo's own source must pass its own lint (PR acceptance criterion)."""

from __future__ import annotations

import pathlib

from repro.sanitize import render_text, run_lint

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def test_source_tree_is_lint_clean():
    report = run_lint([SRC])
    assert report.files_scanned > 50
    assert report.ok, "\n" + render_text(report)
