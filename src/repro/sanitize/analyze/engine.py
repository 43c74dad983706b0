"""The one static checker: parse once, run every registered rule.

:func:`run_lint` is what ``repro lint`` calls.  It builds the
:class:`~repro.sanitize.analyze.graph.ModuleGraph` once -- every file
parsed a single time by the lint layer's
:func:`~repro.sanitize.lint.parse_module` -- then runs each per-file
rule on every parsed file in that rule's scope, and each whole-program
analysis (the ANA family) on the :class:`Project`: the graph plus
:class:`~repro.sanitize.analyze.summaries.ProjectSummaries`.  Both kinds
produce the same :class:`~repro.sanitize.lint.Violation` objects and
honour the same ``# sanitize: ignore[CODE]`` suppressions (an analysis
resolves them at its finding's anchor site), so one sorted
:class:`~repro.sanitize.lint.LintReport` comes back.  An inline
suppression is the one way to accept a finding.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Iterable

from repro.sanitize.lint import LintReport, Violation, registered_rules

from repro.sanitize.analyze.graph import ModuleGraph
from repro.sanitize.analyze.summaries import ProjectSummaries


@dataclass
class Project:
    """Everything an analysis may inspect."""

    graph: ModuleGraph
    summaries: ProjectSummaries


def run_lint(paths: Iterable[str | pathlib.Path]) -> LintReport:
    """Run every registered rule and analysis over ``paths``.

    Raises:
        ExperimentError: for a path that does not exist or is neither a
            directory nor a ``.py`` file.
    """
    graph = ModuleGraph.build(paths)
    project = Project(graph=graph, summaries=ProjectSummaries.build(graph))
    report = LintReport(files_scanned=graph.files_scanned)
    report.violations.extend(graph.parse_errors)
    for registered in registered_rules():
        if registered.project:
            found = list(registered.check(project))
        else:
            found = [
                violation
                for info in graph.modules.values()
                if registered.applies_to(info.module)
                for violation in registered.check(info.module)
            ]
        for violation in found:
            if violation.suppressed:
                report.suppressed.append(violation)
            else:
                report.violations.append(violation)
    report.violations.sort(key=Violation.sort_key)
    report.suppressed.sort(key=Violation.sort_key)
    return report
