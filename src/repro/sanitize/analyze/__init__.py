"""Whole-program static analyses (the ANA rule family).

Layered on the per-file lint layer: a module/import graph
(:mod:`~repro.sanitize.analyze.graph`) and intraprocedural function
summaries with best-effort call resolution
(:mod:`~repro.sanitize.analyze.summaries`) make up the
:class:`~repro.sanitize.analyze.engine.Project` that the analyses --
determinism taint (ANA001), fingerprint/digest coverage contracts
(ANA002/ANA003), and worker-payload pickle-safety (ANA004) -- inspect.
They register in the lint layer's one rule registry and run through the one
entry point, :func:`~repro.sanitize.analyze.engine.run_lint`, next to the
per-file rules, sharing their Violation shape, suppression syntax, and
reporters.
"""

from repro.sanitize.analyze.engine import Project, run_lint
from repro.sanitize.analyze.graph import ModuleGraph
from repro.sanitize.analyze.summaries import ProjectSummaries

__all__ = [
    "ModuleGraph",
    "Project",
    "ProjectSummaries",
    "run_lint",
]
