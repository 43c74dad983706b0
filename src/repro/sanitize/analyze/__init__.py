"""Whole-program static analysis (ANA001).

Layered on the per-file lint layer: a module/import graph
(:mod:`~repro.sanitize.analyze.graph`) and intraprocedural function
summaries with best-effort call resolution
(:mod:`~repro.sanitize.analyze.summaries`) make up the
:class:`~repro.sanitize.analyze.engine.Project` that the determinism
taint (ANA001, :mod:`~repro.sanitize.analyze.taint`) inspects.  It
registers in the lint layer's one rule registry and runs through the one
entry point, :func:`~repro.sanitize.analyze.engine.run_lint`, next to the
per-file rules, sharing their Violation shape, suppression syntax, and
reporters.

Cache-key and digest coverage and the pickle-safety of pool payloads are
checked at run time instead, by value: the field-perturbation tests of
``point_key_material`` and ``run_digest`` and the spawn-context pool
parity tests.
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
