"""ANA002/ANA003: coverage contracts between dataclasses and serializers.

Both analyses cross-check a *surface* (the fields of a dataclass) against
a *consumer* (the code that serialises it), so that adding a field forces
a decision: either it enters the key/digest computation, or it is named
on an explicit exclusion tuple with a rationale.  Silence -- a field the
serialiser neither reads nor excludes -- is the bug class these catch:
a sweep parameter that does not reach the cache key shares cache entries
between runs that should differ; a behavioural result field that never
reaches ``run_digest`` lets the simulator drift from the stored digests
unnoticed.

A field counts as *covered* when its name appears in the consumer module
as a dict-literal string key, as an attribute read, or inside any
module-level tuple/list assignment whose name ends in ``_FIELDS`` (the
exclusion-tuple convention: ``TELEMETRY_EXCLUDED_FIELDS``,
``DIGEST_EXCLUDED_FIELDS``, ...).

Both analyses go silent when their consumer module is not part of the
analysed path set, so fixture trees can exercise them in isolation.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.sanitize.lint import Violation, rule

from repro.sanitize.analyze.engine import Project
from repro.sanitize.analyze.graph import ModuleInfo


def dataclass_fields(cls_node: ast.ClassDef) -> list[tuple[str, ast.AnnAssign]]:
    """Public annotated fields of a (data)class body, in source order."""
    fields: list[tuple[str, ast.AnnAssign]] = []
    for stmt in cls_node.body:
        if (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and not stmt.target.id.startswith("_")
        ):
            fields.append((stmt.target.id, stmt))
    return fields


def covered_names(info: ModuleInfo) -> set[str]:
    """Field names the consumer module references (see module docstring)."""
    covered: set[str] = set()
    for node in ast.walk(info.module.tree):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    covered.add(key.value)
        elif isinstance(node, ast.Attribute):
            covered.add(node.attr)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id.endswith("_FIELDS")
                    and isinstance(node.value, (ast.Tuple, ast.List, ast.Set))
                ):
                    for element in node.value.elts:
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            covered.add(element.value)
    return covered


def _uncovered(
    project: Project,
    consumer: ModuleInfo,
    surfaces: tuple[tuple[str, str], ...],
) -> Iterator[tuple[ModuleInfo, str, str, ast.AnnAssign]]:
    covered = covered_names(consumer)
    for module_suffix, class_name in surfaces:
        located = project.graph.find_class(module_suffix, class_name)
        if located is None:
            continue
        info, cls_node = located
        for name, node in dataclass_fields(cls_node):
            if name not in covered:
                yield info, class_name, name, node


@rule(
    "ANA002",
    "every config/sweep field enters the cache key or a *_FIELDS exclusion",
    ("repro/parallel/", "repro/sim/", "repro/experiments/"),
    project=True,
)
def ana002(project: Project) -> Iterator[Violation]:
    """A cache hit asserts "this stored result is what the current run
    would compute" -- which is only true if every parameter the outcome
    can depend on is part of the key material; a MachineConfig or
    ExperimentContext field that fingerprint.py neither reads nor names
    on an exclusion tuple would let runs with different parameters
    silently share cache entries.
    """
    consumer = project.graph.find_by_suffix("parallel/fingerprint.py")
    if consumer is None:
        return
    surfaces = (
        ("sim/machine.py", "MachineConfig"),
        ("experiments/runner.py", "ExperimentContext"),
    )
    for info, class_name, name, node in _uncovered(project, consumer, surfaces):
        yield info.module.violation(
            node,
            "ANA002",
            f"{class_name}.{name} is neither cache-key material in "
            "fingerprint.py nor named on a *_FIELDS exclusion tuple; "
            "runs varying it would share cache entries",
        )


@rule(
    "ANA003",
    "every result field is hashed by run_digest or on a *_FIELDS exclusion",
    ("repro/sim/",),
    project=True,
)
def ana003(project: Project) -> Iterator[Violation]:
    """run_digest equality with the stored digests is the proof that a
    change keeps the simulator bit-identical; a RunResult or TaskStats
    field the digest neither hashes nor explicitly excludes is a blind
    spot where behaviour could drift without any test noticing.
    """
    consumer = project.graph.find_by_suffix("sim/digest.py")
    if consumer is None:
        return
    surfaces = (
        ("sim/machine.py", "RunResult"),
        ("sim/machine.py", "TaskStats"),
    )
    for info, class_name, name, node in _uncovered(project, consumer, surfaces):
        yield info.module.violation(
            node,
            "ANA003",
            f"{class_name}.{name} is neither hashed by run_digest nor "
            "named on a *_FIELDS exclusion tuple; drift in it would "
            "escape the stored digests",
        )
