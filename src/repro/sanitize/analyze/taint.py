"""ANA001: interprocedural determinism taint into digest-relevant state.

DET001 flags nondeterminism sources *syntactically*, file by file, inside
the decision-path scope.  ANA001 is its whole-program superset: starting
from the digest-relevant sink roots (``run_digest``, ``Machine.run``,
``evaluate_mix``), it walks the call graph and reports every wall-clock,
entropy, global-RNG, or environment read reachable from them -- wherever
it lives -- with the full source->sink call chain attached to the
finding.

Observational subsystems (``repro/obs``, ``repro/sanitize``) are excluded
from propagation: telemetry may read the wall clock by design, and none
of it feeds digests (run digests hash behavioral fields only; see
DESIGN.md section 6).
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from repro.sanitize.lint import Violation, rule

from repro.sanitize.analyze.engine import Project
from repro.sanitize.analyze.summaries import FunctionSummary

#: Digest-relevant sink roots: functions whose transitive callees define
#: run outcomes.  ``(module posix suffix, qualname)``.
SINK_ROOTS = (
    ("sim/digest.py", "run_digest"),
    ("sim/machine.py", "Machine.run"),
    ("experiments/runner.py", "evaluate_mix"),
)

#: Module-path fragments excluded from propagation (observational code).
EXCLUDED_REGIONS = ("/obs/", "/sanitize/")


def _excluded(summary: FunctionSummary) -> bool:
    return any(fragment in summary.posix for fragment in EXCLUDED_REGIONS)


def _reach(project: Project, root_key: str) -> tuple[list[str], dict[str, str | None]]:
    """BFS over callees from ``root_key``; returns (order, parent-links)."""
    parent: dict[str, str | None] = {root_key: None}
    order: list[str] = [root_key]
    queue: deque[str] = deque([root_key])
    while queue:
        key = queue.popleft()
        for site in project.summaries.functions[key].calls:
            for target in site.targets:
                if target in parent:
                    continue
                if _excluded(project.summaries.functions[target]):
                    continue
                parent[target] = key
                order.append(target)
                queue.append(target)
    return order, parent


def _chain(
    project: Project, parent: dict[str, str | None], key: str
) -> tuple[str, ...]:
    """Call-chain frames root-first: ``"qualname (path:line)"``."""
    frames: list[str] = []
    current: str | None = key
    while current is not None:
        summary = project.summaries.functions[current]
        frames.append(f"{summary.qualname} ({summary.posix}:{summary.line})")
        current = parent[current]
    return tuple(reversed(frames))


@rule(
    "ANA001",
    "no nondeterminism source reachable from digest-relevant code",
    ("repro/",),
    project=True,
)
def ana001(project: Project) -> Iterator[Violation]:
    """Run digests (and the cache keys derived from them) are only
    trustworthy if nothing reachable from the digest-relevant entry
    points reads ambient state; a wall-clock, entropy, global-RNG, or
    environment read anywhere in that call closure makes bit-identity
    claims unsound even when the offending line sits outside the
    per-file DET001 scope.

    Findings anchor at the source call site (suppress there) and carry
    the root->source call chain.
    """
    reported: set[tuple[str, int, int]] = set()
    for suffix, qualname in SINK_ROOTS:
        root = project.summaries.find(suffix, qualname)
        if root is None or _excluded(root):
            continue
        order, parent = _reach(project, root.key)
        for key in order:
            summary = project.summaries.functions[key]
            for node, display, message in summary.sources:
                location = (
                    summary.posix,
                    getattr(node, "lineno", 0),
                    getattr(node, "col_offset", 0),
                )
                if location in reported:
                    continue
                reported.add(location)
                yield summary.pm.violation(
                    node,
                    "ANA001",
                    f"{display} taints digest-relevant {root.qualname}: "
                    f"{message}",
                    chain=_chain(project, parent, key),
                )
