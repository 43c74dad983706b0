"""Intraprocedural function summaries and best-effort call resolution.

The propagation engine works on one summary per function: the calls the
function makes (with resolved project-internal targets) and the
nondeterminism sources it contains.  A function's summary covers only
its *own* statements -- nested ``def``/``class`` bodies get summaries of
their own, addressed by parent-dotted qualnames (``outer.inner``,
``Machine.run``).

Call resolution is deliberately conservative-over-approximate:

1. exact dotted-name matches through import aliases
   (``run_digest(...)`` after ``from repro.sim.digest import run_digest``),
2. local prefixes (same module, enclosing function for nested defs,
   enclosing class for ``self.``/``cls.`` calls), including class
   instantiation resolving to ``__init__``,
3. a CHA-style fallback for unresolved attribute calls: ``x.foo(...)``
   may target any analysed method named ``foo`` in the caller's own tree
   (the lint path it was found under) or in a module the caller's module
   reaches through its imports.

Over-approximation is the right failure mode for taint: a spurious edge
can only add findings, never hide one.  The fallback's bound keeps one
lint pass over several trees equal to linting each alone: a benchmark
harness's ``TimedCache.load`` is no target of ``result_cache.load`` in
``src/repro``, which never imports the harness.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from repro.sanitize.astutil import classify_source_node
from repro.sanitize.lint import ParsedModule

from repro.sanitize.analyze.graph import ModuleGraph, ModuleInfo

_SCOPE_BOUNDARY = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass
class CallSite:
    """One call expression and the project functions it may target."""

    node: ast.Call
    targets: tuple[str, ...]


@dataclass
class FunctionSummary:
    """What the propagation engine knows about one function."""

    key: str  # f"{module}.{qualname}" -- globally unique
    qualname: str  # e.g. "Machine.run", "evaluate_mix", "outer.inner"
    module: str
    posix: str
    pm: ParsedModule
    node: ast.FunctionDef | ast.AsyncFunctionDef
    line: int
    cls: str | None  # enclosing class for methods
    calls: list[CallSite] = field(default_factory=list)
    #: ``(node, display, message)`` nondeterminism sources in own scope.
    sources: list[tuple[ast.AST, str, str]] = field(default_factory=list)


def own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """BFS over ``fn``'s body, stopping at nested def/class boundaries.

    Lambda bodies stay included: they execute in the enclosing
    function's dynamic extent often enough that excluding them would
    hide sources.
    """
    queue: deque[ast.AST] = deque(ast.iter_child_nodes(fn))
    while queue:
        node = queue.popleft()
        yield node
        if not isinstance(node, _SCOPE_BOUNDARY):
            queue.extend(ast.iter_child_nodes(node))


class ProjectSummaries:
    """Summaries for every function in a :class:`ModuleGraph`."""

    def __init__(self, graph: ModuleGraph) -> None:
        self.graph = graph
        self.functions: dict[str, FunctionSummary] = {}
        #: bare method name -> keys of every analysed method with it (CHA).
        self.methods_by_name: dict[str, list[str]] = {}
        #: module name -> modules it reaches through imports (itself too).
        self._reach: dict[str, set[str]] = {}

    @classmethod
    def build(cls, graph: ModuleGraph) -> "ProjectSummaries":
        self = cls(graph)
        for info in graph.modules.values():
            self._collect(info)
        for summary in self.functions.values():
            info = graph.modules[summary.module]
            self._resolve_calls(summary, info)
        return self

    # -- pass 1: enumerate functions -----------------------------------

    def _collect(self, info: ModuleInfo) -> None:
        def walk(node: ast.AST, prefix: str, cls_name: str | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}.{child.name}" if prefix else child.name
                    summary = FunctionSummary(
                        key=f"{info.name}.{qual}",
                        qualname=qual,
                        module=info.name,
                        posix=info.posix,
                        pm=info.module,
                        node=child,
                        line=child.lineno,
                        cls=cls_name,
                    )
                    self.functions[summary.key] = summary
                    if cls_name is not None:
                        self.methods_by_name.setdefault(child.name, []).append(
                            summary.key
                        )
                    walk(child, qual, None)
                elif isinstance(child, ast.ClassDef):
                    qual = f"{prefix}.{child.name}" if prefix else child.name
                    walk(child, qual, child.name)
                else:
                    walk(child, prefix, cls_name)

        walk(info.module.tree, "", None)

    # -- pass 2: resolve calls and collect sources ---------------------

    def _resolve_calls(self, summary: FunctionSummary, info: ModuleInfo) -> None:
        for node in own_nodes(summary.node):
            hit = classify_source_node(node, info.aliases)
            if hit is not None:
                key = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))
                if key not in {
                    (getattr(n, "lineno", 0), getattr(n, "col_offset", 0))
                    for n, _, _ in summary.sources
                }:
                    summary.sources.append((node, hit[0], hit[1]))
            if isinstance(node, ast.Call):
                targets = self._targets_for(node, summary, info)
                if targets:
                    summary.calls.append(CallSite(node=node, targets=targets))

    def _targets_for(
        self, call: ast.Call, summary: FunctionSummary, info: ModuleInfo
    ) -> tuple[str, ...]:
        from repro.sanitize.astutil import dotted_name

        dotted = dotted_name(call.func, info.aliases)
        found: list[str] = []
        if dotted is not None:
            candidates = [
                dotted,  # absolute (from-import alias resolves fully)
                f"{summary.module}.{summary.qualname}.{dotted}",  # nested def
                f"{summary.module}.{dotted}",  # same module
            ]
            if dotted.startswith(("self.", "cls.")) and summary.cls:
                leaf = dotted.split(".", 1)[1]
                if "." not in leaf:
                    candidates.append(f"{summary.module}.{summary.cls}.{leaf}")
            for candidate in candidates:
                if candidate in self.functions:
                    found.append(candidate)
                    break
                if f"{candidate}.__init__" in self.functions:
                    found.append(f"{candidate}.__init__")  # instantiation
                    break
        if not found and isinstance(call.func, ast.Attribute):
            found.extend(
                key
                for key in self.methods_by_name.get(call.func.attr, ())
                if self._may_call(summary.module, self.functions[key].module)
            )
        return tuple(dict.fromkeys(found))

    def _may_call(self, caller: str, callee: str) -> bool:
        """May a method fallback in ``caller`` land in ``callee``?

        Yes within one tree, and across trees only along the caller's
        imports.
        """
        modules = self.graph.modules
        if modules[caller].root == modules[callee].root:
            return True
        return callee in self._reachable(caller)

    def _reachable(self, module: str) -> set[str]:
        """``module`` and every analysed module its imports reach."""
        reach = self._reach.get(module)
        if reach is None:
            reach = {module}
            queue = deque([module])
            while queue:
                for name in self.graph.modules[queue.popleft()].imports:
                    if name not in reach:
                        reach.add(name)
                        queue.append(name)
            self._reach[module] = reach
        return reach

    # -- lookups -------------------------------------------------------

    def find(self, posix_suffix: str, qualname: str) -> FunctionSummary | None:
        """The function named ``qualname`` in the module at ``posix_suffix``."""
        for summary in self.functions.values():
            if summary.qualname == qualname and summary.posix.endswith(
                posix_suffix
            ):
                return summary
        return None
