"""The lint rules: repo contracts encoded as AST checks.

Each rule registers itself with :func:`repro.sanitize.lint.rule`,
declaring its code, a one-line summary (shown by ``repro lint
--list-rules``), and the path scope it enforces.  The rule's rationale is
the first paragraph of its docstring.  See EXPERIMENTS.md for the full
catalogue with suppression examples.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.sanitize.astutil import (
    classify_source_call,
    dotted_name,
    import_aliases,
    is_set_like,
)
from repro.sanitize.lint import (
    DECISION_SCOPE,
    MERGE_SCOPE,
    SIM_KERNEL_SCOPE,
    ParsedModule,
    Violation,
    rule,
)

# ----------------------------------------------------------------------
# DET001 -- wall clock / unseeded RNG
# ----------------------------------------------------------------------


@rule(
    "DET001",
    "no wall-clock or unseeded-RNG calls in simulation code",
    DECISION_SCOPE + ("repro/obs/timeseries.py", "repro/obs/probe.py"),
)
def det001(module: ParsedModule) -> Iterator[Violation]:
    """Outcomes must be a pure function of (workload, topology, scheduler,
    seed); any wall-clock read or global/unseeded RNG breaks run-to-run
    reproducibility and invalidates scheduler comparisons.  The scope
    includes the sim-time timeline sampler and the probe seam the engine
    drives it through: timeline samples carry simulated time only.

    The interprocedural companion is ANA001 (in the same ``repro lint``
    pass), which tracks the same sources through call chains into
    digest-relevant state project-wide.
    """
    aliases = import_aliases(module.tree)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func, aliases)
        if name is None:
            continue
        message = classify_source_call(name, node)
        if message is not None:
            yield module.violation(node, "DET001", message)


# ----------------------------------------------------------------------
# DET002 -- unordered iteration in decision paths
# ----------------------------------------------------------------------


def _enclosing_scope(module: ParsedModule, node: ast.AST) -> ast.AST:
    for parent in module.parents(node):
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return parent
    return module.tree


def _set_bound_names(module: ParsedModule) -> dict[ast.AST, set[str]]:
    """Per-scope names assigned from a set-like expression."""
    bound: dict[ast.AST, set[str]] = {}
    for node in ast.walk(module.tree):
        value = None
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        if value is None or not is_set_like(value):
            continue
        scope = _enclosing_scope(module, node)
        for target in targets:
            if isinstance(target, ast.Name):
                bound.setdefault(scope, set()).add(target.id)
    return bound


@rule(
    "DET002",
    "no iteration over unordered sets in scheduling-decision paths",
    DECISION_SCOPE,
)
def det002(module: ParsedModule) -> Iterator[Violation]:
    """Python set iteration order depends on insertion history and hashing;
    a pick or balance decision driven by it silently varies between
    equivalent runs.  Iterate sorted(...) or a tid-keyed structure.
    """
    bound = _set_bound_names(module)

    def is_unordered(expr: ast.AST, scope: ast.AST) -> bool:
        if is_set_like(expr):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in bound.get(scope, set()) or expr.id in bound.get(
                module.tree, set()
            )
        if isinstance(expr, ast.Attribute) and expr.attr == "affinity":
            return True  # task.affinity is a frozenset
        return False

    seen: set[tuple[int, int]] = set()

    def flag(expr: ast.AST, node: ast.AST) -> Iterator[Violation]:
        scope = _enclosing_scope(module, node)
        if is_unordered(expr, scope):
            location = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))
            if location not in seen:
                seen.add(location)
                yield module.violation(
                    node, "DET002",
                    "iteration over an unordered set in a decision path; "
                    "wrap with sorted(...) to fix the order",
                )

    for node in ast.walk(module.tree):
        if isinstance(node, ast.For):
            yield from flag(node.iter, node)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                yield from flag(generator.iter, node)


# ----------------------------------------------------------------------
# DET003 -- no completion-order iteration over executor futures
# ----------------------------------------------------------------------

_AS_COMPLETED = {"concurrent.futures.as_completed", "asyncio.as_completed"}


@rule(
    "DET003",
    "no completion-order iteration over executor futures",
    MERGE_SCOPE,
)
def det003(module: ParsedModule) -> Iterator[Violation]:
    """Parallel sweeps must merge results keyed by evaluation point in
    submission order; anything driven by as_completed() order -- which
    depends on host load and OS scheduling -- silently varies between
    runs and breaks the serial/parallel bit-identity contract.
    """
    aliases = import_aliases(module.tree)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func, aliases)
        if name in _AS_COMPLETED:
            yield module.violation(
                node, "DET003",
                f"{name}() yields futures in completion order; collect "
                "futures in a submission-ordered list and merge results "
                "keyed by evaluation point",
            )


# ----------------------------------------------------------------------
# KERN001 -- runqueue internals are RunQueue's business
# ----------------------------------------------------------------------

_RQ_PRIVATE_ATTRS = {"_entries", "_keys"}


@rule(
    "KERN001",
    "no runqueue mutation outside RunQueue methods",
    DECISION_SCOPE,
)
def kern001(module: ParsedModule) -> Iterator[Violation]:
    """RunQueue keeps two structures (entries, key map) plus the task's
    rq_core_id in lockstep; touching any of them from outside
    desynchronises the bookkeeping the schedulers rely on.
    """
    if module.posix.endswith("kernel/runqueue.py"):
        return
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Attribute) and node.attr in _RQ_PRIVATE_ATTRS:
            yield module.violation(
                node, "KERN001",
                f"access to runqueue internal .{node.attr} outside RunQueue; "
                "use the public enqueue/dequeue/tasks API",
            )
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "min_vruntime"
                ):
                    yield module.violation(
                        target, "KERN001",
                        "direct write to min_vruntime outside RunQueue; "
                        "use update_min_vruntime()",
                    )


# ----------------------------------------------------------------------
# PERF001 -- no per-event allocations in hot-loop functions
# ----------------------------------------------------------------------

#: Functions that run once per simulator event (or per dispatch): the
#: single-run hot loop.  The underscored names are Machine internals;
#: ``Engine.run``, the event loop, is named with its class because
#: ``Machine.run`` runs once per simulation.
_PERF_HOT_FUNCTIONS = {"_dispatch", "_account", "_advance", "Engine.run"}


@rule(
    "PERF001",
    "no comprehensions or sorted() in per-event hot functions",
    SIM_KERNEL_SCOPE,
)
def perf001(module: ParsedModule) -> Iterator[Violation]:
    """Machine._dispatch/_account/_advance and Engine.run's loop execute
    once per simulator event; a list/dict/set comprehension, generator
    expression, or sorted() call there allocates (or sorts) on every
    event and regresses single-run speed for all sweeps at once.  Hoist
    the work out of the loop or keep an incrementally maintained
    structure.
    """
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    qualified = {
        item: f"{node.name}.{item.name}"
        for node in ast.walk(module.tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, functions)
    }
    for node in ast.walk(module.tree):
        if not isinstance(node, functions):
            continue
        if (
            node.name not in _PERF_HOT_FUNCTIONS
            and qualified.get(node) not in _PERF_HOT_FUNCTIONS
        ):
            continue
        for inner in ast.walk(node):
            if isinstance(
                inner,
                (ast.ListComp, ast.DictComp, ast.SetComp, ast.GeneratorExp),
            ):
                yield module.violation(
                    inner, "PERF001",
                    f"comprehension inside hot function {node.name}() "
                    "allocates per event; hoist it out of the event loop",
                )
            elif (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Name)
                and inner.func.id == "sorted"
            ):
                yield module.violation(
                    inner, "PERF001",
                    f"sorted() inside hot function {node.name}() re-sorts "
                    "per event; maintain an ordered structure instead",
                )


# ----------------------------------------------------------------------
# ERR001 -- no bare/blanket except in sim/kernel
# ----------------------------------------------------------------------

_BLANKET = {"Exception", "BaseException"}


def _blanket_names(node: ast.expr | None) -> Iterator[str]:
    if node is None:
        return
    candidates = node.elts if isinstance(node, ast.Tuple) else [node]
    for candidate in candidates:
        if isinstance(candidate, ast.Name) and candidate.id in _BLANKET:
            yield candidate.id
        elif isinstance(candidate, ast.Attribute) and candidate.attr in _BLANKET:
            yield candidate.attr


@rule(
    "ERR001",
    "no bare or blanket `except` in sim/kernel",
    SIM_KERNEL_SCOPE,
)
def err001(module: ParsedModule) -> Iterator[Violation]:
    """A swallowed SimulationError/KernelError turns an invariant violation
    into a silently wrong result table; sim/kernel code must catch
    specific exception types and let the rest propagate.
    """
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield module.violation(
                node, "ERR001",
                "bare `except:` swallows every error including sanitizer "
                "and kernel failures; name the exception types",
            )
        else:
            for name in _blanket_names(node.type):
                yield module.violation(
                    node, "ERR001",
                    f"blanket `except {name}:` in sim/kernel; catch specific "
                    "ReproError subclasses instead",
                )
