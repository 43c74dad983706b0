"""ANA004: transitive pickle-safety of worker payload types.

Everything crossing the process boundary in ``parallel/executor.py`` --
pool ``initargs``, submit-call arguments, and the result tuples workers
send back -- travels through pickle.  A lock, tracer handle, generator,
or lambda smuggled in (directly, or three dataclass fields deep) fails at
runtime on the *worker*, usually only under a parallel configuration the
unit tests never exercise.  ANA004 proves the closure statically: every
payload root's annotated types must bottom out in picklable builtins or
slots/dataclass types whose fields recurse safely.

Payload roots are found syntactically in the executor module: functions
passed as the first argument to any ``.submit(...)`` call (parameters and
return annotation both checked -- results travel back through the same
pipe), functions passed via an ``initializer=`` keyword, and a function
named ``_init_worker`` (parameters only).  Unannotated payload
parameters are findings too: an unverifiable payload is not a safe one.

Unknown *external* types (numpy arrays, stdlib value types) are trusted;
only known-unsafe leaves (callables, generators, locks, IO handles,
tracer/registry/ledger handles) and opaque ``Any``/``object``
annotations are flagged.  Project-local classes must be dataclasses or
define ``__slots__``, and their fields recurse.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.sanitize.astutil import dotted_name
from repro.sanitize.lint import Violation, rule

from repro.sanitize.analyze.engine import Project
from repro.sanitize.analyze.graph import ModuleInfo

#: Builtin/stdlib leaves that always pickle.
SAFE_LEAVES = {
    "int", "float", "str", "bool", "bytes", "bytearray", "complex", "None",
    "NoneType",
}
#: Container heads: safe iff every type argument is safe.
CONTAINERS = {
    "dict", "list", "tuple", "set", "frozenset",
    "typing.Dict", "typing.List", "typing.Tuple", "typing.Set",
    "typing.FrozenSet", "typing.Optional", "typing.Union",
}
#: Opaque annotations: nothing can be proven about them.
OPAQUE = {"object", "typing.Any", "Any"}
#: Known-unsafe leaf names (matched on the bare trailing name).
UNSAFE_LEAVES = {
    "Callable", "Generator", "Iterator", "Iterable", "Coroutine",
    "Awaitable", "AsyncGenerator", "AsyncIterator",
    "Lock", "RLock", "Condition", "Event", "Semaphore", "BoundedSemaphore",
    "Barrier", "Thread", "Connection", "socket",
    "IO", "TextIO", "BinaryIO", "TextIOWrapper", "BufferedReader",
    "EventTracer", "MetricsRegistry", "RunLedger",
}
#: Dotted prefixes that are never pickle-safe payload material.
UNSAFE_PREFIXES = ("threading.", "multiprocessing.", "sqlite3.", "socket.")


def _is_dataclass_or_slots(cls_node: ast.ClassDef) -> bool:
    for decorator in cls_node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name == "dataclass":
            return True
    for stmt in cls_node.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


class _Finding:
    __slots__ = ("info", "node", "message", "chain")

    def __init__(self, info, node, message, chain):
        self.info = info
        self.node = node
        self.message = message
        self.chain = tuple(chain)


class _PayloadChecker:
    """Recursive annotation walker with cycle protection."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.visiting: set[str] = set()
        self.findings: list[_Finding] = []
        self._seen: set[tuple[str, int, int, str]] = set()

    # -- lookup --------------------------------------------------------

    def _lookup(self, full: str, info: ModuleInfo):
        """Resolve a dotted name to ``("class"| "alias", info, node)``."""
        candidates: list[tuple[ModuleInfo, str]] = []
        if "." in full:
            module_name, symbol = full.rsplit(".", 1)
            target = self.project.graph.modules.get(module_name)
            if target is not None:
                candidates.append((target, symbol))
        else:
            candidates.append((info, full))
        for target, symbol in candidates:
            for stmt in target.module.tree.body:
                if isinstance(stmt, ast.ClassDef) and stmt.name == symbol:
                    return "class", target, stmt
                if isinstance(stmt, ast.Assign):
                    for assign_target in stmt.targets:
                        if (
                            isinstance(assign_target, ast.Name)
                            and assign_target.id == symbol
                        ):
                            return "alias", target, stmt.value
        return None

    # -- findings ------------------------------------------------------

    def _flag(self, info: ModuleInfo, node: ast.AST, message: str, chain) -> None:
        key = (
            info.posix,
            getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0),
            message,
        )
        if key not in self._seen:
            self._seen.add(key)
            self.findings.append(_Finding(info, node, message, chain))

    # -- recursion -----------------------------------------------------

    def check_annotation(
        self, annotation: ast.expr | None, info: ModuleInfo, chain: list[str]
    ) -> None:
        if annotation is None:
            return
        if isinstance(annotation, ast.Constant):
            if annotation.value is None:
                return
            if isinstance(annotation.value, str):
                try:
                    parsed = ast.parse(annotation.value, mode="eval")
                except SyntaxError:
                    return
                self.check_annotation(parsed.body, info, chain)
            return
        if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
            self.check_annotation(annotation.left, info, chain)
            self.check_annotation(annotation.right, info, chain)
            return
        if isinstance(annotation, ast.Subscript):
            head = dotted_name(annotation.value, info.aliases)
            if head is not None and head.rsplit(".", 1)[-1] in (
                "Callable", "Generator", "Iterator", "Coroutine",
            ):
                self._flag(
                    info, annotation,
                    f"{head}[...] cannot cross the process boundary",
                    chain,
                )
                return
            elements = (
                annotation.slice.elts
                if isinstance(annotation.slice, ast.Tuple)
                else [annotation.slice]
            )
            for element in elements:
                self.check_annotation(element, info, chain)
            return
        name = dotted_name(annotation, info.aliases)
        if name is None:
            return
        self.check_name(name, annotation, info, chain)

    def check_name(
        self, full: str, node: ast.AST, info: ModuleInfo, chain: list[str]
    ) -> None:
        leaf = full.rsplit(".", 1)[-1]
        if full in SAFE_LEAVES or full in CONTAINERS or leaf == "Ellipsis":
            return
        if full in OPAQUE:
            self._flag(
                info, node,
                f"opaque annotation {full} makes the payload unverifiable; "
                "use a concrete picklable type",
                chain,
            )
            return
        if leaf in UNSAFE_LEAVES or full.startswith(UNSAFE_PREFIXES):
            self._flag(
                info, node,
                f"{full} is not pickle-safe worker-payload material",
                chain,
            )
            return
        located = self._lookup(full, info)
        if located is None:
            return  # unknown external type: trusted (numpy, stdlib values)
        kind, target_info, target_node = located
        if kind == "alias":
            self.check_annotation(target_node, target_info, chain)
            return
        if full in self.visiting:
            return  # recursive type: already being proven
        self.visiting.add(full)
        try:
            cls_node = target_node
            if not _is_dataclass_or_slots(cls_node):
                self._flag(
                    target_info, cls_node,
                    f"payload type {cls_node.name} is neither a dataclass "
                    "nor a __slots__ class; its pickle closure cannot be "
                    "proven",
                    chain,
                )
                return
            for stmt in cls_node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    field_chain = chain + [
                        f"{cls_node.name}.{stmt.target.id} "
                        f"({target_info.posix}:{stmt.lineno})"
                    ]
                    self.check_annotation(
                        stmt.annotation, target_info, field_chain
                    )
        finally:
            self.visiting.discard(full)


def _payload_roots(
    info: ModuleInfo,
) -> Iterator[tuple[ast.FunctionDef, bool]]:
    """``(function, check_return)`` payload entry points in the module."""
    by_name = {
        stmt.name: stmt
        for stmt in info.module.tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    seen: set[str] = set()

    def emit(name: str, check_return: bool):
        if name in by_name and name not in seen:
            seen.add(name)
            yield by_name[name], check_return

    for node in ast.walk(info.module.tree):
        if not isinstance(node, ast.Call):
            continue
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"
            and node.args
            and isinstance(node.args[0], ast.Name)
        ):
            yield from emit(node.args[0].id, True)
        for keyword in node.keywords:
            if keyword.arg == "initializer" and isinstance(
                keyword.value, ast.Name
            ):
                yield from emit(keyword.value.id, False)
    yield from emit("_init_worker", False)


@rule(
    "ANA004",
    "worker payload types are transitively pickle-safe",
    ("repro/parallel/",),
    project=True,
)
def ana004(project: Project) -> Iterator[Violation]:
    """Pool initargs and point payloads fail at runtime -- on a worker,
    under a parallel configuration unit tests may never exercise -- if
    any type in their closure holds a lock, tracer handle, generator, or
    lambda; proving the slots/dataclass closure statically moves that
    failure to CI.
    """
    consumer = project.graph.find_by_suffix("parallel/executor.py")
    if consumer is None:
        return
    checker = _PayloadChecker(project)
    for fn, check_return in _payload_roots(consumer):
        root = f"{fn.name} ({consumer.posix}:{fn.lineno})"
        arguments = fn.args
        positional = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
        for argument in positional:
            if argument.arg in ("self", "cls"):
                continue
            chain = [root, f"parameter {argument.arg}"]
            if argument.annotation is None:
                checker._flag(
                    consumer, argument,
                    f"payload parameter {fn.name}({argument.arg}) has no "
                    "annotation; pickle-safety cannot be verified",
                    chain,
                )
                continue
            checker.check_annotation(argument.annotation, consumer, chain)
        if check_return and fn.returns is not None:
            checker.check_annotation(
                fn.returns, consumer, [root, "return value"]
            )
    for finding in checker.findings:
        yield finding.info.module.violation(
            finding.node, "ANA004", finding.message, chain=finding.chain
        )
