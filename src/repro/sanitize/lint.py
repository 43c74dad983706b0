"""The lint layer: findings, parsed files, suppressions and the rule registry.

Every check -- a per-file rule (DET, OBS, KERN, PERF, ERR) or the
whole-program taint analysis (ANA001) -- registers here through the
:func:`rule` decorator with a code, a one-line summary and the path scope
it enforces; ``project=True`` marks a check that sees the whole
:class:`~repro.sanitize.analyze.engine.Project` instead of one file.
The rule's *rationale* is the first paragraph of its docstring -- that
is what ``repro lint --list-rules`` prints.  The one entry point,
:func:`repro.sanitize.analyze.engine.run_lint`, parses each file once
and runs both kinds.

Suppression syntax: ``# sanitize: ignore[CODE]`` (or ``ignore[A, B]``) on

* the flagged line or the line directly above it,
* any continuation line of the flagged multi-line statement, or
* for a flagged ``def``/``class``: any decorator line, any signature
  line, or the line above the first decorator.

::

    value = time.time()  # sanitize: ignore[DET001]
    # sanitize: ignore[DET002, OBS001]
    for core in cores: ...

An inline suppression is the one way to accept a finding.  Suppressed
findings are not dropped: they are reported with a ``suppressed`` flag
(and counted separately) so ``--format json`` consumers see the full
picture.
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.errors import ExperimentError

#: Paths (posix substrings) a rule may restrict itself to.  The lint pass
#: runs over whatever paths the caller names, but contract rules only fire
#: inside the subsystems whose contracts they encode.
SIM_KERNEL_SCOPE = ("repro/sim/", "repro/kernel/")
DECISION_SCOPE = (
    "repro/sim/",
    "repro/kernel/",
    "repro/core/",
    "repro/schedulers/",
)
#: Where sweep results are produced and merged; the deterministic-merge
#: contract (submission-order collection) is enforced here.
MERGE_SCOPE = ("repro/experiments/", "repro/parallel/")

_SUPPRESS_RE = re.compile(r"#\s*sanitize:\s*ignore\[([A-Z0-9,\s]+)\]")


@dataclass(frozen=True)
class Violation:
    """One rule hit at one source location.

    ``suppressed`` marks findings silenced by an inline
    ``# sanitize: ignore[CODE]`` comment -- they are reported (with the
    flag) but do not fail the run.  ``chain`` carries the source->sink
    call chain for interprocedural findings (one ``"qualname
    (path:line)"`` frame per hop); per-file lint rules leave it empty.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    suppressed: bool = False
    chain: tuple[str, ...] = ()

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.code)


@dataclass(frozen=True)
class Rule:
    """A registered check.

    ``check`` takes one :class:`ParsedModule` in ``scope``, or, when
    ``project`` is set, the whole
    :class:`~repro.sanitize.analyze.engine.Project` (whose analyses
    match their own modules, so ``scope`` only documents them).
    """

    code: str
    summary: str
    rationale: str
    scope: tuple[str, ...]
    check: Callable[..., Iterable[Violation]]
    project: bool = False

    def applies_to(self, module: "ParsedModule") -> bool:
        return any(part in module.posix for part in self.scope)


@dataclass
class LintReport:
    """Outcome of one lint run.

    ``violations`` holds the *active* findings; ``suppressed`` the ones
    silenced by inline comments.  ``ok`` considers active findings only.
    """

    violations: list[Violation] = field(default_factory=list)
    suppressed: list[Violation] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def rationale_from_doc(doc: str | None) -> str:
    """First paragraph of a docstring, whitespace-collapsed."""
    if not doc:
        return ""
    paragraph = doc.strip().split("\n\n", 1)[0]
    return " ".join(paragraph.split())


class ParsedModule:
    """One parsed source file plus the lookups rules need.

    Attributes:
        path: Filesystem path as given by the caller.
        posix: Posix-normalised path string (what rule scopes match on).
        source: Raw file text.
        lines: Source split into lines (1-indexed via ``line(n)``).
        tree: The :mod:`ast` module tree; every node carries ``_san_parent``.
    """

    def __init__(self, path: pathlib.Path, source: str, tree: ast.Module) -> None:
        self.path = str(path)
        self.posix = path.as_posix()
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                child._san_parent = node  # type: ignore[attr-defined]
        tree._san_parent = None  # type: ignore[attr-defined]

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def parents(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module root."""
        current = getattr(node, "_san_parent", None)
        while current is not None:
            yield current
            current = getattr(current, "_san_parent", None)

    def suppressed_codes(self, lineno: int) -> set[str]:
        """Codes suppressed for ``lineno`` (same line or the line above)."""
        codes: set[str] = set()
        for candidate in (lineno, lineno - 1):
            match = _SUPPRESS_RE.search(self.line(candidate))
            if match:
                codes.update(
                    code.strip() for code in match.group(1).split(",") if code.strip()
                )
        return codes

    def _suppression_lines(self, node: ast.AST) -> Iterator[int]:
        """Line numbers whose comments may suppress a finding on ``node``.

        The scan covers the enclosing *statement*, so a trailing comment
        on any continuation line of a multi-line call (or above the first
        decorator of a flagged ``def``) works, not just the exact line the
        violation anchors to.
        """
        stmt: ast.stmt | None = node if isinstance(node, ast.stmt) else None
        if stmt is None:
            for parent in self.parents(node):
                if isinstance(parent, ast.stmt):
                    stmt = parent
                    break
        lineno = getattr(node, "lineno", 0)
        if stmt is None:
            yield lineno - 1
            yield lineno
            return
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            # A flagged def/class (or its decorators/signature): scan the
            # decorator lines and the signature, never the whole body.
            first = min(
                [stmt.lineno] + [d.lineno for d in stmt.decorator_list]
            )
            last = stmt.body[0].lineno - 1 if stmt.body else stmt.lineno
        else:
            first = stmt.lineno
            last = getattr(stmt, "end_lineno", None) or stmt.lineno
        yield first - 1
        yield from range(first, last + 1)

    def suppressed_codes_for(self, node: ast.AST) -> set[str]:
        """Codes suppressed anywhere in ``node``'s statement extent."""
        codes: set[str] = set()
        for lineno in self._suppression_lines(node):
            match = _SUPPRESS_RE.search(self.line(lineno))
            if match:
                codes.update(
                    code.strip() for code in match.group(1).split(",") if code.strip()
                )
        return codes

    def violation(
        self,
        node: ast.AST,
        code: str,
        message: str,
        chain: tuple[str, ...] = (),
    ) -> Violation:
        """Build a :class:`Violation`, resolving suppression on the spot."""
        return Violation(
            path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
            suppressed=code in self.suppressed_codes_for(node),
            chain=chain,
        )


_REGISTRY: dict[str, Rule] = {}


def rule(
    code: str, summary: str, scope: tuple[str, ...], *, project: bool = False
) -> Callable:
    """Register a check function under ``code`` (decorator).

    The rule's rationale -- what ``--list-rules`` prints -- is the first
    paragraph of the decorated function's docstring.  ``project=True``
    registers a whole-program analysis (see :class:`Rule`).
    """

    def register(check: Callable[..., Iterable[Violation]]):
        if code in _REGISTRY:
            raise ValueError(f"duplicate lint rule code {code}")
        _REGISTRY[code] = Rule(
            code=code, summary=summary,
            rationale=rationale_from_doc(check.__doc__),
            scope=scope, check=check, project=project,
        )
        return check

    return register


def registered_rules() -> list[Rule]:
    """All rules, sorted by code (imports the rule modules on first use)."""
    # Registration side effects: per-file rules, then the ANA analysis.
    import repro.sanitize.rules  # noqa: F401
    import repro.sanitize.analyze.taint  # noqa: F401

    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def iter_python_files(
    paths: Iterable[str | pathlib.Path],
) -> Iterator[tuple[pathlib.Path, pathlib.Path]]:
    """Expand files/directories into a deterministic list of ``.py`` files.

    Yields ``(root, file)``: each file with the named path it was found
    under.  A file named twice (directly or through overlapping
    directories) is yielded once, under the first.

    Raises:
        ExperimentError: for a path that does not exist, or that is
            neither a directory nor a ``.py`` file -- a mistyped path
            must not pass the gate as "0 files checked".
    """
    seen: set[pathlib.Path] = set()
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            found = sorted(p for p in path.rglob("*.py") if p.is_file())
        elif path.is_file() and path.suffix == ".py":
            found = [path]
        elif not path.exists():
            raise ExperimentError(f"lint path {path} does not exist")
        else:
            raise ExperimentError(
                f"lint path {path} is neither a directory nor a .py file"
            )
        for file in found:
            if file.resolve() not in seen:
                seen.add(file.resolve())
                yield path, file


def parse_module(path: pathlib.Path) -> ParsedModule | Violation:
    """Parse one file; unparseable source becomes a PARSE violation."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return Violation(
            path=str(path),
            line=exc.lineno or 0,
            col=exc.offset or 0,
            code="PARSE",
            message=f"syntax error: {exc.msg}",
        )
    return ParsedModule(path, source, tree)
