"""Module/import graph: the first layer of the whole-program analyses.

Every analysed file is parsed once (reusing the lint engine's
:func:`~repro.sanitize.lint.parse_module`, so ``_san_parent`` links and
suppression handling come for free) and given a dotted module name
derived from its path (rooted at the last ``repro`` path component, so
both ``src/repro/...`` checkouts and fixture trees under ``tmp/repro/...``
resolve to the same names).  A file whose name an earlier file already
took (two ``conftest.py`` files, or ``__init__.py`` files outside a
``repro`` tree) is named by its full path instead, so every parsed file
stays in the graph.  The graph also records which analysed modules
import which, giving the analyses a cheap dependency view.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from typing import Iterable

from repro.sanitize.astutil import import_aliases
from repro.sanitize.lint import ParsedModule, Violation, iter_python_files, parse_module


def _relative_import_base(
    name: str, is_package: bool, node: ast.ImportFrom
) -> str | None:
    """Absolute dotted base for a relative ``from``-import, or ``None``.

    ``from . import helper`` inside ``repro.sim.digest`` resolves to
    ``repro.sim``; ``from ..model import speedup`` to ``repro.model``.
    Returns ``None`` when the import climbs above the analysed root.
    """
    parts = name.split(".")
    if not is_package:
        parts = parts[:-1]
    up = node.level - 1
    if up:
        if up >= len(parts):
            return None
        parts = parts[:-up]
    if node.module:
        parts += node.module.split(".")
    return ".".join(parts) or None


def module_name_for(path: pathlib.Path) -> str:
    """Dotted module name for ``path``, rooted at its last ``repro`` part.

    Outside any ``repro`` tree a module is named by its stem, and an
    ``__init__.py`` by its parent directory.
    """
    parts = list(path.parts)
    anchors = [i for i, part in enumerate(parts) if part == "repro"]
    rel = parts[anchors[-1]:] if anchors else [parts[-1]]
    leaf = rel[-1]
    if leaf.endswith(".py"):
        leaf = leaf[:-3]
    rel = list(rel[:-1]) + [leaf]
    if rel[-1] == "__init__":
        rel = rel[:-1] or [path.absolute().parent.name]
    return ".".join(rel)


@dataclass
class ModuleInfo:
    """One analysed module: parse result plus import metadata."""

    name: str
    path: pathlib.Path
    #: The lint path this file was found under (its tree).
    root: pathlib.Path
    posix: str
    module: ParsedModule
    #: Local name -> fully qualified origin (``{"np": "numpy"}``).
    aliases: dict[str, str] = field(default_factory=dict)
    #: Dotted names of *analysed* modules this one imports.
    imports: set[str] = field(default_factory=set)


class ModuleGraph:
    """Every parsed file, keyed by a unique dotted name."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.parse_errors: list[Violation] = []
        self.files_scanned: int = 0

    @classmethod
    def build(cls, paths: Iterable[str | pathlib.Path]) -> "ModuleGraph":
        graph = cls()
        for root, path in iter_python_files(paths):
            graph.files_scanned += 1
            parsed = parse_module(path)
            if isinstance(parsed, Violation):
                graph.parse_errors.append(parsed)
                continue
            name = module_name_for(path)
            if name in graph.modules:
                stem = path.with_suffix("").as_posix().strip("/")
                name = stem.replace("/", ".")
            info = ModuleInfo(
                name=name,
                path=path,
                root=root,
                posix=path.as_posix(),
                module=parsed,
                aliases=import_aliases(parsed.tree),
            )
            graph._add_relative_aliases(info)
            graph.modules[info.name] = info
        graph._link_imports()
        return graph

    @staticmethod
    def _add_relative_aliases(info: ModuleInfo) -> None:
        """Fold relative ``from``-imports into the alias map.

        :func:`import_aliases` only sees absolute imports (it has no
        package context); relative ones are resolved here against the
        module's own dotted name so ``from . import helper`` binds
        ``helper`` to its absolute origin and call resolution sees
        through it.
        """
        is_package = info.path.name == "__init__.py"
        for node in ast.walk(info.module.tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                base = _relative_import_base(info.name, is_package, node)
                if base is None:
                    continue
                for item in node.names:
                    info.aliases[item.asname or item.name] = f"{base}.{item.name}"

    def _link_imports(self) -> None:
        """Resolve import statements to analysed-module edges."""
        known = set(self.modules)
        for info in self.modules.values():
            is_package = info.path.name == "__init__.py"
            for node in ast.walk(info.module.tree):
                targets: list[str] = []
                if isinstance(node, ast.Import):
                    targets = [item.name for item in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = (
                        _relative_import_base(info.name, is_package, node)
                        if node.level
                        else node.module
                    )
                    if base:
                        targets = [base] + [
                            f"{base}.{item.name}" for item in node.names
                        ]
                for target in targets:
                    while target:
                        if target in known and target != info.name:
                            info.imports.add(target)
                            break
                        target = target.rpartition(".")[0]

    def importers_of(self, name: str) -> list[str]:
        """Analysed modules that import ``name`` (sorted)."""
        return sorted(
            info.name for info in self.modules.values() if name in info.imports
        )
