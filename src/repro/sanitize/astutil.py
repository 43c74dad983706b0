"""Shared AST helpers for the lint rules and the whole-program analysis.

Both layers need the same primitives: resolving imported names to dotted
origins, classifying nondeterminism sources (wall clock, entropy, global
RNG, environment reads), and locating enclosing scopes.  Keeping one
definition here means DET001 (per-file) and ANA001 (interprocedural)
cannot drift apart on what counts as a source.
"""

from __future__ import annotations

import ast

#: Wall-clock reads: host time is ambient state, never simulation input.
WALLCLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}
#: OS entropy sources.
ENTROPY = {"os.urandom", "uuid.uuid1", "uuid.uuid4", "os.getrandom"}
#: Allowed names under numpy.random: seeded-generator constructors only.
NUMPY_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "PCG64"}
#: Environment reads (callable form); ``os.environ`` itself is matched as
#: an attribute chain by :func:`classify_source_node`.
ENV_CALLS = {"os.getenv", "os.environb.get"}


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map every imported local name to its fully qualified origin.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from numpy.random import default_rng as rng`` ->
    ``{"rng": "numpy.random.default_rng"}``.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = (
                    item.name if item.asname else item.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for item in node.names:
                aliases[item.asname or item.name] = f"{node.module}.{item.name}"
    return aliases


def dotted_name(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """Resolve a Name/Attribute chain to a dotted origin name, or None."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    root = aliases.get(current.id, current.id)
    parts.append(root)
    return ".".join(reversed(parts))


def is_set_like(node: ast.AST) -> bool:
    """Literal sets, set comprehensions, and set()/frozenset() calls."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    return False


def classify_source_call(name: str, node: ast.Call) -> str | None:
    """Message describing why call ``name`` is nondeterministic, or None.

    The single definition of what DET001 and ANA001 treat as a
    determinism source (wall clock, entropy, global/unseeded RNG).
    """
    if name in WALLCLOCK:
        return (
            f"wall-clock call {name}() in simulation code; use the "
            "engine clock (machine/engine .now)"
        )
    if name in ENTROPY:
        return (
            f"entropy source {name}() is nondeterministic; derive ids "
            "from seeded state"
        )
    if name.startswith(("random.", "secrets.")):
        return (
            f"{name}() uses a global/unseeded RNG; use "
            "numpy.random.default_rng(seed)"
        )
    if name.startswith("numpy.random."):
        leaf = name.rsplit(".", 1)[1]
        if leaf not in NUMPY_RANDOM_OK:
            return (
                f"legacy numpy global RNG {name}(); use "
                "numpy.random.default_rng(seed)"
            )
        if leaf == "default_rng" and not node.args and not node.keywords:
            return (
                "default_rng() without a seed draws OS entropy; pass an "
                "explicit seed"
            )
    return None


def classify_source_node(
    node: ast.AST, aliases: dict[str, str]
) -> tuple[str, str] | None:
    """``(display, message)`` if ``node`` is a nondeterminism source.

    Covers the DET001 call sources plus environment reads
    (``os.environ[...]``/``os.environ.get``/``os.getenv``), which the
    interprocedural taint additionally treats as ambient inputs.
    """
    if isinstance(node, ast.Call):
        name = dotted_name(node.func, aliases)
        if name is None:
            return None
        message = classify_source_call(name, node)
        if message is not None:
            return f"{name}()", message
        if name in ENV_CALLS or name.startswith("os.environ."):
            return (
                f"{name}()",
                f"environment read {name}() makes the outcome depend on "
                "ambient process state",
            )
    elif isinstance(node, ast.Attribute):
        if dotted_name(node, aliases) == "os.environ":
            return (
                "os.environ",
                "environment read os.environ makes the outcome depend on "
                "ambient process state",
            )
    return None

