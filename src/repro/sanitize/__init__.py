"""Correctness tooling for the COLAB reproduction.

Two layers, one goal: the repo's determinism and kernel-contract
guarantees are machine-checked instead of enforced by convention.

* ``repro lint`` -- one static checker.  Per-file AST rules
  (:mod:`repro.sanitize.rules`: DET, KERN, PERF, ERR) and the
  whole-program analysis (:mod:`repro.sanitize.analyze`, ANA001:
  interprocedural determinism taint into digest-relevant code) share one
  registry (:mod:`repro.sanitize.lint`), one
  entry point (:func:`run_lint`, which parses every file once), inline
  ``# sanitize: ignore[CODE]`` suppressions -- the one way to accept a
  finding -- and the text/JSON/SARIF reporters
  (:mod:`repro.sanitize.reporting`,
  :mod:`repro.sanitize.analyze.sarif`).
* :mod:`repro.sanitize.schedsan` -- a runtime sanitizer ("schedsan") of
  read-only invariant hooks injected into the runqueues, futex table,
  and event engine behind ``MachineConfig(sanitize=True)``, raising
  :class:`repro.errors.SanitizerError` with recent trace events attached.
"""

from __future__ import annotations

from repro.sanitize.analyze import run_lint
from repro.sanitize.analyze.sarif import render_sarif
from repro.sanitize.lint import LintReport, Violation
from repro.sanitize.reporting import render_json, render_text, rule_catalogue
from repro.sanitize.schedsan import SchedSanitizer

__all__ = [
    "LintReport",
    "SchedSanitizer",
    "Violation",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_catalogue",
    "run_lint",
]
