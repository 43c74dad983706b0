"""Reporters for ``repro lint``: human text, machine JSON, rule catalogue.

``repro lint --format json`` emits this schema (version 1)::

    {
      "schema": 1,
      "tool": "lint",
      "files_scanned": <int>,
      "ok": <bool>,                      # no *active* findings
      "counts": {"active": <int>, "suppressed": <int>},
      "violations": [
        {
          "code": "<RULE>",              # e.g. DET001, ANA001
          "path": "<file>",
          "line": <int>, "col": <int>,
          "message": "<one line>",
          "suppressed": <bool>,          # silenced by # sanitize: ignore[...]
          "chain": ["qualname (path:line)", ...]   # interprocedural only
        }, ...
      ]
    }

``violations`` lists active findings first, then suppressed ones; both
groups are sorted by (path, line, col, code).  ``chain`` is present only
on interprocedural findings (ANA001) and gives the source->sink
call path, caller first.

``--format sarif`` (and ``--sarif PATH``) emit SARIF 2.1.0 instead; see
:mod:`repro.sanitize.analyze.sarif`.
"""

from __future__ import annotations

import json

from repro.sanitize.lint import LintReport, Rule, Violation, registered_rules

#: Rule-family titles for the grouped catalogue.
FAMILIES = {
    "DET": "determinism",
    "OBS": "observability",
    "KERN": "kernel structure",
    "PERF": "hot-path performance",
    "ERR": "error handling",
    "ANA": "whole-program analyses",
}


def _family(code: str) -> str:
    return code.rstrip("0123456789")


def render_text(report: LintReport) -> str:
    """GCC-style one-line-per-violation text (path:line:col CODE message).

    Interprocedural findings append their call chain, one indented frame
    per line; suppressed findings are summarised in the footer count.
    """
    lines: list[str] = []
    for violation in report.violations:
        lines.append(
            f"{violation.path}:{violation.line}:{violation.col} "
            f"{violation.code} {violation.message}"
        )
        for frame in violation.chain:
            lines.append(f"    via {frame}")
    noun = "file" if report.files_scanned == 1 else "files"
    suffix = ""
    if report.suppressed:
        suffix = f" ({len(report.suppressed)} suppressed)"
    if report.ok:
        lines.append(
            f"{report.files_scanned} {noun} checked, no violations{suffix}"
        )
    else:
        count = len(report.violations)
        vnoun = "violation" if count == 1 else "violations"
        lines.append(
            f"{report.files_scanned} {noun} checked, {count} {vnoun}{suffix}"
        )
    return "\n".join(lines)


def _violation_payload(violation: Violation) -> dict:
    payload = {
        "path": violation.path,
        "line": violation.line,
        "col": violation.col,
        "code": violation.code,
        "message": violation.message,
        "suppressed": violation.suppressed,
    }
    if violation.chain:
        payload["chain"] = list(violation.chain)
    return payload


def render_json(report: LintReport) -> str:
    """Stable JSON document for CI and tooling (schema documented above)."""
    return json.dumps(
        {
            "schema": 1,
            "tool": "lint",
            "files_scanned": report.files_scanned,
            "ok": report.ok,
            "counts": {
                "active": len(report.violations),
                "suppressed": len(report.suppressed),
            },
            "violations": [
                _violation_payload(v)
                for v in (*report.violations, *report.suppressed)
            ],
        },
        indent=2,
        sort_keys=True,
    )


def rule_catalogue() -> str:
    """Rules grouped by family with one-line docstring rationales.

    This is what ``repro lint --list-rules`` prints.
    """
    by_family: dict[str, list[Rule]] = {}
    for rule in registered_rules():
        by_family.setdefault(_family(rule.code), []).append(rule)
    lines: list[str] = []
    for family in sorted(by_family, key=lambda f: (f not in FAMILIES, f)):
        title = FAMILIES.get(family, family)
        lines.append(f"{family} -- {title}")
        for rule in by_family[family]:
            lines.append(f"  {rule.code}  {rule.summary}")
            lines.append(f"          scope: {', '.join(rule.scope)}")
            lines.append(f"          {rule.rationale}")
        lines.append("")
    lines.append(
        "suppress inline with `# sanitize: ignore[CODE]` on the flagged "
        "line or the line above"
    )
    return "\n".join(lines)
