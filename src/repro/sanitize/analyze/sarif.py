"""SARIF 2.1.0 rendering for ``repro lint`` reports.

SARIF (Static Analysis Results Interchange Format) is what code-scanning
UIs ingest; the CI lint job uploads this as an artifact.  One run per
document, one ``result`` per finding; suppressed findings are emitted
with an ``inSource`` suppression object (SARIF consumers hide them by
default), and interprocedural call chains ride in ``codeFlows``.
"""

from __future__ import annotations

import json
import re

from repro.sanitize.lint import LintReport, Violation, registered_rules

_FRAME_RE = re.compile(r"^(?P<name>.*) \((?P<path>.+):(?P<line>\d+)\)$")


def _rule_metadata() -> dict[str, dict]:
    return {
        rule.code: {
            "id": rule.code,
            "shortDescription": {"text": rule.summary},
            "fullDescription": {"text": rule.rationale},
        }
        for rule in registered_rules()
    }


def _location(path: str, line: int, col: int) -> dict:
    region: dict = {"startLine": max(line, 1)}
    if col:
        region["startColumn"] = col + 1  # SARIF columns are 1-based
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": path},
            "region": region,
        }
    }


def _code_flow(violation: Violation) -> dict:
    locations = []
    for frame in violation.chain:
        match = _FRAME_RE.match(frame)
        if match:
            location = _location(
                match.group("path"), int(match.group("line")), 0
            )
            location["message"] = {"text": match.group("name")}
        else:
            location = _location(violation.path, violation.line, 0)
            location["message"] = {"text": frame}
        locations.append({"location": location})
    locations.append(
        {
            "location": {
                **_location(violation.path, violation.line, violation.col),
                "message": {"text": "source"},
            }
        }
    )
    return {"threadFlows": [{"locations": locations}]}


def _result(violation: Violation) -> dict:
    result: dict = {
        "ruleId": violation.code,
        "level": "error",
        "message": {"text": violation.message},
        "locations": [
            _location(violation.path, violation.line, violation.col)
        ],
    }
    if violation.chain:
        result["codeFlows"] = [_code_flow(violation)]
    if violation.suppressed:
        result["suppressions"] = [{"kind": "inSource"}]
    return result


def render_sarif(report: LintReport) -> str:
    """SARIF 2.1.0 document for ``report`` (active + suppressed findings)."""
    metadata = _rule_metadata()
    present = sorted(
        {v.code for v in (*report.violations, *report.suppressed)}
    )
    rules = [
        metadata.get(code, {"id": code, "shortDescription": {"text": code}})
        for code in present
    ]
    document = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
            "Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "https://example.invalid/repro",
                        "rules": rules,
                    }
                },
                "results": [
                    _result(v)
                    for v in (*report.violations, *report.suppressed)
                ],
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)
