"""`arnet-analyze-v1` JSON findings report.

Shape (validated by tools/check_schema.py, like every other arnet artifact):

{
  "schema": "arnet-analyze-v1",
  "tool": "arnet-analyze", "version": "1.0",
  "paths": ["src", "bench", "tests"],
  "files_scanned": 123,
  "rules": [{"id": ..., "description": ...}, ...],
  "findings": [{"file", "line", "rule", "message", "snippet"}, ...],
  "baselined": 0, "suppressions_used": 2,
  "summary": {"<rule-id>": <active finding count>, ...}
}

`findings` holds only *active* findings (not baselined, not suppressed);
clean runs carry an empty list so CI artifacts diff trivially.
"""

from __future__ import annotations

import json
from collections import Counter

from . import SCHEMA_ID, __version__
from .rules import Finding, rule_catalog


def render(paths: list[str], files_scanned: int, findings: list[Finding],
           baselined: int, suppressions_used: int) -> str:
    summary = Counter(f.rule for f in findings)
    doc = {
        "schema": SCHEMA_ID,
        "tool": "arnet-analyze",
        "version": __version__,
        "paths": paths,
        "files_scanned": files_scanned,
        "rules": rule_catalog(),
        "findings": [
            {"file": f.file, "line": f.line, "rule": f.rule,
             "message": f.message, "snippet": f.snippet}
            for f in findings
        ],
        "baselined": baselined,
        "suppressions_used": suppressions_used,
        "summary": dict(sorted(summary.items())),
    }
    return json.dumps(doc, indent=2) + "\n"
