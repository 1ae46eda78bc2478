"""The inline suppression protocol: ``# repro: allow[rule-id] reason``.

A finding is a conversation between the analyzer and the author; the
suppression comment is the author's documented side of it.  The protocol
is deliberately strict:

* the comment names the exact rule id it silences (``allow[memmap-hygiene]``,
  ``allow[lock-discipline, durability]`` for several);
* a **non-empty reason is mandatory** — a reasonless suppression is itself
  an ``ERROR`` finding (rule id ``suppression``), because "trust me" is
  exactly the convention rot this package exists to stop;
* the comment suppresses findings on its own line, or — when it stands
  alone on a line — on the next non-blank, non-comment line.

There is intentionally no file-level or baseline suppression: every
accepted violation is visible at the line that violates, with its reason.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Set, Tuple

from repro.analysis.findings import Finding, Severity

SUPPRESSION_RULE_ID = "suppression"

_PATTERN = re.compile(
    r"#\s*repro:\s*allow\[(?P<ids>[a-z0-9\-]+(?:\s*,\s*[a-z0-9\-]+)*)\]"
    r"\s*(?P<reason>.*)$")
_MALFORMED = re.compile(r"#\s*repro:\s*allow\b")


@dataclass
class FileSuppressions:
    """Suppressions of one file: effective line → allowed rule ids."""

    path: Path
    by_line: Dict[int, Set[str]] = field(default_factory=dict)
    findings: List[Finding] = field(default_factory=list)
    used: Set[Tuple[int, str]] = field(default_factory=set)

    def allows(self, line: int, rule_id: str) -> bool:
        if rule_id in self.by_line.get(line, ()):
            self.used.add((line, rule_id))
            return True
        return False


def _effective_line(lines: List[str], comment_index: int) -> int:
    """Line (1-based) a standalone suppression comment applies to."""
    stripped = lines[comment_index].strip()
    if not stripped.startswith("#"):
        return comment_index + 1  # trailing comment: its own line
    for offset in range(comment_index + 1, len(lines)):
        candidate = lines[offset].strip()
        if candidate and not candidate.startswith("#"):
            return offset + 1
    return comment_index + 1


def collect_suppressions(path: Path, text: str) -> FileSuppressions:
    result = FileSuppressions(path=path)
    lines = text.splitlines()
    for i, line in enumerate(lines):
        match = _PATTERN.search(line)
        if match is None:
            if _MALFORMED.search(line):
                result.findings.append(Finding(
                    rule_id=SUPPRESSION_RULE_ID, path=path, line=i + 1,
                    severity=Severity.ERROR,
                    message=("malformed suppression — the protocol is "
                             "'# repro: allow[rule-id] reason'")))
            continue
        reason = match.group("reason").strip()
        if not reason:
            result.findings.append(Finding(
                rule_id=SUPPRESSION_RULE_ID, path=path, line=i + 1,
                severity=Severity.ERROR,
                message=("suppression without a reason — write down why "
                         "this violation is correct, or fix it")))
            continue
        ids = {part.strip() for part in match.group("ids").split(",")}
        target = _effective_line(lines, i)
        result.by_line.setdefault(target, set()).update(ids)
    return result


def apply_suppressions(findings: List[Finding],
                       suppressions: Dict[Path, FileSuppressions]
                       ) -> Tuple[List[Finding], int]:
    """Split findings into (unsuppressed, suppressed-count)."""
    kept: List[Finding] = []
    suppressed = 0
    for finding in findings:
        entry = suppressions.get(finding.path)
        if entry is not None and entry.allows(finding.line, finding.rule_id):
            suppressed += 1
        else:
            kept.append(finding)
    return kept, suppressed
