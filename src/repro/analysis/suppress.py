"""Inline suppressions: ``# eires: allow[D2] reason``.

A suppression names the rule IDs it silences (comma-separated inside the
brackets) and MUST carry a non-empty justification after the bracket — an
unexplained suppression is itself reported as a framework finding, because
a determinism waiver nobody can audit is exactly the hole the analysis
exists to close.  Suppressions apply to findings on their own line; the
driver reports one naming an ID no rule registers (a retired rule, a typo),
since it would silence nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = ["Suppression", "parse_suppressions"]

_MARKER = re.compile(r"#\s*eires:")
_ALLOW = re.compile(r"#\s*eires:\s*allow\[([A-Za-z0-9_,\s]*)\]\s*(.*)$")


@dataclass(frozen=True)
class Suppression:
    """One parsed ``allow`` comment."""

    line: int
    rule_ids: frozenset[str]
    reason: str


def parse_suppressions(
    lines: list[str],
) -> tuple[dict[int, Suppression], list[tuple[int, str]]]:
    """Suppressions by line number, plus malformed-marker findings.

    Returns ``(suppressions, malformed)`` where ``malformed`` is a list of
    ``(line, message)`` pairs for ``eires:`` comment markers that either do
    not parse as ``allow[IDS]``, name no rules, or omit the justification.
    """
    suppressions: dict[int, Suppression] = {}
    malformed: list[tuple[int, str]] = []
    for lineno, text in enumerate(lines, start=1):
        if _MARKER.search(text) is None:
            continue
        match = _ALLOW.search(text)
        if match is None:
            # Worded without the comment marker, or this very line would
            # parse as a suppression naming the unregistered rule RULE.
            malformed.append((lineno, "malformed suppression: expected a comment "
                                      "'eires: allow[RULE] justification'"))
            continue
        rule_ids = frozenset(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        reason = match.group(2).strip()
        if not rule_ids:
            malformed.append((lineno, "suppression names no rule ids"))
            continue
        if not reason:
            malformed.append(
                (lineno, "suppression must carry a justification after the bracket")
            )
            continue
        suppressions[lineno] = Suppression(lineno, rule_ids, reason)
    return suppressions, malformed
