"""The ``python -m repro.analysis`` entry point.

Usage::

    python -m repro.analysis [paths ...]        # default: src benchmarks tools examples
    python -m repro.analysis --json src
    python -m repro.analysis --explain D1
    python -m repro.analysis --rules A1,A2 --package-root src/repro src

Exit codes: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.core import AnalysisResult, all_rules, analyze, get_rule

__all__ = ["main"]

_DEFAULT_PATHS = ("src", "benchmarks", "tools", "examples")

#: Forward-compat marker for the CI gate's JSON consumers.  Bump on any
#: report-shape change; consumers reject versions they do not know.
JSON_SCHEMA_VERSION = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis enforcing the reproduction's determinism, "
        "observability, layering, and contract invariants.",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to scan "
        "(default: src benchmarks tools examples, whichever exist)",
    )
    parser.add_argument(
        "--rules", metavar="IDS",
        help="comma-separated rule ids to run (default: all registered rules)",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument(
        "--explain", metavar="RULE",
        help="print a rule's rationale and fix guidance, then exit",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit",
    )
    parser.add_argument(
        "--package-root", metavar="DIR",
        help="treat DIR as the repro package root when scoping package rules "
        "(default: auto-detect a 'repro' path component)",
    )
    return parser


def _resolve_paths(raw: list[str]) -> list[Path]:
    if raw:
        paths = [Path(p) for p in raw]
        missing = [str(p) for p in paths if not p.exists()]
        if missing:
            raise FileNotFoundError(f"no such path(s): {', '.join(missing)}")
        return paths
    paths = [Path(p) for p in _DEFAULT_PATHS if Path(p).exists()]
    if not paths:
        raise FileNotFoundError(
            "no paths given and none of ./src ./benchmarks ./tools ./examples exists"
        )
    return paths


def _json_report(result: AnalysisResult) -> dict:
    return {
        "schema_version": JSON_SCHEMA_VERSION,
        "rules": result.rule_ids,
        "modules": result.module_count,
        "findings": [
            {
                "rule": finding.rule,
                "path": finding.path,
                "line": finding.line,
                "message": finding.message,
            }
            for finding in result.findings
        ],
        "suppressed": [
            {
                "rule": finding.rule,
                "path": finding.path,
                "line": finding.line,
                "reason": suppression.reason,
            }
            for finding, suppression in result.suppressed
        ],
        "ok": result.ok,
    }


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.title}")
        return 0

    if args.explain is not None:
        rule = get_rule(args.explain)
        if rule is None:
            known = ", ".join(r.id for r in all_rules())
            print(f"unknown rule {args.explain!r}; registered rules: {known}",
                  file=sys.stderr)
            return 2
        print(f"{rule.id} — {rule.title}\n")
        print(rule.explain)
        return 0

    rule_ids = None
    if args.rules is not None:
        rule_ids = [part.strip() for part in args.rules.split(",") if part.strip()]

    try:
        result = analyze(
            _resolve_paths(args.paths), rule_ids, package_root=args.package_root
        )
    except (FileNotFoundError, ValueError) as error:
        print(f"repro.analysis: {error}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(_json_report(result), indent=2))
        return 0 if result.ok else 1

    for finding in result.findings:
        print(finding.render())
    status = "FAILED" if result.findings else "OK"
    print(
        f"repro.analysis {status}: {len(result.findings)} finding(s) across "
        f"{result.module_count} modules, {len(result.rule_ids)} rules "
        f"({len(result.suppressed)} suppressed)"
    )
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
