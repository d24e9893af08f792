"""CLI entry point: ``python -m repro.check [paths...]``.

Argument parsing and output formats only; loading, the rule table and
the driver are :mod:`repro.check.engine` and :mod:`repro.check.rules`.
A bare run applies the shallow RL0xx rules to the given paths (default:
the installed ``repro`` package source) and exits non-zero when any
finding survives the inline pragmas.  ``--deep`` runs every family
(RL1xx deep, RL3xx charge); ``--rules RL30x,RL101``
runs exactly the named rules (a trailing ``x`` is a prefix wildcard);
``--unused-pragmas`` audits ``allow[...]`` pragmas that no longer
suppress anything; ``--list-rules`` prints the rule catalogue
(``--format markdown`` emits the DESIGN.md table); ``--format sarif``
emits the SARIF CI uploads to code scanning.
"""

from __future__ import annotations

import argparse
import json
import sys

# Wall-clock only: measures the analyzer's own runtime for the CI budget
# gate; no simulated component ever sees this clock.
import time  # reprolint: allow[RL004]
from pathlib import Path
from typing import Optional, Sequence

from repro.check.engine import Analysis, Finding, iter_pragmas, load
from repro.check.rules import RULES, run

#: SARIF 2.1.0 is the smallest schema GitHub code scanning ingests.
_SARIF_SCHEMA = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"


def _default_target() -> Path:
    # .../src/repro/check/__main__.py -> .../src/repro
    return Path(__file__).resolve().parents[1]


def _parse_rule_spec(spec: str) -> frozenset[str]:
    """``"RL30x,RL101"`` -> the matching rule ids.

    Each comma-separated part is an exact rule id or a prefix wildcard
    written with trailing ``x`` characters (``RL30x``, ``RL3xx``).
    Unknown parts are an error — a typo must not silently select nothing.
    """
    known = {rule.rule_id for rule in RULES}
    selected: set[str] = set()
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if part in known:
            selected.add(part)
            continue
        prefix = part.rstrip("xX")
        matched = {rule_id for rule_id in known if rule_id.startswith(prefix)}
        if part == prefix or not matched:
            raise ValueError(
                f"unknown rule {part!r}; see --list-rules for the catalogue"
            )
        selected.update(matched)
    if not selected:
        raise ValueError("empty --rules selection")
    return frozenset(selected)


def _rule_catalogue_markdown() -> str:
    """The DESIGN.md rule table (kept generated, never hand-edited)."""
    lines = [
        "| Rule | Name | Layer | Scope | Contract |",
        "| --- | --- | --- | --- | --- |",
    ]
    for rule in RULES:
        lines.append(
            f"| {rule.rule_id} | `{rule.name}` | {rule.family} "
            f"| {rule.scope} | {rule.summary} |"
        )
    return "\n".join(lines)


def _as_sarif(findings: list[Finding]) -> str:
    rules = [
        {
            "id": rule.rule_id,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
            "fullDescription": {"text": f"{rule.summary} [scope: {rule.scope}]"},
            "defaultConfiguration": {"level": "error"},
            "properties": {"family": rule.family},
        }
        for rule in RULES
    ]
    results = [
        {
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.path},
                        "region": {"startLine": f.line, "startColumn": max(1, f.col)},
                    }
                }
            ],
        }
        for f in findings
    ]
    doc = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.check",
                        "informationUri": "https://example.invalid/repro-check",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2)


def _unused_pragmas(analysis: Analysis) -> list[str]:
    """Pragma lines whose ``allow[...]`` suppresses no raw finding.

    Runs every rule with suppression off, then reports every pragma line
    where none of the allowed rule ids (nor ``*`` matching anything)
    actually fires.
    """
    fired: dict[tuple[str, int], set[str]] = {}
    for finding in run(analysis, apply_pragmas=False):
        fired.setdefault((finding.path, finding.line), set()).add(finding.rule)

    stale: list[str] = []
    for module in analysis.modules:
        for lineno, allowed in iter_pragmas(module.source):
            rules_here = fired.get((module.path, lineno), set())
            if "*" in allowed:
                if not rules_here:
                    stale.append(
                        f"{module.path}:{lineno}: stale pragma allow[*]: no rule fires here"
                    )
                continue
            unused = sorted(r for r in allowed if r not in rules_here)
            if unused:
                stale.append(
                    f"{module.path}:{lineno}: stale pragma allow[{', '.join(unused)}]: "
                    "the rule no longer fires on this line"
                )
    return stale


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="repo-specific AST lint for the repro codebase",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package source)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit (--format markdown emits "
        "the DESIGN.md table)",
    )
    parser.add_argument(
        "--deep",
        action="store_true",
        help="also run the RL1xx CFG/call-graph rules and the "
        "RL3xx charge-effect rules",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="SPEC",
        help="run only these rules: comma-separated ids, trailing 'x' as a "
        "prefix wildcard (e.g. RL30x,RL101); implies the layers it names",
    )
    parser.add_argument(
        "--unused-pragmas",
        action="store_true",
        help="report allow[...] pragmas that no longer suppress any finding "
        "(exit 1 when stale pragmas exist)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "sarif", "markdown"),
        default="text",
        help="output format (default: text; markdown applies to --list-rules)",
    )
    parser.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        metavar="S",
        help="fail (exit 3) if the analysis itself takes longer than S wall seconds",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        if args.format == "markdown":
            print(_rule_catalogue_markdown())
        else:
            for rule in RULES:
                print(
                    f"{rule.rule_id}  {rule.name:<28} {rule.summary}"
                    f"  [{rule.scope}]"
                )
        return 0
    if args.format == "markdown":
        print("error: --format markdown is only valid with --list-rules", file=sys.stderr)
        return 2

    selected: Optional[frozenset[str]] = None
    if args.rules is not None:
        try:
            selected = _parse_rule_spec(args.rules)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    targets = [Path(p) for p in args.paths] if args.paths else [_default_target()]
    missing = [t for t in targets if not t.exists()]
    if missing:
        for target in missing:
            print(f"error: no such path: {target}", file=sys.stderr)
        return 2

    started = time.monotonic()
    analysis = load(targets)
    if args.unused_pragmas:
        stale = _unused_pragmas(analysis)
        for line in stale:
            print(line)
        if stale:
            print(f"\n{len(stale)} stale pragma(s)", file=sys.stderr)
        return 1 if stale else 0

    # A bare run is the shallow family; --deep is every rule; an explicit
    # --rules selection runs exactly the rules it names.
    if selected is None and not args.deep:
        selected = frozenset(r.rule_id for r in RULES if r.family == "shallow")
    findings = run(analysis, selected)
    elapsed = time.monotonic() - started

    if args.format == "sarif":
        print(_as_sarif(findings))
    else:
        for finding in findings:
            print(finding.render())
        if findings:
            print(f"\n{len(findings)} finding(s)", file=sys.stderr)

    if args.budget_seconds is not None and elapsed > args.budget_seconds:
        print(
            f"error: analysis took {elapsed:.2f}s, over the "
            f"{args.budget_seconds:.2f}s budget",
            file=sys.stderr,
        )
        return 3
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
