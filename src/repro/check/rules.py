"""The rule table and the one driver that runs it.

:data:`RULES` is the single catalogue ``--list-rules``, the SARIF
metadata, ``--rules`` validation and :func:`run` all read.  Each row
names the pass that emits the rule; passes (one per family module) hold
the rule logic and report into the engine's sink.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.check import chargecheck, deepcheck, reprolint
from repro.check.engine import Analysis, Finding, Findings, Rule

__all__ = ["RULES", "run"]

RULES: tuple[Rule, ...] = (
    Rule(
        "RL000",
        "syntax-error",
        "every analysed file parses; an unparseable file is a finding, never skipped",
        "src/repro (tests excluded)",
        "shallow",
        None,  # emitted by the loader, whatever rules are selected
    ),
    Rule(
        "RL001",
        "raw-substrate",
        "construct SimClock/SimDisk/StatCounters only in repro/sim",
        "everywhere outside sim/",
        "shallow",
        reprolint.check,
    ),
    Rule(
        "RL002",
        "disk-bypass",
        "no SimDisk internals access or simulated-time account write outside repro/sim",
        "everywhere outside sim/",
        "shallow",
        reprolint.check,
    ),
    Rule(
        "RL003",
        "inline-background",
        "maintenance runs via the BackgroundScheduler; no real threads",
        "maintenance entry points (curated owner table); thread imports anywhere",
        "shallow",
        reprolint.check,
    ),
    Rule(
        "RL004",
        "wall-clock",
        "no time/datetime imports in simulated code",
        "src/repro (tests excluded); host timers in bench/ and check/ carry pragmas",
        "shallow",
        reprolint.check,
    ),
    Rule(
        "RL005",
        "unseeded-random",
        "all randomness comes from an explicitly seeded RNG",
        "src/repro (tests excluded)",
        "shallow",
        reprolint.check,
    ),
    Rule(
        "RL006",
        "mutable-default",
        "no mutable default argument values",
        "src/repro (tests excluded)",
        "shallow",
        reprolint.check,
    ),
    Rule(
        "RL007",
        "hot-path-overhead",
        "hot modules: no function-local imports; no loop body makes an attribute-chain "
        "call or calls a helper that allocates or imports on every call",
        "hot modules (art/ lsm/ sim/ diskbtree/); helpers one call level down (call graph)",
        "shallow",
        reprolint.check,
    ),
    Rule(
        "RL009",
        "policy-determinism",
        "cache-policy modules: no random/os imports, no bare-set iteration",
        "cache/ policy modules",
        "shallow",
        reprolint.check,
    ),
    Rule(
        "RL101",
        "transitive-inline-background",
        "no inline call chain from a foreground entry point to a maintenance routine",
        "foreground entry points -> maintenance owners (call graph)",
        "deep",
        deepcheck.check,
    ),
    Rule(
        "RL103",
        "paired-mutation",
        "every path that sets an ART node's D bit also sets its activity bit",
        "art/",
        "deep",
        deepcheck.check,
    ),
    Rule(
        "RL301",
        "charge-completeness",
        "every path through a @charges function charges each declared effect "
        "within its multiplicity (cache-hit guards excepted)",
        "@charges-declared functions",
        "charge",
        chargecheck.check,
    ),
    Rule(
        "RL302",
        "double-charge",
        "no path charges a declared effect more times than its declared "
        "upper bound, including transitively through helpers",
        "@charges-declared functions",
        "charge",
        chargecheck.check,
    ),
    Rule(
        "RL303",
        "bucket-confusion",
        "foreground verbs must not reach undeclared background_ns charges; "
        "maintenance runners must not reach undeclared cpu_ns charges",
        "sim/ diskbtree/ lsm/ art/ btree/ core/ shard/ systems/",
        "charge",
        chargecheck.check,
    ),
    Rule(
        "RL304",
        "exception-charge-skew",
        "no raise edge between a state mutation and its paired charge "
        "(or vice versa)",
        "sim/ diskbtree/ lsm/ core/",
        "charge",
        chargecheck.check,
    ),
    Rule(
        "RL305",
        "charge-audit",
        "runtime cross-validation: ChargeAuditor verb multisets must lie "
        "within the static summaries (bench --sanitize)",
        "runtime oracle (chargeaudit.py); not a lint-pass rule",
        "charge",
        None,  # checked at runtime by ChargeAuditor, not by a pass
    ),
)

_FAMILIES = tuple(dict.fromkeys(rule.family for rule in RULES))
#: findings are reported family-major, families in catalogue order.
_RANK = {rule.rule_id: _FAMILIES.index(rule.family) for rule in RULES}


def _order(f: Finding) -> tuple[int, str, int, int, str, str]:
    return (_RANK[f.rule], f.path, f.line, f.col, f.rule, f.message)


def run(
    analysis: Analysis,
    selected: Optional[Iterable[str]] = None,
    *,
    apply_pragmas: bool = True,
) -> list[Finding]:
    """Run the selected rules (default: all) over ``analysis``.

    Each pass a selected rule names runs once; the findings come back
    sorted family-major by location, with ``RL000`` parse failures
    included whatever the selection.  ``apply_pragmas=False`` keeps
    findings an inline ``allow[...]`` pragma suppresses — the substrate
    of the stale-pragma audit.
    """
    active = frozenset(_RANK) if selected is None else frozenset(selected)
    out = Findings()
    for check in dict.fromkeys(r.check for r in RULES if r.rule_id in active and r.check):
        check(analysis, active, out)
    findings = analysis.errors + [f for f in out.raw if f.rule in active]
    findings.sort(key=_order)
    if apply_pragmas:
        findings = [f for f in findings if not analysis.suppressed(f)]
    return findings
