"""Deep static contract analysis (the RL1xx rule family).

Where :mod:`repro.check.reprolint` matches single AST nodes, the rules
here prove (or refute) properties that span control-flow paths and call
chains, using the :mod:`~repro.check.cfg` / :mod:`~repro.check.callgraph`
substrate:

=======  ==============================================================
RL101    transitive-inline-background: no foreground entry point
         (``insert``/``get``/``put``/``delete``/``scan``/...) may reach a
         maintenance routine through any inline call chain; maintenance
         runs only via the ``BackgroundScheduler`` seam.  Upgrades RL003
         from direct-call matching to call-graph reachability.
RL103    paired-mutation: every CFG path in ``art/`` that sets a node's
         D bit (``node.dirty = True``) also writes its activity bit
         before function exit.
=======  ==============================================================

Soundness limits (see DESIGN.md §5d for the full discussion): the call
graph is name-based and over-approximate (duck resolution), so RL101
may flag chains no concrete receiver ever executes — suppress with a
justified pragma.  Suppression uses the same per-line
``# reprolint: allow[RL1xx]`` pragma as the shallow rules.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.check.callgraph import CallGraph
from repro.check.cfg import FunctionNode, iter_function_defs
from repro.check.engine import Analysis, Findings, Module
from repro.check.reprolint import _MAINTENANCE_OWNERS

__all__ = ["check"]

#: method names that constitute the foreground (user-facing) surface; any
#: project function with one of these names seeds RL101's reachability.
_ENTRY_NAMES = frozenset(
    {
        "insert",
        "get",
        "search",
        "delete",
        "scan",
        "put",
        "put_batch",
        "put_many",
        "get_many",
        "update",
        "remove",
        "lookup",
    }
)

# ----------------------------------------------------------------------
# RL101: transitive inline-background
# ----------------------------------------------------------------------


def _rule_inline_background(analysis: Analysis, graph: CallGraph, sink: Findings) -> None:
    roots = sorted(
        key for key, info in graph.functions.items() if info.name in _ENTRY_NAMES
    )
    parent: dict[str, Optional[str]] = {key: None for key in roots}
    queue = list(roots)
    reported: set[tuple[str, int, int]] = set()
    while queue:
        key = queue.pop(0)
        for site in graph.callees(key):
            callee = graph.functions[site.callee]
            if callee.name in _MAINTENANCE_OWNERS:
                caller = graph.functions[key]
                loc = (
                    caller.rel,
                    getattr(site.call, "lineno", 1),
                    getattr(site.call, "col_offset", 0),
                )
                if loc in reported:
                    continue
                reported.add(loc)
                chain = [graph.functions[key].name]
                walk: Optional[str] = key
                while parent.get(walk) is not None:
                    walk = parent[walk]
                    assert walk is not None
                    chain.append(graph.functions[walk].name)
                chain.reverse()
                path_str = " -> ".join(chain + [callee.name])
                sink.add(
                    analysis.by_rel[caller.rel].path,
                    site.call,
                    "RL101",
                    f"maintenance routine {callee.name}() is reachable inline from "
                    f"foreground entry point {chain[0]}() ({path_str}); route the "
                    "work through the BackgroundScheduler",
                )
                continue  # findings stop the traversal at the routine
            if site.callee not in parent:
                parent[site.callee] = key
                queue.append(site.callee)


# ----------------------------------------------------------------------
# RL103: paired mutation (ART D bit -> activity bit)
# ----------------------------------------------------------------------


def _sets_dirty(elem: ast.AST) -> bool:
    """``x.dirty = True``: a D-bit set."""
    return (
        isinstance(elem, ast.Assign)
        and isinstance(elem.value, ast.Constant)
        and elem.value.value in (True,)
        and any(isinstance(t, ast.Attribute) and t.attr == "dirty" for t in elem.targets)
    )


def _writes_activity(elem: ast.AST) -> bool:
    if isinstance(elem, ast.Assign):
        return any(isinstance(t, ast.Attribute) and t.attr == "activity" for t in elem.targets)
    if isinstance(elem, ast.AugAssign):
        return isinstance(elem.target, ast.Attribute) and elem.target.attr == "activity"
    return False


def _rule_paired_mutation(
    analysis: Analysis, module: Module, func: FunctionNode, sink: Findings
) -> None:
    if func.name in ("__init__", "__new__"):
        # Constructors initialize fields on an object no tree links to
        # yet; the protocol starts when the node is attached.
        return
    if not any(_sets_dirty(node) for node in ast.walk(func)):
        return  # cheap pre-scan before building the CFG
    cfg = analysis.cfg(func)
    paired = frozenset(
        block.bid for block in cfg.blocks if any(_writes_activity(e) for e in block.elements)
    )
    for block in cfg.blocks:
        if block.bid in paired:
            continue  # paired within the same basic block
        for elem in block.elements:
            if (
                _sets_dirty(elem)
                and cfg.reachable(block, cfg.exit, avoid=paired)
                and cfg.reachable(block, cfg.entry, avoid=paired, forward=False)
            ):
                sink.add(
                    module.path,
                    elem,
                    "RL103",
                    "unpaired accounting mutation (art-dirty/activity): setting an "
                    "ART node's D bit must also set its activity bit (the "
                    "check-back protocol reads both)",
                )


def check(analysis: Analysis, active: frozenset[str], out: Findings) -> None:
    """The deep pass: RL101 over the call graph, RL103 per ``art/`` function CFG."""
    if "RL101" in active:
        _rule_inline_background(analysis, analysis.callgraph(), out)
    if "RL103" in active:
        for module in analysis.modules:
            if module.rel.startswith("art/"):
                for _cls, func in iter_function_defs(module.tree):
                    _rule_paired_mutation(analysis, module, func, out)
