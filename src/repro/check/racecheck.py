"""Concurrency-safety rules for the shard dispatch contract (RL2xx).

The concurrency pass: it builds the contract registry over the engine's
call graph, runs the escape/ownership analysis of
:mod:`repro.check.escape` (RL201–RL203) over every ``shard/`` module's
dispatch sites, and adds the syntactic RL204 barrier-bypass scan.

=======  ==============================================================
RL201    thread-escape: state reachable from a dispatched thunk that is
         neither one shard's engine, immutable, ``@shared_readonly``,
         nor fresh per-thunk data escapes to a worker thread.
RL202    ownership-partition: two dispatched thunks may alias the same
         mutable root (constant/loop-invariant shard index, whole shard
         container captured).
RL203    shared-read-immutability: a ``@shared_readonly`` object is
         written on some path reachable from a dispatched thunk.
RL204    barrier-bypass: executor primitives (``_executor``, ``submit``,
         ``as_completed``, ``ThreadPoolExecutor``) used outside
         ``ShardWorkerPool`` — results or accounting could be observed
         before the scatter barrier.
=======  ==============================================================

Every static rule has a runtime oracle: the
:class:`~repro.check.sanitizer.OwnershipSanitizer` claims a shard id per
thunk and every engine substrate mutation checks the claim, so code the
static pass cannot see (opaque thunk factories, data-dependent shard
choices) still fails loudly in debug mode.  See DESIGN.md §10.
"""

from __future__ import annotations

import ast

from repro.check.callgraph import callee_name
from repro.check.engine import Analysis, Findings, Module
from repro.check.escape import analyze_module, build_registry

__all__ = ["check"]

#: modules the contract binds; the pool implements the barrier itself.
_SCOPE_PREFIX = "shard/"
_BARRIER_OWNER = "shard/pool.py"

#: executor primitives whose appearance outside the pool bypasses the
#: scatter barrier (fork without the blessed join).
_EXECUTOR_ATTRS = frozenset({"_executor"})
_EXECUTOR_CALLS = frozenset({"submit", "map_async", "apply_async"})
_EXECUTOR_NAMES = frozenset({"as_completed", "ThreadPoolExecutor", "ProcessPoolExecutor", "wait"})


def _rule_barrier_bypass(module: Module, sink: Findings) -> None:
    flagged_lines: set[int] = set()

    def add(node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        if line in flagged_lines:
            return  # one finding per line: chained primitives are one bypass
        flagged_lines.add(line)
        sink.add(module.path, node, "RL204", message)

    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            name = callee_name(node.func)
            if name in _EXECUTOR_CALLS:
                add(
                    node,
                    f"scatter barrier bypassed: {name}() dispatches work "
                    "outside the ShardWorkerPool.run seam, so results and "
                    "accounting can be read before every thunk finished",
                )
                continue
            if name in _EXECUTOR_NAMES:
                add(
                    node,
                    f"scatter barrier bypassed: {name}() forks or joins "
                    "threads outside ShardWorkerPool; pool.run is the only "
                    "fork/join seam (and the only happens-before edge)",
                )
                continue
        if isinstance(node, ast.Attribute) and node.attr in _EXECUTOR_ATTRS:
            add(
                node,
                "scatter barrier bypassed: direct executor access outside "
                "ShardWorkerPool; dispatch through pool.run so the barrier "
                "orders thunk effects before foreground reads",
            )


def check(analysis: Analysis, active: frozenset[str], out: Findings) -> None:
    """The concurrency pass over every in-scope ``shard/`` module."""
    scoped = [
        m
        for m in analysis.by_rel.values()
        if m.rel.startswith(_SCOPE_PREFIX) and m.rel != _BARRIER_OWNER
    ]
    if not scoped:
        return
    graph = analysis.callgraph()
    trees = {rel: m.tree for rel, m in analysis.by_rel.items()}
    registry = build_registry(trees, graph)
    for module in scoped:
        if "RL204" in active:
            _rule_barrier_bypass(module, out)
        if active & {"RL201", "RL202", "RL203"}:
            analyze_module(analysis, module, registry, graph, active, out)
