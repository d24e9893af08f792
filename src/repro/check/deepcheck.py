"""Deep static contract analysis (the RL1xx rule family).

Where :mod:`repro.check.reprolint` matches single AST nodes, the rules
here prove (or refute) properties that span control-flow paths and call
chains, using the :mod:`~repro.check.cfg` /
:mod:`~repro.check.dataflow` / :mod:`~repro.check.callgraph` substrate:

=======  ==============================================================
RL101    transitive-inline-background: no foreground entry point
         (``insert``/``get``/``put``/``delete``/``scan``/...) may reach a
         maintenance routine through any inline call chain; maintenance
         runs only via the ``BackgroundScheduler`` seam.  Upgrades RL003
         from direct-call matching to call-graph reachability.
RL102    determinism-taint: values derived from ``id()``, ``hash()``,
         ``os`` process state, or set iteration order must not flow into
         simulated-time charges (``charge_cpu``/``charge_background``),
         RNG seeds, or persisted counters (``bump``/``record_max``/
         ``json.dump``) — simulated runs are bit-deterministic by
         contract.
RL103    paired-mutation: every CFG path that performs an accounting
         mutation (a dirty-bit flip, a buffer-pool frame-map change, a
         foreground-CPU re-book, an ART D-bit set) also executes its
         paired bookkeeping update before function exit.
RL104    transitive-hot-alloc: loop bodies in the hot packages must not
         call helpers that *unconditionally* allocate containers (or pay
         a function-local import).  Extends RL007 one call level deep
         through the project call graph.
=======  ==============================================================

Soundness limits (see DESIGN.md §5d for the full discussion): the call
graph is name-based and over-approximate (duck resolution), so RL101/
RL104 may flag chains no concrete receiver ever executes — suppress with
a justified pragma.  RL102 taint is intra-procedural: taint entering
through a parameter or return value is not tracked.  RL103 treats a
two-argument ``dict.pop`` as a mutation even when the key is absent.
Suppression uses the same per-line ``# reprolint: allow[RL1xx]`` pragma
as the shallow rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Optional

from repro.check.callgraph import CallGraph, _attr_chain, callee_name
from repro.check.cfg import CFG, FunctionNode, iter_function_defs
from repro.check.dataflow import (
    Definition,
    ReachingDefs,
    def_use_chains,
    element_calls,
    element_uses,
)
from repro.check.engine import HOT_PREFIXES, Analysis, Findings, LoopDepthVisitor, Module
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

#: the maintenance routines (shared with RL003's owner table).
_MAINTENANCE_NAMES = frozenset(_MAINTENANCE_OWNERS)

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
            if callee.name in _MAINTENANCE_NAMES:
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
# RL102: determinism taint
# ----------------------------------------------------------------------

_TAINT_SOURCE_FUNCS = frozenset({"id", "hash"})
#: taint-killing pures: their result does not expose identity or order.
_TAINT_SANITIZERS = frozenset({"sorted", "len", "min", "max", "sum", "any", "all", "bool"})
#: order-preserving converters: propagate set-order taint into sequences.
_ORDER_PRESERVING = frozenset({"list", "tuple", "iter", "reversed", "enumerate"})
_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
#: comparisons whose result is deterministic even over tainted operands
#: (identity values are stable within one run; membership/equality does
#: not observe ordering).
_SAFE_COMPARE_OPS = (ast.In, ast.NotIn, ast.Is, ast.IsNot, ast.Eq, ast.NotEq)
_CLOCK_SINKS = frozenset({"charge_cpu", "charge_background"})
_STAT_SINKS = frozenset({"bump", "record_max"})
#: process-state reads that differ across identical runs.  ``os.path.*``
#: string helpers are deliberately absent: a file *location* may vary by
#: machine without breaking result determinism; file *content* may not.
_OS_STATE_SOURCES = frozenset(
    {
        ("os", "environ"),
        ("os", "environb"),
        ("os", "getenv"),
        ("os", "getenvb"),
        ("os", "urandom"),
        ("os", "getpid"),
        ("os", "times"),
        ("os", "cpu_count"),
        ("os", "stat"),
    }
)


class _TaintAnalysis:
    """Intra-procedural fixpoint over one function's definitions."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        reaching = ReachingDefs(cfg)
        self.use_defs: dict[int, frozenset[Definition]] = {
            id(use.name): use.defs for use in def_use_chains(self.cfg, reaching)
        }
        self.set_defs: set[Definition] = set()
        self.tainted: set[Definition] = set()
        self._all_defs: list[Definition] = [
            d for defs in reaching.defs_of.values() for d in defs
        ]
        self._fixpoint()

    # -- set-typedness -------------------------------------------------
    def _expr_is_set(self, expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            if expr.func.id in _SET_CONSTRUCTORS:
                return True
        if isinstance(expr, ast.Name):
            defs = self.use_defs.get(id(expr), frozenset())
            return any(d in self.set_defs for d in defs)
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._expr_is_set(expr.left) or self._expr_is_set(expr.right)
        return False

    # -- taint ---------------------------------------------------------
    def expr_tainted(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Constant):
            return False
        if isinstance(expr, ast.Name):
            defs = self.use_defs.get(id(expr), frozenset())
            return any(d in self.tainted for d in defs)
        if isinstance(expr, ast.Compare):
            if all(isinstance(op, _SAFE_COMPARE_OPS) for op in expr.ops):
                return False
            return any(
                self.expr_tainted(operand)
                for operand in [expr.left, *expr.comparators]
            )
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                if func.id in _TAINT_SOURCE_FUNCS:
                    return True
                if func.id in _TAINT_SANITIZERS:
                    return False
                if func.id in _ORDER_PRESERVING:
                    return any(
                        self.expr_tainted(arg) or self._expr_is_set(arg)
                        for arg in expr.args
                    )
            if isinstance(func, ast.Attribute):
                chain = _attr_chain(func)
                if chain is not None and tuple(chain[:2]) in _OS_STATE_SOURCES:
                    return True
            args: list[ast.expr] = list(expr.args)
            args.extend(kw.value for kw in expr.keywords)
            if isinstance(func, ast.Attribute):
                args.append(func.value)  # tainted receiver taints the result
            return any(self.expr_tainted(arg) for arg in args)
        if isinstance(expr, ast.Attribute):
            chain = _attr_chain(expr)
            if chain is not None and tuple(chain[:2]) in _OS_STATE_SOURCES:
                return True
            return self.expr_tainted(expr.value)
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            sub: list[ast.expr] = []
            if isinstance(expr, ast.DictComp):
                sub.extend([expr.key, expr.value])
            else:
                sub.append(expr.elt)
            for gen in expr.generators:
                if self.expr_tainted(gen.iter) or (
                    not isinstance(expr, ast.SetComp) and self._expr_is_set(gen.iter)
                ):
                    return True
                sub.extend(gen.ifs)
            return any(self.expr_tainted(s) for s in sub)
        return any(
            self.expr_tainted(child)
            for child in ast.iter_child_nodes(expr)
            if isinstance(child, ast.expr)
        )

    def _def_tainted(self, definition: Definition) -> bool:
        value = definition.value
        if value is None:
            return False
        elem = definition.element
        if isinstance(elem, (ast.For, ast.AsyncFor)):
            # Iterating a set observes hash order.
            if self._expr_is_set(value):
                return True
            return self.expr_tainted(value)
        if isinstance(elem, ast.AugAssign) and isinstance(elem.target, ast.Name):
            # x += e keeps x's previous taint.
            for name in element_uses(elem):
                if name.id == elem.target.id:
                    defs = self.use_defs.get(id(name), frozenset())
                    if any(d in self.tainted for d in defs):
                        return True
        return self.expr_tainted(value)

    def _fixpoint(self) -> None:
        changed = True
        while changed:
            changed = False
            for definition in self._all_defs:
                value = definition.value
                if value is None:
                    continue
                if definition not in self.set_defs and self._expr_is_set(value):
                    self.set_defs.add(definition)
                    changed = True
                if definition not in self.tainted and self._def_tainted(definition):
                    self.tainted.add(definition)
                    changed = True


def _rule_determinism(module: Module, cfg: CFG, sink: Findings) -> None:
    analysis = _TaintAnalysis(cfg)
    if not analysis.tainted:
        return
    calls = (c for block in cfg.blocks for elem in block.elements for c in element_calls(elem))
    for call in calls:
        name = callee_name(call.func)
        if name is None:
            continue
        chain = _attr_chain(call.func) if isinstance(call.func, ast.Attribute) else None
        args = list(call.args) + [kw.value for kw in call.keywords]
        if not args:
            continue
        tainted_arg = next((a for a in args if analysis.expr_tainted(a)), None)
        if tainted_arg is None:
            continue
        if name in _CLOCK_SINKS:
            sink.add(
                module.path,
                call,
                "RL102",
                f"non-deterministic value flows into {name}(); simulated-time "
                "charges must be bit-reproducible",
            )
        elif name == "Random" or name == "seed":
            sink.add(
                module.path,
                call,
                "RL102",
                f"non-deterministic value seeds {name}(); runs must reproduce",
            )
        elif name in _STAT_SINKS:
            sink.add(
                module.path,
                call,
                "RL102",
                f"non-deterministic value flows into stats.{name}(); counters "
                "are persisted with results and must be reproducible",
            )
        elif (
            chain is not None
            and chain[0] == "json"
            and name in ("dump", "dumps")
            and call.args
            and analysis.expr_tainted(call.args[0])  # the payload, not the file
        ):
            sink.add(
                module.path,
                call,
                "RL102",
                "non-deterministic value is persisted via json; results must be "
                "byte-identical across runs",
            )


# ----------------------------------------------------------------------
# RL103: paired mutations
# ----------------------------------------------------------------------


def _assign_attr_literal(elem: ast.AST, attr: str, values: tuple[object, ...]) -> bool:
    if not isinstance(elem, ast.Assign):
        return False
    if not isinstance(elem.value, ast.Constant) or elem.value.value not in values:
        return False
    return any(
        isinstance(t, ast.Attribute) and t.attr == attr for t in elem.targets
    )


def _writes_attr(elem: ast.AST, attr: str) -> bool:
    if isinstance(elem, ast.Assign):
        return any(
            isinstance(t, ast.Attribute) and t.attr == attr for t in elem.targets
        )
    if isinstance(elem, ast.AugAssign):
        return isinstance(elem.target, ast.Attribute) and elem.target.attr == attr
    return False


def _calls_method_on(elem: ast.AST, attr: str, methods: frozenset[str]) -> bool:
    for node in ast.walk(elem):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in methods and isinstance(node.func.value, ast.Attribute):
                if node.func.value.attr == attr:
                    return True
    return False


def _mutates_subscript_of(elem: ast.AST, attr: str) -> bool:
    targets: list[ast.expr] = []
    if isinstance(elem, ast.Assign):
        targets = list(elem.targets)
    elif isinstance(elem, ast.Delete):
        targets = list(elem.targets)
    for target in targets:
        if isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Attribute) and base.attr == attr:
                return True
            if isinstance(base, ast.Name) and base.id == attr:
                return True
    return False


def _frames_mutation(elem: ast.AST) -> bool:
    return _mutates_subscript_of(elem, "_frames") or _calls_method_on(
        elem, "_frames", frozenset({"pop", "popitem", "clear", "setdefault"})
    )


def _policy_notification(elem: ast.AST) -> bool:
    return _calls_method_on(
        elem, "_policy", frozenset({"on_insert", "on_remove", "reset"})
    )


@dataclass(frozen=True)
class MutationPair:
    """One paired-accounting contract checked by RL103."""

    pair_id: str
    modules: tuple[str, ...]  # rel prefixes the pair binds
    exclude: tuple[str, ...]
    trigger: Callable[[ast.AST], bool]
    required: Callable[[ast.AST], bool]
    message: str


_PAIRS: tuple[MutationPair, ...] = (
    MutationPair(
        "dirty-bit/_dirty_count",
        ("diskbtree/",),
        (),
        lambda e: _assign_attr_literal(e, "dirty", (True, False)),
        lambda e: _writes_attr(e, "_dirty_count"),
        "a dirty-bit flip must update the _dirty_count mirror on every path "
        "to exit (the proactive write-back trigger reads it)",
    ),
    MutationPair(
        "_frames/_policy",
        ("diskbtree/",),
        (),
        _frames_mutation,
        _policy_notification,
        "a frame-map mutation must notify the eviction policy (on_insert / "
        "on_remove) on every path to exit",
    ),
    MutationPair(
        "cpu_ns/background_ns",
        ("",),  # everywhere ...
        ("sim/clock.py",),  # ... except the clock itself
        lambda e: _writes_attr(e, "cpu_ns"),
        lambda e: _writes_attr(e, "background_ns"),
        "a foreground-CPU re-book outside SimClock must write the "
        "background account on the same path (time is conserved)",
    ),
    MutationPair(
        "art-dirty/activity",
        ("art/",),
        (),
        lambda e: _assign_attr_literal(e, "dirty", (True,)),
        lambda e: _writes_attr(e, "activity"),
        "setting an ART node's D bit must also set its activity bit (the "
        "check-back protocol reads both)",
    ),
)


def _rule_paired_mutation(
    analysis: Analysis, module: Module, func: FunctionNode, sink: Findings
) -> None:
    if func.name in ("__init__", "__new__"):
        # Constructors initialize fields on an object no registry knows
        # about yet; accounting starts when the object is admitted.
        return
    pairs = [
        p
        for p in _PAIRS
        if module.rel.startswith(p.modules) and not module.rel.startswith(p.exclude)
    ]
    if not pairs:
        return
    cfg: CFG | None = None
    for pair in pairs:
        # Cheap pre-scan before building the CFG.
        has_trigger = any(pair.trigger(node) for node in ast.walk(func))
        if not has_trigger:
            continue
        if cfg is None:
            cfg = analysis.cfg(func)
        required_bids = frozenset(
            block.bid
            for block in cfg.blocks
            if any(pair.required(elem) for elem in block.elements)
        )
        for block in cfg.blocks:
            for elem in block.elements:
                if not pair.trigger(elem):
                    continue
                if block.bid in required_bids:
                    continue  # paired within the same basic block
                to_exit = cfg.reachable(block, cfg.exit, avoid=required_bids)
                from_entry = cfg.reachable(
                    block, cfg.entry, avoid=required_bids, forward=False
                )
                if to_exit and from_entry:
                    sink.add(
                        module.path,
                        elem,
                        "RL103",
                        f"unpaired accounting mutation ({pair.pair_id}): "
                        f"{pair.message}",
                    )


# ----------------------------------------------------------------------
# RL104: transitive hot-path allocation
# ----------------------------------------------------------------------

_ALLOCATOR_CALLS = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "Counter", "defaultdict", "OrderedDict"}
)
_ALLOC_DISPLAYS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def _unconditional_allocation(func: FunctionNode) -> ast.AST | None:
    """An allocation (or local import) every call of ``func`` must pay.

    Only the function body's top-level simple statements count — anything
    under a branch, loop, or try is conditional and the caller may never
    hit it.
    """
    for stmt in func.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            return stmt
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Expr, ast.Return)):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, _ALLOC_DISPLAYS):
                return node
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ALLOCATOR_CALLS
            ):
                return node
    return None


class _LoopCallCollector(LoopDepthVisitor):
    """In-loop call sites of one function (the loop model RL007 uses)."""

    def __init__(self) -> None:
        self.calls: list[ast.Call] = []

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        pass  # nested defs are separate functions

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        if self.loop_depth > 0:
            self.calls.append(node)
        self.generic_visit(node)


def _rule_hot_alloc(analysis: Analysis, graph: CallGraph, sink: Findings) -> None:
    for key, info in graph.functions.items():
        if not info.rel.startswith(HOT_PREFIXES):
            continue
        if info.name in _MAINTENANCE_NAMES:
            # Maintenance routines are background batch work; their loops
            # allocate by design (merge outputs, flush batches).  RL104
            # protects the foreground hot path.
            continue
        module = analysis.by_rel[info.rel]
        collector = _LoopCallCollector()
        for stmt in info.node.body:
            collector.visit(stmt)
        if not collector.calls:
            continue
        resolved: dict[int, list[str]] = {}
        for site in graph.callees(key):
            resolved.setdefault(id(site.call), []).append(site.callee)
        for call in collector.calls:
            func_expr = call.func
            plain_name = isinstance(func_expr, ast.Name)
            self_method = (
                isinstance(func_expr, ast.Attribute)
                and isinstance(func_expr.value, ast.Name)
                and func_expr.value.id in ("self", "cls")
            )
            if not plain_name and not self_method:
                continue  # longer chains are RL007's (shallow) business
            for callee_key in resolved.get(id(call), ()):
                callee = graph.functions[callee_key]
                if callee.name in ("__init__", "__new__") or callee_key == key:
                    continue
                alloc = _unconditional_allocation(callee.node)
                if alloc is None:
                    continue
                what = (
                    "a function-local import"
                    if isinstance(alloc, (ast.Import, ast.ImportFrom))
                    else "an unconditional allocation"
                )
                sink.add(
                    module.path,
                    call,
                    "RL104",
                    f"loop body calls {callee.name}() which pays {what} "
                    f"({callee.rel}:{getattr(alloc, 'lineno', '?')}) on every "
                    "iteration; hoist the work or restructure the helper",
                )
                break  # one finding per call site is enough


def check(analysis: Analysis, active: frozenset[str], out: Findings) -> None:
    """The deep pass: RL101/RL104 over the call graph, RL102/RL103 per function."""
    if "RL101" in active:
        _rule_inline_background(analysis, analysis.callgraph(), out)
    if "RL104" in active:
        _rule_hot_alloc(analysis, analysis.callgraph(), out)
    if "RL102" in active or "RL103" in active:
        for module in analysis.modules:
            for _cls, func in iter_function_defs(module.tree):
                if "RL102" in active:
                    _rule_determinism(module, analysis.cfg(func), out)
                if "RL103" in active:
                    _rule_paired_mutation(analysis, module, func, out)
