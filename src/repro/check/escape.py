"""Escape/ownership analysis for the shard dispatch concurrency contract.

The sharded serving layer (:mod:`repro.shard.router`) is lock-free by
construction: batched operations are partitioned once on the calling
thread, dispatched once to :meth:`~repro.shard.pool.ShardWorkerPool.run`
(the *scatter barrier* — the only happens-before edge between worker
thunks and the foreground), and merged after the barrier.  That design is
only safe under an ownership discipline the code cannot express locally:

* each dispatched thunk may mutate state rooted at **exactly one** shard's
  engine (the one its shard id names);
* everything else a thunk can reach must be immutable, ``@shared_readonly``
  (read-only between partition and scatter), or fresh per-thunk data the
  foreground built while partitioning;
* no thunk result, stat, or clock charge may be read by the foreground
  before the barrier returns.

This module proves (or refutes) that discipline statically, on top of the
CFG / reaching-definitions / call-graph substrate.  It discovers dispatch
sites (``pool.run(...)`` calls and calls to *forwarders* — functions that
pass a parameter straight through to ``pool.run``, like the router's
``_dispatch`` seam), resolves the work list to its thunk expressions via
reaching definitions, classifies every value a thunk captures (shard
engine with a distinct index, shared-readonly object, substrate account,
fresh container, immutable, unknown), and walks bound ``self`` methods
interprocedurally to find writes the thunk would perform on foreground
state.

The rule split (reported by :mod:`repro.check.racecheck`):

=======  =============================================================
RL201    thread-escape: a thunk captures mutable foreground/router
         state (runtime, stats, clock, or any non-shard ``self``
         attribute it writes) — state that is not a single shard's
         engine and not proven immutable.
RL202    ownership-partition: two thunks may alias the same mutable
         root — a loop-invariant/constant shard index, or the whole
         shard container escaping into a thunk.
RL203    shared-read-immutability: a thunk (or a method it calls)
         writes an object whose class is ``@shared_readonly``.
=======  =============================================================

Soundness limits (deliberate, mirrored by the runtime oracle): the
analysis is scoped to ``shard/`` modules — the contract's domain — and
flags only *proven-dangerous* escapes.  Captures it cannot classify
(opaque parameters, values from unresolvable calls) are assumed
read-only; the :class:`~repro.check.sanitizer.OwnershipSanitizer`
cross-validates those at runtime with per-thunk ownership claims.
Thunks built by imperative ``append`` loops (rather than comprehensions
or list displays) are not resolved; the blessed dispatch seam only ever
builds comprehensions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.check.callgraph import CallGraph, _attr_chain, callee_name
from repro.check.cfg import CFG, FunctionNode, iter_function_defs
from repro.check.dataflow import Definition, ReachingDefs
from repro.check.engine import Analysis, Findings, Module

__all__ = ["ContractRegistry", "analyze_module", "build_registry"]

_POOL_CLASS = "ShardWorkerPool"
#: per-engine simulated substrate attributes; mutating them from a thunk
#: that does not own the engine corrupts another shard's accounts.
_SUBSTRATE_ATTRS = frozenset({"runtime", "stats", "clock", "disk", "scheduler"})
#: mutators on the substrate objects above.
_SUBSTRATE_MUTATORS = frozenset(
    {
        "bump",
        "record_max",
        "charge_cpu",
        "charge_background",
        "merge",
        "reset",
        "restore",
        "subscribe",
    }
)
#: container mutators (same set the shallow shard rules police).
_CONTAINER_MUTATORS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)
#: builtin constructors whose result is a fresh foreground container.
_FRESH_BUILTINS = frozenset({"list", "dict", "tuple", "sorted", "set"})

_MAX_WALK_DEPTH = 3


# ----------------------------------------------------------------------
# registry: project-wide contract facts
# ----------------------------------------------------------------------


@dataclass
class ContractRegistry:
    """Contract facts collected over the whole analyzed tree.

    ``shared_ro`` is the subclass closure of every ``@shared_readonly``
    class; ``distinct_fns`` the names of ``@distinct_ids`` functions
    (their return values iterate pairwise-distinct shard ids);
    ``attr_types`` maps ``class -> attr -> declared type`` (from
    ``self.x: T = ...`` annotations and ``self.x = ClassName(...)``
    constructor assignments); ``forwarders`` maps a function key to the
    ``(sids, work)`` argument positions its call sites dispatch through.
    """

    shared_ro: set[str] = field(default_factory=set)
    distinct_fns: set[str] = field(default_factory=set)
    attr_types: dict[str, dict[str, str]] = field(default_factory=dict)
    bases: dict[str, list[str]] = field(default_factory=dict)
    forwarders: dict[str, tuple[int, int]] = field(default_factory=dict)

    def attr_type(self, class_name: Optional[str], attr: str) -> Optional[str]:
        """Declared type of ``attr`` with a project-local MRO walk."""
        if class_name is None:
            return None
        seen: set[str] = set()
        stack = [class_name]
        while stack:
            cls = stack.pop(0)
            if cls in seen:
                continue
            seen.add(cls)
            found = self.attr_types.get(cls, {}).get(attr)
            if found is not None:
                return found
            stack.extend(self.bases.get(cls, []))
        return None

    def is_shared_ro_type(self, type_name: Optional[str]) -> bool:
        return type_name is not None and type_name in self.shared_ro

    def is_shard_container_type(self, type_name: Optional[str]) -> bool:
        return (
            type_name is not None
            and type_name.startswith("list[")
            and "KVSystem" in type_name
        )


def _decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef) -> set[str]:
    targets = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return {name for name in map(callee_name, targets) if name is not None}


def _collect_attr_types(node: ast.ClassDef, into: dict[str, str]) -> None:
    """``self.x: T`` annotations and ``self.x = ClassName(...)`` assigns."""
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            into.setdefault(stmt.target.id, ast.unparse(stmt.annotation))
    for sub in ast.walk(node):
        if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Attribute):
            chain = _attr_chain(sub.target)
            if chain is not None and len(chain) == 2 and chain[0] == "self":
                into.setdefault(chain[1], ast.unparse(sub.annotation))
        elif isinstance(sub, ast.Assign) and len(sub.targets) == 1:
            target = sub.targets[0]
            chain = _attr_chain(target) if isinstance(target, ast.Attribute) else None
            if chain is None or len(chain) != 2 or chain[0] != "self":
                continue
            value = sub.value
            if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                into.setdefault(chain[1], value.func.id)


def build_registry(trees: dict[str, ast.Module], graph: CallGraph) -> ContractRegistry:
    """Collect the contract registry over ``rel path -> module AST``."""
    reg = ContractRegistry()
    for rel, tree in sorted(trees.items()):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = []
                for base in node.bases:
                    chain = _attr_chain(base)
                    if chain:
                        bases.append(chain[-1])
                reg.bases[node.name] = bases
                if "shared_readonly" in _decorator_names(node):
                    reg.shared_ro.add(node.name)
                _collect_attr_types(node, reg.attr_types.setdefault(node.name, {}))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if "distinct_ids" in _decorator_names(node):
                    reg.distinct_fns.add(node.name)
    # Subclass closure of the shared-readonly classes.
    changed = True
    while changed:
        changed = False
        for cls, bases in reg.bases.items():
            if cls not in reg.shared_ro and any(b in reg.shared_ro for b in bases):
                reg.shared_ro.add(cls)
                changed = True
    # Forwarders: a function whose pool.run argument is a bare parameter.
    for key, info in graph.functions.items():
        params = _param_names(info.node)
        ordered = _ordered_params(info.node)
        pool_names = _pool_annotated_params(info.node) | ({"pool"} & params)
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            if not _is_pool_run(node, info.class_name, reg, pool_names):
                continue
            work = node.args[0]
            if isinstance(work, ast.Name) and work.id in ordered:
                work_idx = ordered.index(work.id)
                # The sids argument precedes the work argument by seam
                # convention; fall back to the work index when absent.
                sids_idx = max(0, work_idx - 1)
                reg.forwarders[key] = (sids_idx, work_idx)
    return reg


def _ordered_params(func: FunctionNode) -> list[str]:
    """Positional parameter names, ``self``/``cls`` receiver excluded."""
    args = func.args
    out = [a.arg for a in (*args.posonlyargs, *args.args)]
    if out and out[0] in ("self", "cls"):
        out = out[1:]
    return out


def _param_names(func: FunctionNode) -> set[str]:
    args = func.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    return names


def _pool_annotated_params(func: FunctionNode) -> set[str]:
    out: set[str] = set()
    args = func.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        if arg.annotation is None:
            continue
        ann = ast.unparse(arg.annotation).strip("\"'")
        if _POOL_CLASS in ann:
            out.add(arg.arg)
    return out


def _is_pool_run(
    call: ast.Call,
    class_name: Optional[str],
    reg: ContractRegistry,
    pool_names: set[str],
) -> bool:
    """True when ``call`` is a scatter-barrier ``pool.run(...)`` call."""
    chain = _attr_chain(call.func)
    if chain is None or chain[-1] != "run" or len(chain) < 2:
        return False
    recv = chain[:-1]
    if recv[0] in ("self", "cls") and len(recv) == 2:
        return reg.attr_type(class_name, recv[1]) == _POOL_CLASS
    if len(recv) == 1:
        return recv[0] in pool_names
    return False


# ----------------------------------------------------------------------
# name resolution inside one function (reaching definitions)
# ----------------------------------------------------------------------


class _Scope:
    """Resolves ``Name`` loads to their reaching definitions.

    Anchoring works by locating the CFG element that (shallowly) contains
    an AST node; compound elements contribute only their decision /
    iterable parts, so a node inside a loop body anchors to its own
    element, never the loop head.
    """

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        self.reaching = ReachingDefs(self.cfg)
        self.params = set(self.reaching.params)
        self._pos: dict[int, tuple[int, int]] = {}
        for block in self.cfg.blocks:
            for index, elem in enumerate(block.elements):
                for node in self._shallow_walk(elem):
                    self._pos.setdefault(id(node), (block.bid, index))

    @staticmethod
    def _shallow_walk(elem: ast.AST) -> Iterable[ast.AST]:
        if isinstance(elem, (ast.For, ast.AsyncFor)):
            yield elem
            yield from ast.walk(elem.target)
            yield from ast.walk(elem.iter)
            return
        if isinstance(elem, (ast.With, ast.AsyncWith)):
            yield elem
            for item in elem.items:
                yield from ast.walk(item)
            return
        yield from ast.walk(elem)

    def defs_at(self, name: str, anchor: ast.AST) -> list[Definition]:
        """Reaching definitions of ``name`` just before ``anchor``'s element."""
        pos = self._pos.get(id(anchor))
        if pos is None:
            return []
        block = self.cfg.blocks[pos[0]]
        live = self.reaching.reaching_at(block, pos[1])
        return [d for d in live.get(name, set()) if d.value is not None]

    def is_param(self, name: str) -> bool:
        return name in self.params


# ----------------------------------------------------------------------
# value classification
# ----------------------------------------------------------------------

#: classification tags, roughly ordered by how dangerous a capture is.
_TAG_SHARD = "shard"  # one engine, carries index distinctness
_TAG_SHARD_CONTAINER = "shard_container"
_TAG_SUBSTRATE = "substrate"
_TAG_SHARED_RO = "shared_ro"
_TAG_POOL = "pool"
_TAG_FRESH = "fresh"  # container the foreground built while partitioning
_TAG_FRESH_ITEM = "fresh_item"
_TAG_DISTINCT = "distinct"  # a per-thunk-distinct shard id
_TAG_IMMUTABLE = "immutable"
_TAG_PARAM = "param"
_TAG_UNKNOWN = "unknown"


@dataclass(frozen=True)
class _Kind:
    tag: str
    #: for _TAG_SHARD: "distinct" | "const" | "invariant" | "unknown"
    index: str = ""


_UNKNOWN = _Kind(_TAG_UNKNOWN)


class _SiteAnalysis:
    """Classifies values and thunks around one function's dispatch sites."""

    def __init__(
        self,
        analysis: Analysis,
        rel: str,
        class_name: Optional[str],
        scope: _Scope,
        reg: ContractRegistry,
        graph: CallGraph,
        active: frozenset[str],
        out: Findings,
    ) -> None:
        self.analysis = analysis
        self.rel = rel
        self.class_name = class_name
        self.scope = scope
        self.reg = reg
        self.graph = graph
        self.active = active
        self.out = out

    def add(self, node: ast.AST, rule: str, message: str, rel: str | None = None) -> None:
        if rule in self.active:
            self.out.add(self.analysis.by_rel[rel or self.rel].path, node, rule, message)

    # -- expression classification -------------------------------------
    def classify(
        self,
        expr: ast.expr,
        env: dict[str, _Kind],
        anchor: ast.AST,
        depth: int = 0,
    ) -> _Kind:
        if depth > 6:
            return _UNKNOWN
        if isinstance(expr, ast.Constant):
            return _Kind(_TAG_IMMUTABLE)
        if isinstance(expr, ast.Name):
            bound = env.get(expr.id)
            if bound is not None:
                return bound
            defs = self.scope.defs_at(expr.id, anchor)
            if not defs and self.scope.is_param(expr.id):
                return _Kind(_TAG_PARAM)
            kinds = [
                self.classify(d.value, env, d.value, depth + 1)
                for d in defs
                if d.value is not None
            ]
            return _strongest(kinds)
        if isinstance(expr, ast.Attribute):
            chain = _attr_chain(expr)
            if chain is not None and chain[0] in ("self", "cls"):
                if len(chain) >= 2 and chain[1] in _SUBSTRATE_ATTRS:
                    return _Kind(_TAG_SUBSTRATE)
                declared = self.reg.attr_type(self.class_name, chain[1])
                if self.reg.is_shared_ro_type(declared):
                    return _Kind(_TAG_SHARED_RO)
                if self.reg.is_shard_container_type(declared):
                    return _Kind(_TAG_SHARD_CONTAINER) if len(chain) == 2 else _UNKNOWN
                if declared == _POOL_CLASS:
                    return _Kind(_TAG_POOL)
            return _UNKNOWN
        if isinstance(expr, ast.Subscript):
            base = self.classify(expr.value, env, anchor, depth + 1)
            if base.tag == _TAG_SHARD_CONTAINER:
                return _Kind(_TAG_SHARD, self._index_distinctness(expr.slice, env, anchor))
            if base.tag in (_TAG_FRESH, _TAG_FRESH_ITEM):
                return _Kind(_TAG_FRESH_ITEM)
            return _UNKNOWN
        if isinstance(expr, ast.Call):
            return self._classify_call(expr, env, anchor, depth)
        if isinstance(expr, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return _Kind(_TAG_FRESH)
        if isinstance(expr, (ast.BinOp, ast.UnaryOp, ast.Compare, ast.JoinedStr)):
            return _Kind(_TAG_IMMUTABLE)
        return _UNKNOWN

    def _classify_call(
        self, call: ast.Call, env: dict[str, _Kind], anchor: ast.AST, depth: int
    ) -> _Kind:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in _FRESH_BUILTINS:
                return _Kind(_TAG_FRESH)
            if func.id == "range":
                return _Kind(_TAG_DISTINCT)
            return _UNKNOWN
        chain = _attr_chain(func)
        if chain is None:
            return _UNKNOWN
        if chain[-1] in self.reg.distinct_fns:
            return _Kind(_TAG_DISTINCT)
        recv = self.classify(func.value, env, anchor, depth + 1)
        if recv.tag == _TAG_SHARED_RO:
            # A read-only object's method result is foreground-fresh data
            # (split/split_indexed build new per-shard lists).
            return _Kind(_TAG_FRESH)
        return _UNKNOWN

    def _index_distinctness(
        self, index: ast.expr, env: dict[str, _Kind], anchor: ast.AST
    ) -> str:
        if isinstance(index, ast.Constant):
            return "const"
        names = [
            n.id
            for n in ast.walk(index)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        ]
        bound = [env[n] for n in names if n in env]
        if any(k.tag == _TAG_DISTINCT for k in bound):
            return "distinct"
        if env and not bound:
            # No comprehension target feeds the index: the same value on
            # every iteration, i.e. every thunk aliases one engine.
            return "invariant"
        if not env:
            # List-display context: distinctness is judged pairwise.
            return "literal"
        return "unknown"

    # -- distinct-sequence recognition ---------------------------------
    def is_distinct_seq(self, expr: ast.expr, anchor: ast.AST, depth: int = 0) -> bool:
        if depth > 4:
            return False
        if isinstance(expr, ast.Call):
            if isinstance(expr.func, ast.Name) and expr.func.id == "range":
                return True
            chain = _attr_chain(expr.func)
            if chain is not None and chain[-1] in self.reg.distinct_fns:
                return True
            return False
        if isinstance(expr, ast.Name):
            return any(
                d.value is not None and self.is_distinct_seq(d.value, d.value, depth + 1)
                for d in self.scope.defs_at(expr.id, anchor)
            )
        if isinstance(expr, ast.ListComp) and len(expr.generators) == 1:
            gen = expr.generators[0]
            if not isinstance(expr.elt, ast.Name):
                return False
            first = _first_target_name(gen.target)
            it = gen.iter
            if (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Name)
                and it.func.id == "enumerate"
            ):
                return first is not None and expr.elt.id == first
            if self.is_distinct_seq(it, anchor, depth + 1):
                target = gen.target
                return isinstance(target, ast.Name) and expr.elt.id == target.id
            return False
        return False


def _strongest(kinds: list[_Kind]) -> _Kind:
    """Most significant classification when several definitions reach."""
    order = (
        _TAG_SHARD_CONTAINER,
        _TAG_SUBSTRATE,
        _TAG_SHARED_RO,
        _TAG_SHARD,
        _TAG_POOL,
        _TAG_DISTINCT,
        _TAG_FRESH,
        _TAG_FRESH_ITEM,
        _TAG_IMMUTABLE,
        _TAG_PARAM,
    )
    for tag in order:
        for kind in kinds:
            if kind.tag == tag:
                return kind
    return _UNKNOWN


def _first_target_name(target: ast.expr) -> Optional[str]:
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, (ast.Tuple, ast.List)) and target.elts:
        first = target.elts[0]
        if isinstance(first, ast.Name):
            return first.id
    return None


def _target_name_list(target: ast.expr) -> list[Optional[str]]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [e.id if isinstance(e, ast.Name) else None for e in target.elts]
    return []


# ----------------------------------------------------------------------
# thunk analysis
# ----------------------------------------------------------------------


class _ThunkAnalyzer(_SiteAnalysis):
    """Per-dispatch-site work-list and thunk classification."""

    def analyze_site(self, site_call: ast.Call, work: ast.expr, anchor: ast.AST) -> None:
        self._resolve_work(work, anchor, depth=0)

    def _resolve_work(self, work: ast.expr, anchor: ast.AST, depth: int) -> None:
        if depth > 4:
            return
        if isinstance(work, ast.Name):
            for definition in self.scope.defs_at(work.id, anchor):
                if definition.value is not None:
                    self._resolve_work(definition.value, definition.value, depth + 1)
            return
        if isinstance(work, ast.ListComp):
            env = self._comp_env(work, anchor)
            self._thunk(work.elt, env, anchor)
            return
        if isinstance(work, ast.List):
            self._list_display(work, anchor)
            return
        # Unresolvable work list: the runtime oracle covers it.

    def _comp_env(self, comp: ast.ListComp, anchor: ast.AST) -> dict[str, _Kind]:
        env: dict[str, _Kind] = {}
        for gen in comp.generators:
            names = _target_name_list(gen.target)
            it = gen.iter
            if (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Name)
                and it.func.id in ("enumerate", "zip", "range")
            ):
                if it.func.id == "range":
                    for name in names:
                        if name:
                            env[name] = _Kind(_TAG_DISTINCT)
                elif it.func.id == "enumerate":
                    if names and names[0]:
                        env[names[0]] = _Kind(_TAG_DISTINCT)
                    if len(names) > 1 and names[1] and it.args:
                        env[names[1]] = self._item_kind(it.args[0], anchor)
                else:  # zip: positional pairing of targets and arguments
                    for name, arg in zip(names, it.args):
                        if not name:
                            continue
                        if self.is_distinct_seq(arg, anchor):
                            env[name] = _Kind(_TAG_DISTINCT)
                        else:
                            env[name] = self._item_kind(arg, anchor)
                continue
            if self.is_distinct_seq(it, anchor):
                for name in names:
                    if name:
                        env[name] = _Kind(_TAG_DISTINCT)
                continue
            for name in names:
                if name:
                    env[name] = self._item_kind(it, anchor)
        return env

    def _item_kind(self, container: ast.expr, anchor: ast.AST) -> _Kind:
        kind = self.classify(container, {}, anchor)
        if kind.tag in (_TAG_FRESH, _TAG_FRESH_ITEM):
            return _Kind(_TAG_FRESH_ITEM)
        if kind.tag == _TAG_SHARD_CONTAINER:
            # ``for shard in shards``: positionally distinct engines.
            return _Kind(_TAG_SHARD, "distinct")
        return _UNKNOWN

    # -- one thunk ------------------------------------------------------
    def _thunk(self, elt: ast.expr, env: dict[str, _Kind], anchor: ast.AST) -> None:
        callee: Optional[ast.expr] = None
        cargs: list[ast.expr] = []
        if isinstance(elt, ast.Call):
            func = elt.func
            name = func.id if isinstance(func, ast.Name) else None
            chain = _attr_chain(func)
            if name == "partial" or (chain is not None and chain[-1] == "partial"):
                if not elt.args:
                    return
                callee = elt.args[0]
                cargs = list(elt.args[1:]) + [kw.value for kw in elt.keywords]
            else:
                return  # a thunk built by an opaque factory: oracle territory
        elif isinstance(elt, ast.Lambda):
            self._lambda_body(elt, env, anchor)
            return
        elif isinstance(elt, (ast.Attribute, ast.Name)):
            callee = elt
        else:
            return
        if callee is not None:
            self._callee(callee, env, anchor)
        for arg in cargs:
            self._capture(arg, env, anchor)

    def _callee(self, callee: ast.expr, env: dict[str, _Kind], anchor: ast.AST) -> None:
        if isinstance(callee, ast.Name):
            for definition in self.scope.defs_at(callee.id, anchor):
                if isinstance(definition.value, ast.Attribute):
                    self._callee(definition.value, env, definition.value)
            return
        if not isinstance(callee, ast.Attribute):
            return
        method = callee.attr
        receiver = callee.value
        chain = _attr_chain(callee)
        if chain is not None and chain[0] in ("self", "cls") and len(chain) == 2:
            key = self.graph.resolve_method(self.class_name or "", method)
            if key is not None:
                self._walk_method(key, callee, depth=0, seen=set())
                return
        kind = self.classify(receiver, env, anchor)
        self._receiver(kind, receiver, method, anchor)

    def _receiver(
        self, kind: _Kind, receiver: ast.expr, method: str, anchor: ast.AST
    ) -> None:
        if kind.tag == _TAG_SHARD:
            if kind.index in ("const", "invariant"):
                self.add(
                    receiver,
                    "RL202",
                    "ownership partition violated: the shard index is the same "
                    "for every dispatched thunk, so all thunks alias one "
                    "engine; index the shard container by a distinct shard id",
                )
            return
        if kind.tag == _TAG_SHARD_CONTAINER:
            self.add(
                receiver,
                "RL202",
                "ownership partition violated: the whole shard container "
                "escapes into a dispatched thunk; pass shards[sid] for "
                "exactly one distinct sid instead",
            )
            return
        if kind.tag == _TAG_SUBSTRATE:
            self.add(
                receiver,
                "RL201",
                "thread escape: a dispatched thunk captures the router's own "
                "simulated substrate (runtime/stats/clock); per-shard work "
                "must charge the owning shard's accounts only",
            )
            return
        if kind.tag == _TAG_SHARED_RO and method in (
            _CONTAINER_MUTATORS | _SUBSTRATE_MUTATORS
        ):
            self.add(
                receiver,
                "RL203",
                f"@shared_readonly object mutated inside a dispatched thunk "
                f"({method}()); shared state is frozen between partition "
                "and scatter",
            )

    def _capture(self, arg: ast.expr, env: dict[str, _Kind], anchor: ast.AST) -> None:
        kind = self.classify(arg, env, anchor)
        if kind.tag == _TAG_SHARD and kind.index in ("const", "invariant"):
            self.add(
                arg,
                "RL202",
                "ownership partition violated: every dispatched thunk "
                "receives the same shard's engine; pass shards[sid] for a "
                "distinct sid per thunk",
            )
        elif kind.tag == _TAG_SHARD_CONTAINER:
            self.add(
                arg,
                "RL202",
                "ownership partition violated: the whole shard container is "
                "passed into a dispatched thunk; a thunk may own exactly one "
                "shard's engine",
            )
        elif kind.tag == _TAG_SUBSTRATE:
            self.add(
                arg,
                "RL201",
                "thread escape: the router's simulated substrate "
                "(runtime/stats/clock) is passed into a dispatched thunk; "
                "substrate accounts are foreground-owned",
            )

    def _lambda_body(self, lam: ast.Lambda, env: dict[str, _Kind], anchor: ast.AST) -> None:
        lam_params = {a.arg for a in lam.args.args}
        for node in ast.walk(lam.body):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if chain is None:
                continue
            method = chain[-1]
            if chain[0] in ("self", "cls"):
                if len(chain) == 2:
                    key = self.graph.resolve_method(self.class_name or "", method)
                    if key is not None:
                        self._walk_method(key, node, depth=0, seen=set())
                        continue
                if isinstance(node.func, ast.Attribute):
                    kind = self.classify(node.func.value, env, anchor)
                    self._receiver(kind, node.func, method, anchor)
                continue
            root = chain[0]
            if (
                method in _CONTAINER_MUTATORS
                and root not in lam_params
                and root not in env
                and (self.scope.is_param(root) or self.scope.defs_at(root, anchor))
            ):
                self.add(
                    node,
                    "RL201",
                    f"thread escape: a dispatched thunk writes foreground "
                    f"local {root!r} through a side channel ({method}()); "
                    "thunks communicate results through return values only",
                )

    def _list_display(self, work: ast.List, anchor: ast.AST) -> None:
        engine_indexes: dict[str, ast.expr] = {}
        for elt in work.elts:
            self._thunk(elt, {}, anchor)
            for expr in self._engine_subscripts(elt, anchor):
                repr_ = ast.unparse(expr.slice)
                if repr_ in engine_indexes:
                    self.add(
                        expr,
                        "RL202",
                        f"ownership partition violated: two dispatched thunks "
                        f"alias the engine at shard index {repr_}; each thunk "
                        "must own a distinct shard",
                    )
                engine_indexes[repr_] = expr

    def _engine_subscripts(self, elt: ast.expr, anchor: ast.AST) -> list[ast.Subscript]:
        out: list[ast.Subscript] = []
        for node in ast.walk(elt):
            if isinstance(node, ast.Subscript):
                base = self.classify(node.value, {}, anchor)
                if base.tag == _TAG_SHARD_CONTAINER:
                    out.append(node)
        return out

    # -- interprocedural walk of bound self methods --------------------
    def _walk_method(
        self, key: str, origin: ast.AST, depth: int, seen: set[str]
    ) -> None:
        if depth > _MAX_WALK_DEPTH or key in seen:
            return
        seen.add(key)
        info = self.graph.functions.get(key)
        if info is None:
            return
        for node in ast.walk(info.node):
            self._walk_stmt(node, info.rel)
            if isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                if (
                    chain is not None
                    and len(chain) == 2
                    and chain[0] in ("self", "cls")
                ):
                    nxt = self.graph.resolve_method(
                        info.class_name or self.class_name or "", chain[1]
                    )
                    if nxt is not None:
                        self._walk_method(nxt, origin, depth + 1, seen)

    def _walk_stmt(self, node: ast.AST, rel: str) -> None:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            base = target
            if isinstance(base, ast.Subscript):
                base = base.value
            chain = _attr_chain(base) if isinstance(base, ast.Attribute) else None
            if chain is None or chain[0] not in ("self", "cls"):
                continue
            declared = self.reg.attr_type(self.class_name, chain[1])
            if self.reg.is_shared_ro_type(declared):
                self.add(
                    target,
                    "RL203",
                    f"@shared_readonly object written inside a dispatched "
                    f"thunk (self.{chain[1]}); shared state is frozen "
                    "between partition and scatter",
                    rel=rel,
                )
            else:
                self.add(
                    target,
                    "RL201",
                    f"thread escape: a dispatched thunk writes router state "
                    f"self.{'.'.join(chain[1:])}; router attributes are "
                    "foreground-owned between dispatch and scatter",
                    rel=rel,
                )
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            if chain is None or chain[0] not in ("self", "cls") or len(chain) < 3:
                return
            method = chain[-1]
            declared = self.reg.attr_type(self.class_name, chain[1])
            if self.reg.is_shared_ro_type(declared) and method in (
                _CONTAINER_MUTATORS | _SUBSTRATE_MUTATORS
            ):
                self.add(
                    node,
                    "RL203",
                    f"@shared_readonly object mutated inside a dispatched "
                    f"thunk (self.{chain[1]}.{method}()); shared state is "
                    "frozen between partition and scatter",
                    rel=rel,
                )
            elif method in _SUBSTRATE_MUTATORS and (
                chain[1] in _SUBSTRATE_ATTRS or chain[-2] in _SUBSTRATE_ATTRS
            ):
                self.add(
                    node,
                    "RL201",
                    f"thread escape: a dispatched thunk mutates the shared "
                    f"substrate (self.{'.'.join(chain[1:-1])}.{method}()); "
                    "per-shard accounting belongs to the owning shard's "
                    "runtime",
                    rel=rel,
                )
            elif method in _CONTAINER_MUTATORS and chain[1] not in ("shards",):
                self.add(
                    node,
                    "RL201",
                    f"thread escape: a dispatched thunk mutates router "
                    f"container self.{'.'.join(chain[1:-1])} ({method}()); "
                    "router state is foreground-owned",
                    rel=rel,
                )


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def analyze_module(
    analysis: Analysis,
    module: Module,
    reg: ContractRegistry,
    graph: CallGraph,
    active: frozenset[str],
    out: Findings,
) -> None:
    """Run the escape/ownership rules over one shard-layer module."""
    rel = module.rel
    for class_name, func in iter_function_defs(module.tree):
        qual = f"{class_name}.{func.name}" if class_name else func.name
        key = f"{rel}::{qual}"
        own_forward = reg.forwarders.get(key)
        params = _param_names(func)
        pool_names = _pool_annotated_params(func) | ({"pool"} & params)
        sites: list[tuple[ast.Call, ast.expr]] = []
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            if _is_pool_run(node, class_name, reg, pool_names) and node.args:
                work = node.args[0]
                if (
                    own_forward is not None
                    and isinstance(work, ast.Name)
                    and work.id in params
                ):
                    continue  # the forwarder's own seam: analyzed at call sites
                sites.append((node, work))
                continue
            chain = _attr_chain(node.func)
            if (
                chain is not None
                and len(chain) == 2
                and chain[0] in ("self", "cls")
                and class_name is not None
            ):
                target = graph.resolve_method(class_name, chain[1])
                if target is not None and target in reg.forwarders:
                    __, work_idx = reg.forwarders[target]
                    if work_idx < len(node.args):
                        sites.append((node, node.args[work_idx]))
        if not sites:
            continue
        scope = _Scope(analysis.cfg(func))
        analyzer = _ThunkAnalyzer(analysis, rel, class_name, scope, reg, graph, active, out)
        for call, work in sites:
            analyzer.analyze_site(call, work, call)
