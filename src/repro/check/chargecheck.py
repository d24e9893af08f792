"""Charge-effect analysis: the RL3xx rule family.

Every committed result rests on the cost model being charged *exactly
right*: each physical action charges ``SimClock``/``SimDisk`` once on
every control-flow path, in the right accounting bucket (foreground
``cpu_ns`` vs ``background_ns``), and never on cache-hit or exception
paths.  This module proves (or refutes) that statically: a summary-based
interprocedural pass over the CFG (:mod:`~repro.check.cfg`) and call
graph (:mod:`~repro.check.callgraph`) infers, per function, a *count
interval* ``[lo, hi]`` for each of the four charge effects
(``disk_read``, ``disk_write``, ``cpu_charge``, ``bg_charge``; ``hi``
saturates at ``MANY`` = "2 or more"), then checks the contracts declared
with :func:`repro.sim.effects.charges`:

=======  ==============================================================
RL301    charge-completeness: a declared effect occurs within its
         declared multiplicity on every path — no zero-charge fast path
         unless guarded by a recognized cache-hit predicate, no
         undeclared effect, no declared-but-unreachable effect.
RL302    double-charge: no path may charge a declared effect more times
         than its declared upper multiplicity, including transitively
         through helpers (the bug class golden diffs cannot localize).
RL303    bucket-confusion: code reachable inline from a ``KVSystem``
         foreground verb must not charge ``background_ns``, and code
         reachable from a scheduler-registered maintenance runner must
         not charge foreground ``cpu_ns`` — unless the charging function
         *declares* that effect (the declaration is the audited record
         of a deliberate accounting decision, e.g. release-stall CPU).
RL304    exception-path charge skew: a ``raise`` edge between a
         self-rooted state mutation and its paired charge (or vice
         versa) lets an exception strand accounting mid-update.
         Extends RL103's pairing idea from CFG-local bookkeeping to
         charge semantics.  Scoped to ``sim/``/``diskbtree/``/``lsm/``/
         ``core/``.
=======  ==============================================================

RL305 is the runtime half: :class:`~repro.check.chargeaudit.ChargeAuditor`
replays sampled verbs against the summaries computed here, so every
static bound has a dynamic check.

Resolution model (known imprecision — see DESIGN.md §12)
--------------------------------------------------------

Effects propagate only along *confident* call edges: same-module names,
``self``/``cls`` methods, imports, receivers typed by the curated field
table (``self.index`` is an ``IndeXY``, a ``diskbtree`` ``self.pool`` is
a ``BufferPool``, ...), and project-unique method names.  Unresolvable
calls contribute **no** effects; each summary carries a ``complete`` bit
(False when an unresolved call *could* name a charging function) so the
runtime auditor knows whether the upper bound is trustworthy.  Work
routed through the ``BackgroundScheduler`` seam is deliberately opaque
(``_run_one`` is modelled as effect-free), mirroring both the RL101
call-graph seam and the auditor, which suspends counting inside
scheduler-run work.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from repro.check.callgraph import (
    CallGraph,
    FunctionInfo,
    _attr_chain,
    _partial_target,
    bound_alias_chains,
    callee_name,
    rooted_at_self,
)
from repro.check.cfg import CFG, Element, element_calls
from repro.check.engine import Analysis, Findings, Module
from repro.sim.effects import EFFECT_NAMES, MANY, parse_effect

__all__ = ["ChargeAnalysis", "ChargeSummary", "check", "summarize"]

#: modules whose code participates in the charge analysis.
_SCOPE_PREFIXES = (
    "sim/",
    "diskbtree/",
    "lsm/",
    "art/",
    "btree/",
    "core/",
    "shard/",
    "systems/",
    "cache/",
)

#: RL304 is restricted to the packages whose charge/mutation pairing the
#: committed results depend on most directly (noise control; widen as
#: contracts land elsewhere).
_SKEW_PREFIXES = ("sim/", "diskbtree/", "lsm/", "core/")

# ----------------------------------------------------------------------
# the effect lattice
# ----------------------------------------------------------------------

_N_EFFECTS = len(EFFECT_NAMES)
_DR, _DW, _CPU, _BG = range(_N_EFFECTS)

Interval = tuple[int, int]
Vec = tuple[Interval, ...]

_ZERO_IV: Interval = (0, 0)
_ONE_IV: Interval = (1, 1)
_MAYBE_IV: Interval = (0, 1)
_ZERO_VEC: Vec = (_ZERO_IV,) * _N_EFFECTS


def _iv_add(a: Interval, b: Interval) -> Interval:
    return (min(a[0] + b[0], MANY), min(a[1] + b[1], MANY))


def _iv_join(a: Interval, b: Interval) -> Interval:
    return (min(a[0], b[0]), max(a[1], b[1]))


def _vec_add(a: Vec, b: Vec) -> Vec:
    if b is _ZERO_VEC:
        return a
    return tuple(_iv_add(x, y) for x, y in zip(a, b))


def _vec_join(a: Vec, b: Vec) -> Vec:
    return tuple(_iv_join(x, y) for x, y in zip(a, b))


def _vec_of(*pairs: tuple[int, Interval]) -> Vec:
    out = list(_ZERO_VEC)
    for idx, iv in pairs:
        out[idx] = iv
    return tuple(out)


# ----------------------------------------------------------------------
# the contract surface
# ----------------------------------------------------------------------

#: primitives and masked seams: these functions are the *definition* of
#: an effect (or a deliberately opaque boundary), so their bodies are not
#: analyzed and their summaries are fixed.  ``_run_one`` is the scheduler
#: execution seam: statically effect-free to match the auditor, which
#: suspends counting while it runs (see the module docstring).
_FIXED_SUMMARIES: dict[str, Vec] = {
    "sim/disk.py::SimDisk.read": _vec_of((_DR, _ONE_IV)),
    "sim/disk.py::SimDisk.write": _vec_of((_DW, _ONE_IV)),
    "sim/clock.py::SimClock.charge_cpu": _vec_of((_CPU, _ONE_IV)),
    "sim/clock.py::SimClock.charge_background": _vec_of((_BG, _ONE_IV)),
    "sim/runtime.py::BackgroundScheduler._run_one": _ZERO_VEC,
}

#: receiver field/name tokens typed to project classes: ``self.<token>.m()``
#: (or ``<token>.m()`` / ``self.<token>[i].m()``) resolves to ``C.m`` for
#: each candidate class ``C``; multiple candidates join.  Curated, not
#: inferred — additions belong here when a new charging chain must be
#: visible to the summaries (DESIGN.md §12 lists the residual blind spots).
_RECEIVER_TYPES: dict[str, tuple[str, ...]] = {
    "index": ("IndeXY",),
    "store": ("LSMStore",),
    "_store": ("LSMStore",),
    "memtable": ("MemTable",),
    "_memtable": ("MemTable",),
    "table": ("SSTable",),
    "tbl": ("SSTable",),
    "sstable": ("SSTable",),
    "precleaner": ("PreCleaner",),
    "budget": ("MemoryBudget",),
    "fleet": ("FleetController",),
    "heat": ("ShardHeat",),
    "scheduler": ("BackgroundScheduler",),
    "_scheduler": ("BackgroundScheduler",),
    "x": ("AdaptiveRadixTree", "BPlusTree"),
    "y": ("LSMStore", "DiskBPlusTree"),
    "_tree": ("AdaptiveRadixTree", "BPlusTree"),
    "tree": ("AdaptiveRadixTree", "BPlusTree"),
    "shard": ("ArtLsmSystem", "ArtBPlusSystem", "BPlusBPlusSystem", "RocksDbLikeSystem"),
    "shards": ("ArtLsmSystem", "ArtBPlusSystem", "BPlusBPlusSystem", "RocksDbLikeSystem"),
    "engine": ("ArtLsmSystem", "ArtBPlusSystem", "BPlusBPlusSystem", "RocksDbLikeSystem"),
}

#: per-package overrides where one token names different types per layer.
_RECEIVER_TYPES_BY_PREFIX: dict[str, dict[str, tuple[str, ...]]] = {
    "diskbtree/": {"pool": ("BufferPool",), "_pool": ("BufferPool",)},
    "systems/": {"pool": ("BufferPool",), "_pool": ("BufferPool",)},
}

#: receiver tokens that are plain data containers/counters: method calls
#: on them never charge (dict/list/stats buses), so they do not poison
#: the completeness bit.
_CHARGE_FREE_RECEIVERS = frozenset(
    {
        "_frames",
        "_blobs",
        "_decoded",
        "stats",
        "_stats",
        "_rng",
        "_policy",
        "_row_cache",
        "_block_cache",
        "_holders",
        "_mins",
        "queue",
        "_queue",
        "levels",
        "_pins",
        "_claims",
    }
)

#: builtins (and stdlib names used at module scope) whose calls are
#: charge-free by construction.
_BUILTIN_NAMES = frozenset(
    {
        "len",
        "isinstance",
        "issubclass",
        "bytes",
        "bytearray",
        "memoryview",
        "sorted",
        "min",
        "max",
        "sum",
        "abs",
        "round",
        "any",
        "all",
        "enumerate",
        "range",
        "zip",
        "map",
        "filter",
        "list",
        "dict",
        "set",
        "frozenset",
        "tuple",
        "repr",
        "str",
        "int",
        "float",
        "bool",
        "iter",
        "next",
        "hasattr",
        "getattr",
        "setattr",
        "id",
        "hash",
        "print",
        "type",
        "super",
        "vars",
        "divmod",
        "ord",
        "chr",
        "bisect_left",
        "bisect_right",
        "insort",
        "heappush",
        "heappop",
        "heapify",
        "heapreplace",
        "merge",
        "partial",
        "deque",
        "defaultdict",
        "Counter",
        "OrderedDict",
        "namedtuple",
        "ValueError",
        "TypeError",
        "KeyError",
        "RuntimeError",
        "NotImplementedError",
        "StopIteration",
        "AssertionError",
    }
)

#: identifier fragments that mark a branch test as a recognized cache-hit
#: (or filter) predicate: a zero-charge fast path through such a test is
#: the *point* of the cache, not a completeness bug (RL301).
_CACHE_HIT_TOKENS = (
    "cache",
    "frames",
    "frame",
    "bloom",
    "may_contain",
    "memtable",
    "hit",
    "cached",
    "_blocks",
    "_decoded",
    "min_key",
    "max_key",
)

#: foreground verb names on KVSystem subclasses (RL303 roots) — the
#: user-facing surface whose charges land on ``cpu_ns``.
_FG_VERBS = frozenset(
    {
        "insert",
        "read",
        "update",
        "delete",
        "scan",
        "put_many",
        "get_many",
        "delete_many",
        "read_modify_write",
    }
)


# ----------------------------------------------------------------------
# per-function model
# ----------------------------------------------------------------------


@dataclass
class _ElemInfo:
    """Charge-relevant facts about one CFG element."""

    bid: int
    index: int
    node: Element
    const: Vec  # direct primitive contributions
    callees: tuple[str, ...]  # confidently resolved project callees
    unresolved: tuple[str, ...]  # names of calls that did not resolve
    cpu_sites: tuple[ast.Call, ...]  # unambiguous charge_cpu call sites
    bg_sites: tuple[ast.Call, ...]  # unambiguous charge_background sites


@dataclass
class _FuncCharge:
    """One analyzed function: CFG + element facts + declared contract."""

    key: str
    info: FunctionInfo
    module: Module
    cfg: CFG
    declared: Optional[dict[str, Interval]]
    elems: list[_ElemInfo]
    register_runners: list[str]  # maintenance runner keys registered here

    def callee_keys(self) -> set[str]:
        out: set[str] = set()
        for elem in self.elems:
            out.update(elem.callees)
        return out


@dataclass(frozen=True)
class ChargeSummary:
    """The inferred charge behaviour of one function.

    ``effects`` maps each effect name to its ``[lo, hi]`` count interval
    over all paths entry -> exit; ``complete`` is False when an
    unresolved call could hide additional charges (the upper bounds are
    then untrustworthy; the lower bounds always hold for the paths the
    analysis can see).
    """

    key: str
    effects: dict[str, Interval]
    complete: bool
    declared: Optional[dict[str, Interval]]

    def interval(self, effect: str) -> Interval:
        return self.effects.get(effect, _ZERO_IV)


@dataclass
class ChargeAnalysis:
    """Everything the lint driver and the runtime auditor consume."""

    graph: CallGraph
    summaries: dict[str, ChargeSummary]

    def summary_for(self, class_name: str, method: str) -> Optional[ChargeSummary]:
        key = self.graph.resolve_method(class_name, method)
        if key is None:
            return None
        return self.summaries.get(key)


# ----------------------------------------------------------------------
# declaration + primitive extraction
# ----------------------------------------------------------------------


def _declared_contract(func: ast.AST) -> Optional[dict[str, Interval]]:
    """Parse an ``@charges(...)`` decorator syntactically (no imports)."""
    for dec in getattr(func, "decorator_list", []):
        if not isinstance(dec, ast.Call) or callee_name(dec.func) != "charges":
            continue
        contract: dict[str, Interval] = {}
        for arg in dec.args:
            if not isinstance(arg, ast.Constant) or not isinstance(arg.value, str):
                return None  # malformed declarations verify nothing
            try:
                effect, interval = parse_effect(arg.value)
            except ValueError:
                return None
            contract[effect] = interval
        return contract
    return None


def _call_target_chain(
    call: ast.Call, aliases: dict[str, tuple[str, ...]]
) -> Optional[tuple[str, ...]]:
    """The attribute chain a call invokes, through local aliases."""
    func = call.func
    if isinstance(func, ast.Name):
        return aliases.get(func.id)
    if isinstance(func, ast.Attribute):
        chain = _attr_chain(func)
        return tuple(chain) if chain is not None else None
    return None


def _primitive_vec(call: ast.Call, aliases: dict[str, tuple[str, ...]]) -> Optional[Vec]:
    """Direct effect of a charge-primitive call site, or None.

    Recognizes clock charges by their project-unique method names
    (including through local bound aliases, ``charge = clock.charge_cpu``),
    disk I/O by a ``disk``/``_disk`` receiver token, and the ART
    ``_charge_fn`` stored callable as an optional CPU charge (``[0,1]``:
    it is ``clock.charge_cpu``, or None on a clockless tree).
    """
    chain = _call_target_chain(call, aliases)
    if chain is None:
        return None
    attr = chain[-1]
    if attr == "charge_cpu":
        return _vec_of((_CPU, _ONE_IV))
    if attr == "charge_background":
        return _vec_of((_BG, _ONE_IV))
    if attr == "_charge_fn":
        return _vec_of((_CPU, _MAYBE_IV))
    if attr in ("read", "write") and len(chain) >= 2:
        recv = chain[-2]
        if recv in ("disk", "_disk"):
            idx = _DR if attr == "read" else _DW
            return _vec_of((idx, _ONE_IV))
    return None


def _unambiguous_site(
    call: ast.Call, aliases: dict[str, tuple[str, ...]]
) -> Optional[str]:
    """``"cpu"``/``"bg"`` when the call is a definite clock charge."""
    chain = _call_target_chain(call, aliases)
    if chain is None:
        return None
    if chain[-1] == "charge_cpu":
        return "cpu"
    if chain[-1] == "charge_background":
        return "bg"
    return None


# ----------------------------------------------------------------------
# call resolution (confident edges only)
# ----------------------------------------------------------------------


class _Resolver:
    """Resolve one function's call sites to project callees.

    Returns, per call, either a list of candidate keys (possibly empty =
    known charge-free) or ``None`` (unresolved: contributes nothing and
    may flip the completeness bit).
    """

    def __init__(
        self, graph: CallGraph, info: FunctionInfo, aliases: dict[str, tuple[str, ...]]
    ) -> None:
        self.graph = graph
        self.info = info
        self.aliases = aliases
        prefix = info.rel.split("/", 1)[0] + "/"
        self._receiver_types = dict(_RECEIVER_TYPES)
        self._receiver_types.update(_RECEIVER_TYPES_BY_PREFIX.get(prefix, {}))

    def resolve(self, call: ast.Call) -> Optional[list[str]]:
        func = call.func
        if isinstance(func, ast.Name):
            chain = self.aliases.get(func.id)
            if chain is not None:
                return self._resolve_chain(chain)
            return self._resolve_name(func.id)
        if isinstance(func, ast.Attribute):
            chain = _attr_chain(func)
            if chain is None:
                # Look through one subscript: ``self.shards[sid].read(k)``.
                base = func.value
                if isinstance(base, ast.Subscript):
                    inner = _attr_chain(base.value)
                    if inner is not None:
                        return self._resolve_chain((*inner, func.attr))
                return None
            return self._resolve_chain(tuple(chain))
        return None

    def _resolve_name(self, name: str) -> Optional[list[str]]:
        graph = self.graph
        if name in _BUILTIN_NAMES:
            return []
        hits = graph.resolve_name(self.info.rel, name)
        if hits:
            return hits
        if self.info.class_name:
            # A closure defined inside one of the class's methods.
            nested = graph.resolve_method(self.info.class_name, name)
            if nested is not None:
                return [nested]
        if name[:1].isupper():
            return []  # non-project class/exception constructor
        return None

    def _resolve_chain(self, chain: tuple[str, ...]) -> Optional[list[str]]:
        graph = self.graph
        attr = chain[-1]
        if chain[0] in ("self", "cls") and len(chain) == 2:
            if self.info.class_name:
                found = graph.resolve_method(self.info.class_name, attr)
                if found is not None:
                    return [found]
            return None  # a stored callable attribute, not a method
        token = chain[-2] if len(chain) >= 2 else None
        if token is not None:
            if token in _CHARGE_FREE_RECEIVERS:
                return []
            classes = self._receiver_types.get(token)
            if classes is None and token[:1].isupper():
                classes = (token,)  # classmethod call: ``SSTable.build(...)``
            if classes is not None:
                keys = [
                    key
                    for key in (graph.resolve_method(c, attr) for c in classes)
                    if key is not None
                ]
                if keys:
                    return keys
        candidates = [
            key
            for key in graph.by_name.get(attr, [])
            if graph.functions[key].class_name is not None
        ]
        if len(candidates) == 1:
            return candidates
        return None


def _runner_key(
    graph: CallGraph, info: FunctionInfo, arg: ast.expr
) -> Optional[str]:
    """Resolve a runner argument of ``scheduler.register(...)`` to a key."""
    if isinstance(arg, ast.Call):
        arg = _partial_target(arg) or arg
    chain = _attr_chain(arg)
    if chain is None:
        return None
    method = chain[-1]
    if chain[0] in ("self", "cls") and len(chain) == 2 and info.class_name:
        return graph.resolve_method(info.class_name, method)
    candidates = [
        key
        for key in graph.by_name.get(method, [])
        if graph.functions[key].class_name is not None
    ]
    if len(candidates) == 1:
        return candidates[0]
    return None


def _build_func_charge(
    graph: CallGraph, info: FunctionInfo, module: Module, cfg: CFG
) -> _FuncCharge:
    aliases = bound_alias_chains(info.node)
    resolver = _Resolver(graph, info, aliases)
    elems: list[_ElemInfo] = []
    runners: list[str] = []
    for block in cfg.blocks:
        for index, elem in enumerate(block.elements):
            const = _ZERO_VEC
            callees: list[str] = []
            unresolved: list[str] = []
            cpu_sites: list[ast.Call] = []
            bg_sites: list[ast.Call] = []
            for call in element_calls(elem):
                prim = _primitive_vec(call, aliases)
                if prim is not None:
                    const = _vec_add(const, prim)
                    site = _unambiguous_site(call, aliases)
                    if site == "cpu":
                        cpu_sites.append(call)
                    elif site == "bg":
                        bg_sites.append(call)
                    continue
                if (
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr == "register"
                ):
                    for arg in [*call.args, *(kw.value for kw in call.keywords)]:
                        key = _runner_key(graph, info, arg)
                        if key is not None:
                            runners.append(key)
                resolved = resolver.resolve(call)
                if resolved is None:
                    unresolved.append(callee_name(call.func) or "<dynamic>")
                else:
                    callees.extend(resolved)
            if (
                const is not _ZERO_VEC
                or callees
                or unresolved
                or cpu_sites
                or bg_sites
            ):
                elems.append(
                    _ElemInfo(
                        block.bid,
                        index,
                        elem,
                        const,
                        tuple(callees),
                        tuple(unresolved),
                        tuple(cpu_sites),
                        tuple(bg_sites),
                    )
                )
    return _FuncCharge(
        info.key,
        info,
        module,
        cfg,
        _declared_contract(info.node),
        elems,
        runners,
    )


# ----------------------------------------------------------------------
# the interprocedural fixpoint
# ----------------------------------------------------------------------


def _elem_vec(elem: _ElemInfo, vec_of: dict[str, Vec]) -> Vec:
    out = elem.const
    for callee in elem.callees:
        out = _vec_add(out, vec_of.get(callee, _ZERO_VEC))
    return out


def _intra_summary(
    fa: _FuncCharge, vec_of: dict[str, Vec]
) -> tuple[Vec, dict[int, Vec]]:
    """Forward interval dataflow over one CFG.

    Returns the entry->exit effect vector and the per-block *in* vectors
    (used by the rule checkers for localization).  Join is interval
    union; sequencing is saturating interval addition; back edges
    saturate loop-carried counts at ``MANY``, so the lattice is finite
    and the worklist terminates.
    """
    cfg = fa.cfg
    block_vec: dict[int, Vec] = {}
    for elem in fa.elems:
        vec = _elem_vec(elem, vec_of)
        if vec is not _ZERO_VEC:
            prev = block_vec.get(elem.bid, _ZERO_VEC)
            block_vec[elem.bid] = _vec_add(prev, vec)
    in_vec: dict[int, Vec] = {cfg.entry.bid: _ZERO_VEC}
    work = [cfg.entry]
    while work:
        block = work.pop()
        out = _vec_add(
            in_vec.get(block.bid, _ZERO_VEC), block_vec.get(block.bid, _ZERO_VEC)
        )
        for succ in block.succ:
            have = in_vec.get(succ.bid)
            new = out if have is None else _vec_join(have, out)
            if new != have:
                in_vec[succ.bid] = new
                work.append(succ)
    return in_vec.get(cfg.exit.bid, _ZERO_VEC), in_vec


def _compute_summaries(
    analyses: dict[str, _FuncCharge]
) -> dict[str, Vec]:
    """Bottom-up effect summaries to a global fixpoint.

    Summaries start at zero and only grow (both ``_vec_add`` and
    ``_vec_join`` are monotone), so the ascending chain over the finite
    interval lattice converges; plain round-robin iteration reaches the
    fixpoint in O(call-graph depth) rounds.
    """
    vec_of: dict[str, Vec] = dict(_FIXED_SUMMARIES)
    for key in analyses:
        vec_of.setdefault(key, _ZERO_VEC)
    changed = True
    while changed:
        changed = False
        for key, fa in analyses.items():
            if key in _FIXED_SUMMARIES:
                continue
            new, _ = _intra_summary(fa, vec_of)
            if new != vec_of[key]:
                vec_of[key] = new
                changed = True
    return vec_of


def _is_abstract_stub(node: Element) -> bool:
    """A body that is only ``raise NotImplementedError`` (after a docstring).

    Calls resolving to such a stub actually dispatch to some override at
    runtime, so they must not count as a complete zero-effect callee.
    """
    body = list(getattr(node, "body", []))
    stmts = [
        stmt
        for stmt in body
        if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
    ]
    if len(stmts) != 1 or not isinstance(stmts[0], ast.Raise):
        return False
    exc = stmts[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def _compute_completeness(
    analyses: dict[str, _FuncCharge], vec_of: dict[str, Vec]
) -> dict[str, bool]:
    """True when a function's upper bounds are trustworthy.

    A summary is *incomplete* when the function (or anything it
    confidently calls) contains an unresolved call whose name matches
    some project function that charges — that call could invoke it, so
    the inferred ``hi`` may be an undercount.  Unresolved names that no
    charging function bears (``append``, ``bump``, thunk invocations)
    cannot add charges and stay complete.  A call resolving to an
    abstract ``raise NotImplementedError`` stub is likewise incomplete:
    the runtime target is whatever override dynamic dispatch picks.
    """
    charging_names = {"charge_cpu", "charge_background", "read", "write"}
    for key, vec in vec_of.items():
        if any(iv != _ZERO_IV for iv in vec):
            name = key.split("::")[1].rsplit(".", 1)[-1]
            charging_names.add(name)
    abstract = {
        key for key, fa in analyses.items() if _is_abstract_stub(fa.info.node)
    }
    own_ok = {
        key: all(
            name not in charging_names
            for elem in fa.elems
            for name in elem.unresolved
        )
        and not (fa.callee_keys() & abstract)
        for key, fa in analyses.items()
    }
    complete = dict(own_ok)
    changed = True
    while changed:
        changed = False
        for key, fa in analyses.items():
            if not complete[key]:
                continue
            for callee in fa.callee_keys():
                if callee in _FIXED_SUMMARIES:
                    continue
                if not complete.get(callee, True):
                    complete[key] = False
                    changed = True
                    break
    return complete


# ----------------------------------------------------------------------
# rule checkers
# ----------------------------------------------------------------------


def _declared_vec(declared: dict[str, Interval]) -> Vec:
    return tuple(declared.get(name, _ZERO_IV) for name in EFFECT_NAMES)


def _first_charging_elem(
    fa: _FuncCharge, vec_of: dict[str, Vec], effect: int
) -> Element:
    best: Element = fa.info.node
    best_line = 10**9
    for elem in fa.elems:
        if _elem_vec(elem, vec_of)[effect][1] > 0:
            line = getattr(elem.node, "lineno", 10**9)
            if line < best_line:
                best_line = line
                best = elem.node
    return best


def _test_mentions_cache(elem: Element) -> bool:
    if not isinstance(elem, ast.expr):
        return False
    for node in ast.walk(elem):
        ident = None
        if isinstance(node, ast.Name):
            ident = node.id
        elif isinstance(node, ast.Attribute):
            ident = node.attr
        if ident is not None:
            lowered = ident.lower()
            if any(token in lowered for token in _CACHE_HIT_TOKENS):
                return True
    return False


def _zero_path_is_cache_guarded(
    fa: _FuncCharge, vec_of: dict[str, Vec], effect: int
) -> bool:
    """True when every zero-charge path crosses a cache-hit predicate.

    A path through a ``raise`` is an exception path, which must charge
    nothing (RL304's concern), so it is never an uncharged fast path:
    validating an argument first leaves the contract intact.
    """
    cfg = fa.cfg
    # Blocks that charge on every visit, or that leave by raising.
    covered = {
        block.bid
        for block in cfg.blocks
        if any(isinstance(elem, ast.Raise) for elem in block.elements)
    }
    for elem in fa.elems:
        if _elem_vec(elem, vec_of)[effect][0] >= 1:
            covered.add(elem.bid)
    if not cfg.reachable(cfg.entry, cfg.exit, avoid=frozenset(covered)):
        return True  # no zero path at all (lo dipped via a loop join)
    guards = set()
    for block in cfg.blocks:
        if any(_test_mentions_cache(e) for e in block.elements):
            guards.add(block.bid)
    return not cfg.reachable(
        cfg.entry, cfg.exit, avoid=frozenset(covered | guards)
    )


def _check_contracts(
    fa: _FuncCharge,
    vec_of: dict[str, Vec],
    active: frozenset[str],
    sink: Findings,
) -> None:
    """RL301 + RL302 for one declared function."""
    declared = fa.declared
    assert declared is not None
    inferred, in_vec = _intra_summary(fa, vec_of)
    d_vec = _declared_vec(declared)
    for idx, name in enumerate(EFFECT_NAMES):
        d_lo, d_hi = d_vec[idx]
        i_lo, i_hi = inferred[idx]
        if "RL301" in active:
            if i_hi > 0 and d_hi == 0:
                sink.add(
                    fa.module.path,
                    _first_charging_elem(fa, vec_of, idx),
                    "RL301",
                    f"{fa.info.name}() charges undeclared effect {name}; "
                    "declare it in @charges(...) or remove the charge",
                )
            if i_hi == 0 and d_hi > 0:
                sink.add(
                    fa.module.path,
                    fa.info.node,
                    "RL301",
                    f"{fa.info.name}() declares {name} but no analyzable "
                    "path charges it; fix the declaration or the body",
                )
            if d_lo >= 1 and 0 < i_hi and i_lo < d_lo:
                if not _zero_path_is_cache_guarded(fa, vec_of, idx):
                    sink.add(
                        fa.module.path,
                        fa.info.node,
                        "RL301",
                        f"{fa.info.name}() declares {name} on every path but "
                        "a path reaches exit without charging it (and no "
                        "recognized cache-hit guard covers the fast path)",
                    )
        if "RL302" in active and d_hi > 0 and d_hi < MANY and i_hi > d_hi:
            culprit: Element = fa.info.node
            # ``before`` = block-entry counts plus earlier charges in the
            # same block, so the finding lands on the charge that tips
            # the count over the declaration, not on the function header.
            acc: dict[int, Interval] = {}
            for elem in fa.elems:
                contrib = _elem_vec(elem, vec_of)[idx]
                base = in_vec.get(elem.bid, _ZERO_VEC)[idx]
                before = _iv_add(base, acc.get(elem.bid, _ZERO_IV))
                if contrib[1] > 0 and (
                    before[1] >= d_hi or contrib[1] > d_hi
                ):
                    culprit = elem.node
                    break
                acc[elem.bid] = _iv_add(acc.get(elem.bid, _ZERO_IV), contrib)
            sink.add(
                fa.module.path,
                culprit,
                "RL302",
                f"{fa.info.name}() may charge {name} up to "
                f"{'many' if i_hi >= MANY else i_hi} times on one path but "
                f"declares at most {d_hi}; a double charge here skews every "
                "simulated result this function touches",
            )


def _is_kvsystem_class(graph: CallGraph, class_name: str) -> bool:
    seen: set[str] = set()
    stack = [class_name]
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if cls == "KVSystem":
            return True
        stack.extend(graph._bases.get(cls, []))
    return False


def _check_buckets(
    analyses: dict[str, _FuncCharge],
    graph: CallGraph,
    sink: Findings,
) -> None:
    """RL303: foreground/background bucket confusion via reachability."""

    def sweep(
        roots: list[str],
        offending: str,
        message: str,
    ) -> None:
        parent: dict[str, Optional[str]] = {key: None for key in roots}
        queue = list(roots)
        reported: set[tuple[str, int]] = set()
        while queue:
            key = queue.pop(0)
            fa = analyses.get(key)
            if fa is None:
                continue
            sites = []
            for elem in fa.elems:
                sites.extend(
                    elem.bg_sites if offending == "bg_charge" else elem.cpu_sites
                )
            declared = fa.declared or {}
            if sites and offending not in declared:
                chain = [fa.info.name]
                walk: Optional[str] = key
                while parent.get(walk) is not None:
                    walk = parent[walk]
                    assert walk is not None
                    chain.append(analyses[walk].info.name)
                chain.reverse()
                path_str = " -> ".join(chain)
                for site in sites:
                    loc = (fa.info.rel, getattr(site, "lineno", 1))
                    if loc in reported:
                        continue
                    reported.add(loc)
                    sink.add(
                        fa.module.path,
                        site,
                        "RL303",
                        f"{message} (inline chain: {path_str}); declare the "
                        f"effect with @charges(...) if this accounting is "
                        "deliberate, or move the charge to the right bucket",
                    )
            for callee in fa.callee_keys():
                if callee not in parent and callee in analyses:
                    parent[callee] = key
                    queue.append(callee)

    fg_roots = sorted(
        key
        for key, fa in analyses.items()
        if fa.info.class_name
        and fa.info.name in _FG_VERBS
        and _is_kvsystem_class(graph, fa.info.class_name)
    )
    sweep(
        fg_roots,
        "bg_charge",
        "background_ns charged on a path reachable from a foreground verb",
    )
    maint_roots = sorted(
        {runner for fa in analyses.values() for runner in fa.register_runners}
    )
    sweep(
        maint_roots,
        "cpu_charge",
        "foreground cpu_ns charged on a path reachable from a "
        "scheduler-registered maintenance runner",
    )


def _element_mutations(elem: Element) -> bool:
    """Self-rooted state mutation: attribute/subscript store or delete."""
    targets: list[ast.expr] = []
    if isinstance(elem, ast.Assign):
        targets = list(elem.targets)
    elif isinstance(elem, (ast.AugAssign, ast.AnnAssign)):
        targets = [elem.target]
    elif isinstance(elem, ast.Delete):
        targets = list(elem.targets)
    for target in targets:
        if isinstance(target, (ast.Attribute, ast.Subscript)) and rooted_at_self(
            target
        ):
            return True
    return False


def _check_exception_skew(
    fa: _FuncCharge, vec_of: dict[str, Vec], sink: Findings
) -> None:
    """RL304 for one function (pre-filtered to raise+charge+mutation)."""
    cfg = fa.cfg
    charge_bids = frozenset(
        elem.bid
        for elem in fa.elems
        if any(iv[1] > 0 for iv in _elem_vec(elem, vec_of))
    )
    mutation_elems: list[tuple[int, Element]] = []
    raise_bids: set[int] = set()
    for block in cfg.blocks:
        for elem in block.elements:
            if isinstance(elem, ast.Raise):
                raise_bids.add(block.bid)
            if _element_mutations(elem):
                mutation_elems.append((block.bid, elem))
    if not charge_bids or not mutation_elems or not raise_bids:
        return
    mutation_bids = frozenset(bid for bid, _ in mutation_elems)
    blocks = {b.bid: b for b in cfg.blocks}

    def escapes(start: int, avoid: frozenset[int]) -> Optional[int]:
        """A raise block reachable from ``start`` without crossing ``avoid``."""
        for rb in raise_bids:
            if rb == start:
                continue
            if cfg.reachable(blocks[start], blocks[rb], avoid=avoid):
                return rb
        return None

    def pairs_downstream(start: int, targets: frozenset[int]) -> bool:
        return any(
            cfg.reachable(blocks[start], blocks[t], avoid=frozenset())
            for t in targets
            if t != start
        )

    reported: set[int] = set()
    # Mutation escapes before its paired charge.
    for bid, elem in mutation_elems:
        if bid in charge_bids:
            continue  # mutation and charge share a block: atomic enough
        if not pairs_downstream(bid, charge_bids):
            continue  # no charge follows this mutation; nothing is paired
        rb = escapes(bid, charge_bids)
        if rb is None:
            continue
        line = getattr(elem, "lineno", 1)
        if line in reported:
            continue
        reported.add(line)
        sink.add(
            fa.module.path,
            elem,
            "RL304",
            f"state mutation in {fa.info.name}() can escape via the raise "
            "path before its paired charge executes; charge first, mutate "
            "after, or make the raise precede both",
        )
    # Charge escapes before its paired mutation.
    for elem_info in fa.elems:
        vec = _elem_vec(elem_info, vec_of)
        if not any(iv[1] > 0 for iv in vec):
            continue
        bid = elem_info.bid
        if bid in mutation_bids:
            continue
        if not pairs_downstream(bid, mutation_bids):
            continue
        rb = escapes(bid, mutation_bids)
        if rb is None:
            continue
        line = getattr(elem_info.node, "lineno", 1)
        if line in reported:
            continue
        reported.add(line)
        sink.add(
            fa.module.path,
            elem_info.node,
            "RL304",
            f"charge in {fa.info.name}() can escape via the raise path "
            "before its paired state mutation executes; the account and "
            "the structure would disagree after the exception",
        )


# ----------------------------------------------------------------------
# the pass and the summary API
# ----------------------------------------------------------------------


def _build_analyses(analysis: Analysis) -> tuple[CallGraph, dict[str, _FuncCharge]]:
    graph = analysis.callgraph(_SCOPE_PREFIXES)
    analyses = {
        key: _build_func_charge(graph, info, analysis.by_rel[info.rel], analysis.cfg(info.node))
        for key, info in graph.functions.items()
        if key not in _FIXED_SUMMARIES
    }
    return graph, analyses


def summarize(analysis: Analysis) -> ChargeAnalysis:
    """Charge summaries of every in-scope function (the RL305 auditor's input)."""
    graph, analyses = _build_analyses(analysis)
    vec_of = _compute_summaries(analyses)
    complete = _compute_completeness(analyses, vec_of)
    summaries: dict[str, ChargeSummary] = {}
    for key, vec in vec_of.items():
        fa = analyses.get(key)
        effects = {
            name: vec[idx]
            for idx, name in enumerate(EFFECT_NAMES)
            if vec[idx] != _ZERO_IV
        }
        summaries[key] = ChargeSummary(
            key,
            effects,
            complete.get(key, key in _FIXED_SUMMARIES),
            fa.declared if fa is not None else None,
        )
    return ChargeAnalysis(graph, summaries)


def check(analysis: Analysis, active: frozenset[str], out: Findings) -> None:
    """The charge pass: RL301–RL304 over the in-scope summaries."""
    graph, analyses = _build_analyses(analysis)
    vec_of = _compute_summaries(analyses)
    if active & {"RL301", "RL302"}:
        for fa in analyses.values():
            if fa.declared is not None:
                _check_contracts(fa, vec_of, active, out)
    if "RL303" in active:
        _check_buckets(analyses, graph, out)
    if "RL304" in active:
        for fa in analyses.values():
            if fa.info.rel.startswith(_SKEW_PREFIXES) and fa.info.name not in (
                "__init__",
                "__new__",
            ):
                _check_exception_skew(fa, vec_of, out)
