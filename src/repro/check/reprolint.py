"""Repo-specific AST lint rules (``reprolint``).

The PR-1 architecture has contracts that generic linters cannot see: one
:class:`~repro.sim.runtime.EngineRuntime` owns the simulation substrate,
all disk traffic goes through the cost-charging :class:`SimDisk` API, and
background maintenance registers with the :class:`BackgroundScheduler`
instead of running inline.  Simulated runs must also be bit-for-bit
deterministic, which bans the wall clock and unseeded randomness outright.
Each rule below mechanically enforces one of those contracts over
``src/repro``.

Rules:

=======  ==============================================================
RL001    raw-substrate: ``SimClock`` / ``SimDisk`` / ``StatCounters``
         may only be constructed inside ``repro/sim`` (components receive
         them from an ``EngineRuntime``).
RL002    disk-bypass: no access to ``SimDisk`` internals (``_blobs``,
         offset cursors) and no direct write to a simulated-time account
         (``busy_ns``, ``cpu_ns``, ``background_ns``) outside
         ``repro/sim`` — all time is charged through the cost model.
RL003    inline-background: maintenance entry points may only be invoked
         from their owner modules; everyone else submits to the
         ``BackgroundScheduler``.  Real threads (``threading``,
         ``concurrent``) are banned entirely, with no exception.
RL004    wall-clock: no ``time`` / ``datetime`` imports — simulated code
         reads time only from ``SimClock``.
RL005    unseeded-random: no module-global ``random`` functions and no
         seedless ``random.Random()`` — every RNG carries an explicit
         seed so runs reproduce.
RL006    mutable-default: no mutable default argument values.
RL007    hot-path-overhead: inside the hot packages (``art/``, ``lsm/``,
         ``sim/``, ``diskbtree/``) and ``columns.py``, the column kernel
         both Index Y stores share, no function-local imports, and a loop
         body neither makes an attribute-chain call
         (``self.clock.charge_cpu(...)``) nor calls a helper that pays
         an allocation or a local import on every call (one call level
         down, through the project call graph; maintenance routines'
         loops are exempt from that second half).  Hoist the import to
         module top, bind the method to a local before the loop, move
         the allocation out of the helper.  These patterns are
         semantically fine but cost real wall-clock time per call on the
         simulator's hottest paths.
RL009    policy-determinism: inside ``cache/`` modules, no ``random`` /
         ``os`` imports (``time`` is RL004's everywhere) and no
         iteration over bare ``set`` values (set literals, set
         comprehensions, ``set()`` / ``frozenset()`` calls).  Eviction
         decisions must be a pure function of the hook-call sequence —
         hash-order iteration or environmental input would silently
         break the byte-identical results contract for every system the
         policy serves.
=======  ==============================================================

A finding on a given line is suppressed by the inline pragma
``# reprolint: allow[RL00X]`` (comma-separated ids, or ``allow[*]`` for
all rules); pragmas document *why* at the call site, like ``noqa`` but
scoped to this linter.  This module holds only the rule logic and its
curated tables; loading, the rule catalogue, sorting and pragma
filtering are the engine's (:mod:`repro.check.engine`,
:mod:`repro.check.rules`).
"""

from __future__ import annotations

import ast

from repro.check.callgraph import FunctionInfo, _attr_chain, callee_name
from repro.check.cfg import FunctionNode, iter_function_defs
from repro.check.engine import HOT_PREFIXES, Analysis, Findings, Module

__all__ = ["check"]

#: substrate classes whose construction is reserved to ``repro/sim``.
_SUBSTRATE_NAMES = frozenset({"SimClock", "SimDisk", "StatCounters"})

#: ``SimDisk`` internals that bypass cost-model charging when touched.
_DISK_INTERNALS = frozenset({"_blobs", "_next_offset", "_last_read_end", "_last_write_end"})
#: the simulated-time accounts; outside sim/ they move only by charges.
_TIME_ACCOUNTS = frozenset({"busy_ns", "cpu_ns", "background_ns"})

#: maintenance entry points and the modules allowed to call them inline
#: (their owners plus the scheduler-runner modules that register them).
_MAINTENANCE_OWNERS: dict[str, tuple[str, ...]] = {
    "run_pass": ("core/precleaner.py", "core/indexy.py"),
    "release_cycle": ("core/indexy.py",),
    "_maybe_compact": ("lsm/store.py",),
    "_proactive_writeback_pass": ("diskbtree/bufferpool.py",),
}

#: modules whose import means the code can observe the wall clock.
_WALL_CLOCK_MODULES = frozenset({"time", "datetime"})

#: ``random``-module functions that use the process-global, OS-seeded RNG.
_GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "randbytes",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "seed",
        "getrandbits",
    }
)

#: constructors whose results are mutable (RL006 defaults; RL007 counts a
#: call to one as an allocation), and the mutable displays.
_MUTABLE_CONSTRUCTORS = frozenset(
    {"dict", "list", "set", "bytearray", "Counter", "defaultdict", "deque", "OrderedDict"}
)
_MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)

#: imports that would let a cache policy observe anything beyond its
#: hook-call sequence (RL009; ``time`` is RL004's everywhere).
_POLICY_BANNED_IMPORTS = frozenset({"random", "os"})

#: what a helper's top-level statement allocates on every call (RL007).
_ALLOC_DISPLAYS = (*_MUTABLE_DISPLAYS, ast.GeneratorExp)


def _in_sim(rel: str) -> bool:
    return rel.startswith("sim/")


class _Visitor(ast.NodeVisitor):
    def __init__(self, module: Module, out: Findings) -> None:
        self.rel = module.rel
        self._path = module.path
        self._out = out
        self._policy = module.rel.startswith("cache/")

    def _add(self, node: ast.AST, rule: str, message: str) -> None:
        self._out.add(self._path, node, rule, message)

    # -- RL009: bare-set iteration in policy modules -------------------
    @staticmethod
    def _is_bare_set(expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            return expr.func.id in ("set", "frozenset")
        return False

    def _check_policy_iteration(self, iter_expr: ast.expr) -> None:
        if self._policy and self._is_bare_set(iter_expr):
            self._add(
                iter_expr,
                "RL009",
                "iteration over a bare set is hash-order-dependent; policy "
                "decisions must iterate insertion-ordered dicts or lists",
            )

    def _visit_comprehension(self, node: ast.expr) -> None:
        for gen in node.generators:  # type: ignore[attr-defined]
            self._check_policy_iteration(gen.iter)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehension(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node)

    def visit_For(self, node: ast.For | ast.AsyncFor) -> None:
        self._check_policy_iteration(node.iter)
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    # -- RL001 / RL003 / RL005: calls ----------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = callee_name(node.func)
        if name in _SUBSTRATE_NAMES and not _in_sim(self.rel):
            self._add(
                node,
                "RL001",
                f"direct {name}() construction outside repro/sim; "
                "take the instance from an EngineRuntime",
            )
        if name in _MAINTENANCE_OWNERS and self.rel not in _MAINTENANCE_OWNERS[name]:
            self._add(
                node,
                "RL003",
                f"inline call to maintenance entry point {name}(); "
                "submit the work to the BackgroundScheduler instead",
            )
        if isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name):
            base = node.func.value.id
            if base == "random":
                if node.func.attr in _GLOBAL_RANDOM_FUNCS:
                    self._add(
                        node,
                        "RL005",
                        f"random.{node.func.attr}() uses the process-global RNG; "
                        "use an explicitly seeded random.Random(seed)",
                    )
                elif node.func.attr == "Random" and not node.args and not node.keywords:
                    self._add(
                        node,
                        "RL005",
                        "random.Random() without a seed is OS-seeded; pass an explicit seed",
                    )
            elif base == "threading" and node.func.attr == "Thread":
                self._add(
                    node,
                    "RL003",
                    "real threads are banned; register a task on the BackgroundScheduler",
                )
        elif isinstance(node.func, ast.Name) and node.func.id == "Random":
            if not node.args and not node.keywords:
                self._add(
                    node,
                    "RL005",
                    "Random() without a seed is OS-seeded; pass an explicit seed",
                )
        self.generic_visit(node)

    # -- RL002: disk internals -----------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in _DISK_INTERNALS and not _in_sim(self.rel):
            self._add(
                node,
                "RL002",
                f"access to SimDisk internal '{node.attr}' bypasses cost-model "
                "charging; use disk.read()/disk.write()",
            )
        self.generic_visit(node)

    def _check_time_account_write(self, target: ast.expr) -> None:
        if (
            isinstance(target, ast.Attribute)
            and target.attr in _TIME_ACCOUNTS
            and not _in_sim(self.rel)
        ):
            self._add(
                target,
                "RL002",
                f"writing {target.attr} directly forges simulated time; only "
                "SimDisk/SimClock may charge it",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_time_account_write(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_time_account_write(node.target)
        self.generic_visit(node)

    # -- RL003 / RL004: imports ----------------------------------------
    def _check_import(self, node: ast.Import | ast.ImportFrom, module: str) -> None:
        root = module.split(".")[0]
        if self._policy and root in _POLICY_BANNED_IMPORTS:
            self._add(
                node,
                "RL009",
                f"import of '{root}' in a cache-policy module; eviction "
                "decisions must be a pure function of the hook-call sequence",
            )
            return
        if root in _WALL_CLOCK_MODULES:
            self._add(
                node,
                "RL004",
                f"import of '{root}' reads the wall clock; simulated code uses SimClock",
            )
        elif root == "threading":
            self._add(
                node,
                "RL003",
                "import of 'threading': background work registers with the "
                "BackgroundScheduler, it does not spawn threads",
            )
        elif root == "concurrent":
            self._add(
                node,
                "RL003",
                "import of 'concurrent': real thread pools are banned; "
                "shard batches are dispatched serially",
            )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_import(node, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module:
            self._check_import(node, node.module)
            if node.module == "random":
                for alias in node.names:
                    if alias.name in _GLOBAL_RANDOM_FUNCS:
                        self._add(
                            node,
                            "RL005",
                            f"'from random import {alias.name}' pulls in the "
                            "process-global RNG; use random.Random(seed)",
                        )

    # -- RL006: mutable defaults ---------------------------------------
    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        defaults: list[ast.expr] = list(node.args.defaults)
        defaults.extend(d for d in node.args.kw_defaults if d is not None)
        for default in defaults:
            mutable = isinstance(default, _MUTABLE_DISPLAYS)
            if isinstance(default, ast.Call):
                callee = callee_name(default.func)
                mutable = callee in _MUTABLE_CONSTRUCTORS
            if mutable:
                self._add(
                    default,
                    "RL006",
                    f"mutable default argument in {node.name}(); default to None "
                    "and construct inside the function",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef


# -- RL007: hot-path overhead, in the loop body and one call below it -----


class _HotSites(ast.NodeVisitor):
    """One hot function's local imports and in-loop call sites.

    A ``for`` iterator expression runs once, outside the per-iteration
    cost, so it is visited at the enclosing depth; a ``while`` test
    re-evaluates every iteration, so it counts as loop-body code.  Nested
    defs are functions of their own.
    """

    def __init__(self) -> None:
        self.loop_depth = 0
        self.imports: list[ast.Import | ast.ImportFrom] = []
        self.loop_calls: list[ast.Call] = []

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        pass

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Import(self, node: ast.Import | ast.ImportFrom) -> None:
        self.imports.append(node)

    visit_ImportFrom = visit_Import

    def visit_For(self, node: ast.For | ast.AsyncFor) -> None:
        self.visit(node.iter)
        self.loop_depth += 1
        self.visit(node.target)
        for stmt in (*node.body, *node.orelse):
            self.visit(stmt)
        self.loop_depth -= 1

    visit_AsyncFor = visit_For

    def visit_While(self, node: ast.While) -> None:
        self.loop_depth += 1
        self.generic_visit(node)
        self.loop_depth -= 1

    def visit_Call(self, node: ast.Call) -> None:
        if self.loop_depth > 0:
            self.loop_calls.append(node)
        self.generic_visit(node)


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
                and node.func.id in _MUTABLE_CONSTRUCTORS
            ):
                return node
    return None


def _hot_path(analysis: Analysis, out: Findings) -> None:
    hot = [m for m in analysis.modules if m.rel.startswith(HOT_PREFIXES)]
    if not hot:
        return
    graph = analysis.callgraph()
    # In-loop call sites of hot non-maintenance functions -> their callees.
    # Maintenance routines are background batch work whose loops allocate
    # by design (merge outputs, flush batches).
    callees: dict[int, list[FunctionInfo]] = {}
    for key, info in graph.functions.items():
        if info.rel.startswith(HOT_PREFIXES) and info.name not in _MAINTENANCE_OWNERS:
            for site in graph.callees(key):
                callee = graph.functions[site.callee]
                if callee.name not in ("__init__", "__new__") and site.callee != key:
                    callees.setdefault(id(site.call), []).append(callee)
    for module in hot:
        for _cls, func in iter_function_defs(module.tree):
            sites = _HotSites()
            for stmt in func.body:
                sites.visit(stmt)
            for node in sites.imports:
                out.add(
                    module.path,
                    node,
                    "RL007",
                    "function-local import on a hot path pays the import-machinery "
                    "lookup on every call; hoist it to module top",
                )
            for call in sites.loop_calls:
                _hot_loop_call(module, call, callees.get(id(call), []), out)


def _hot_loop_call(
    module: Module, call: ast.Call, callees: list[FunctionInfo], out: Findings
) -> None:
    func = call.func
    chain = _attr_chain(func) if isinstance(func, ast.Attribute) else None
    if chain is not None and len(chain) > 2:
        # Only chains rooted at ``self`` are flagged: those are
        # loop-invariant by construction (``self`` cannot rebind), so the
        # bound method can always be hoisted.  A chain rooted at a loop
        # variable usually cannot.
        if chain[0] == "self":
            out.add(
                module.path,
                call,
                "RL007",
                f"attribute-chain call {'.'.join(chain)}() inside a loop on a hot "
                "path; bind the method to a local before the loop",
            )
        return
    if not isinstance(func, ast.Name) and (chain is None or chain[0] not in ("self", "cls")):
        return
    for callee in callees:
        alloc = _unconditional_allocation(callee.node)
        if alloc is None:
            continue
        what = (
            "a function-local import"
            if isinstance(alloc, (ast.Import, ast.ImportFrom))
            else "an unconditional allocation"
        )
        out.add(
            module.path,
            call,
            "RL007",
            f"loop body calls {callee.name}() which pays {what} "
            f"({callee.rel}:{getattr(alloc, 'lineno', '?')}) on every "
            "iteration; hoist the work or restructure the helper",
        )
        return  # one finding per call site is enough


def check(analysis: Analysis, active: frozenset[str], out: Findings) -> None:
    """The shallow pass: one AST visit per module emits RL001–RL006 and
    RL009; RL007 walks the hot functions with the call graph."""
    for module in analysis.modules:
        _Visitor(module, out).visit(module.tree)
    if "RL007" in active:
        _hot_path(analysis, out)
