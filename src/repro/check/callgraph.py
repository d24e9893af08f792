"""A project-wide call graph over the ``repro`` package source.

The graph links every function/method definition under the analyzed tree
to the definitions its call sites may invoke.  Resolution is name-based
and deliberately over-approximate (sound for reachability queries like
RL101, which asks "can a foreground entry point *possibly* reach a
maintenance routine inline?"):

* ``f(...)`` — the module's own ``f``, or the ``f`` imported with
  ``from mod import f`` (resolved cross-module when ``mod`` is inside the
  analyzed tree); a bare name that a reaching local assignment bound to a
  method (``run = self._run; run()``) resolves to that method.
* ``self.m(...)`` / ``cls.m(...)`` — method ``m`` on the enclosing class,
  then on its project-local base classes.
* ``obj.m(...)`` / ``self.attr.m(...)`` — *duck resolution*: every
  project definition of a method named ``m`` (the receiver's type is
  unknown statically; linking all candidates over-approximates, never
  misses).  Methods reserved to one class by the shallow rules (e.g. the
  maintenance entry points) have project-unique names, so the deep rules
  stay precise where it matters.
* Plain class instantiation ``C(...)`` links to ``C.__init__``.

``functools.partial`` is looked through: ``name = partial(obj.m, x)``
binds ``name`` to ``m`` like a plain bound-method alias, and a
``partial(self.m, ...)`` expression anywhere (e.g. passed to
``scheduler.register``) records a may-call edge to ``m`` at the wrap
site — the wrapped method stays reachable even though no direct call
expression exists.

What the graph does **not** model: calls through values stored in
containers, ``getattr`` strings, and *bare* callables passed as
arguments (a bound method handed to the
:class:`~repro.sim.runtime.BackgroundScheduler` without a ``partial``
wrapper is *not* an edge — which is exactly the property RL101
exploits: work routed through the scheduler seam disappears from the
inline call graph; RL101's owner table, not the graph, accounts for
scheduler-run maintenance).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.check.cfg import FunctionNode, iter_function_defs

__all__ = [
    "FunctionInfo",
    "CallSite",
    "CallGraph",
    "bound_alias_chains",
    "build_callgraph",
    "callee_name",
    "rooted_at_self",
]


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition in the analyzed tree."""

    key: str  # "<rel>::Class.name" or "<rel>::name"
    rel: str  # path relative to the package root, e.g. "core/indexy.py"
    class_name: str | None
    name: str
    node: FunctionNode = field(compare=False, hash=False)


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge: ``caller`` invokes ``callee`` at ``call``."""

    caller: str
    callee: str
    call: ast.Call = field(compare=False, hash=False)


def callee_name(func: ast.expr) -> str | None:
    """The name a call (or decorator) expression invokes: ``f`` / ``x.f``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _attr_chain(expr: ast.expr) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``, or None if not a plain chain."""
    parts: list[str] = []
    cur = expr
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    parts.reverse()
    return parts


def rooted_at_self(node: ast.expr) -> bool:
    """True when an attribute/subscript chain bottoms out at ``self``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "self"


class CallGraph:
    """Function index plus resolved call edges; see the module docstring."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.edges: dict[str, list[CallSite]] = {}
        #: method/function name -> every definition key with that name.
        self.by_name: dict[str, list[str]] = {}
        #: rel -> {local name -> name it was imported as} (``from m import n``).
        self.imports: dict[str, dict[str, str]] = {}
        #: class name -> {method name -> key}; class name -> base names.
        self._methods: dict[str, dict[str, str]] = {}
        self._bases: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def callees(self, key: str) -> list[CallSite]:
        return self.edges.get(key, [])

    def resolve_method(self, class_name: str, method: str) -> str | None:
        """``class_name.method`` with project-local MRO walk."""
        seen: set[str] = set()
        stack = [class_name]
        while stack:
            cls = stack.pop(0)
            if cls in seen:
                continue
            seen.add(cls)
            found = self._methods.get(cls, {}).get(method)
            if found is not None:
                return found
            stack.extend(self._bases.get(cls, []))
        return None

    def resolve_name(self, rel: str, name: str, spelled: str | None = None) -> list[str]:
        """A bare-name call inside module ``rel``: direct -> imported -> ``__init__``.

        ``name`` is the callee after local bound-alias resolution;
        ``spelled`` is the identifier as written at the call site, which
        is what an import binds (defaults to ``name``).
        """
        direct = f"{rel}::{name}"
        if direct in self.functions:
            return [direct]
        target = self.imports.get(rel, {}).get(spelled or name)
        if target is not None:
            hits = [key for key in self.by_name.get(target, []) if "." not in key.split("::")[1]]
            if hits:
                return hits
        init = self.resolve_method(name, "__init__")
        return [init] if init is not None else []


class _ModuleIndexer:
    """First pass: collect definitions, imports, and class shapes."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph

    def index(self, rel: str, tree: ast.Module) -> None:
        graph = self.graph
        for cls_name, func in iter_function_defs(tree):
            qual = f"{cls_name}.{func.name}" if cls_name else func.name
            key = f"{rel}::{qual}"
            info = FunctionInfo(key, rel, cls_name, func.name, func)
            graph.functions[key] = info
            graph.by_name.setdefault(func.name, []).append(key)
            if cls_name:
                graph._methods.setdefault(cls_name, {}).setdefault(func.name, key)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = []
                for base in node.bases:
                    chain = _attr_chain(base)
                    if chain:
                        bases.append(chain[-1])
                graph._bases[node.name] = bases
        local: dict[str, str] = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local[alias.asname or alias.name] = alias.name
        graph.imports[rel] = local


class _CallCollector(ast.NodeVisitor):
    """Second pass: resolve the call sites of one function body."""

    def __init__(self, graph: CallGraph, info: FunctionInfo, local_aliases: dict[str, str]) -> None:
        self.graph = graph
        self.info = info
        self.local_aliases = local_aliases
        self.sites: list[CallSite] = []

    # Nested defs are indexed as their own functions; don't descend.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Call(self, node: ast.Call) -> None:
        for callee in self._resolve(node):
            self.sites.append(CallSite(self.info.key, callee, node))
        # ``partial(self.method, ...)`` wraps a call that some executor
        # (a BackgroundScheduler runner) performs later; a may-call edge
        # at the wrap site keeps that method reachable (RL101) even
        # though no direct call expression exists.
        wrapped = _partial_target(node)
        if wrapped is not None:
            ref = ast.Call(func=wrapped, args=[], keywords=[])
            for callee in self._resolve(ref):
                self.sites.append(CallSite(self.info.key, callee, node))
        self.generic_visit(node)

    def _resolve(self, node: ast.Call) -> list[str]:
        graph = self.graph
        func = node.func
        if isinstance(func, ast.Name):
            name = self.local_aliases.get(func.id, func.id)
            hits = graph.resolve_name(self.info.rel, name, spelled=func.id)
            if hits:
                return hits
            # Bound-alias name: resolved by local_aliases above when the
            # alias mapped to a method name.
            method = graph.resolve_method(self.info.class_name or "", name)
            if method is not None and name != func.id:
                return [method]
            if name != func.id:
                return [k for k in graph.by_name.get(name, [])]
            return []
        chain = _attr_chain(func)
        if chain is None:
            return []
        method_name = chain[-1]
        if chain[0] in ("self", "cls") and len(chain) == 2 and self.info.class_name:
            found = graph.resolve_method(self.info.class_name, method_name)
            if found is not None:
                return [found]
        # Duck resolution: any project definition with this method name.
        return [
            key
            for key in graph.by_name.get(method_name, [])
            if graph.functions[key].class_name is not None
        ]


def _partial_target(node: ast.Call) -> ast.expr | None:
    """The wrapped callable of ``partial(f, ...)``/``functools.partial(f, ...)``."""
    if callee_name(node.func) != "partial" or not node.args:
        return None
    return node.args[0]


def bound_alias_chains(func: FunctionNode) -> dict[str, tuple[str, ...]]:
    """Local ``name = a.b.method`` bindings as ``name -> ("a", "b", "method")``.

    ``name = partial(obj.method, ...)`` binds the same way: calling the
    name runs the wrapped method.  A later bare call through the name
    resolves to the method.  The scan is flow-insensitive (any binding in
    the function counts): the call graph only needs may-call edges.
    """
    out: dict[str, tuple[str, ...]] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value: ast.expr = node.value
            if isinstance(value, ast.Call):
                wrapped = _partial_target(value)
                if wrapped is not None:
                    value = wrapped
            if isinstance(value, ast.Attribute):
                chain = _attr_chain(value)
                if chain is not None and len(chain) >= 2:
                    out[target.id] = tuple(chain)
    return out


def build_callgraph(trees: dict[str, ast.Module]) -> CallGraph:
    """Build the call graph of ``rel path -> module AST``."""
    graph = CallGraph()
    indexer = _ModuleIndexer(graph)
    for rel, tree in sorted(trees.items()):
        indexer.index(rel, tree)
    for key, info in graph.functions.items():
        aliases = {name: chain[-1] for name, chain in bound_alias_chains(info.node).items()}
        collector = _CallCollector(graph, info, aliases)
        for stmt in info.node.body:
            collector.visit(stmt)
        graph.edges[key] = collector.sites
    return graph
