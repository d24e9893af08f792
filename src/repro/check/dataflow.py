"""Reaching-definitions dataflow and def-use chains over :mod:`~repro.check.cfg`.

The analysis is the classic forward may-analysis: a *definition* is one
binding of a local name at one element; ``REACH_in(B)`` is the union of
``REACH_out`` over predecessors; within a block each element kills the
previous definitions of the names it defines and generates its own.  On
top of reaching definitions, :func:`def_use_chains` resolves every
``Name`` *load* to the set of definitions that may reach it — the
substrate the determinism-taint rule (RL102) iterates to a fixpoint on.

Scope limits: names only (attribute and subscript stores are mutations of
objects, not bindings, and are handled by the rules that care about them);
comprehension scopes are opaque (a comprehension is one element that
*uses* its iterables and produces a value); ``global``/``nonlocal``
rebinding is treated as a plain local definition.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.check.cfg import CFG, Block, Element

__all__ = [
    "Definition",
    "Use",
    "ReachingDefs",
    "element_calls",
    "element_defs",
    "element_uses",
    "def_use_chains",
]


@dataclass(frozen=True)
class Definition:
    """One binding of ``name`` produced by ``element``.

    ``value`` is the bound expression when one exists (the RHS of an
    assignment, the iterable of a ``for``) — taint rules inspect it.
    """

    name: str
    block_id: int
    index: int  # element index within the block
    element: Element = field(compare=False, hash=False)
    value: ast.expr | None = field(compare=False, hash=False, default=None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Def({self.name}@{self.block_id}.{self.index})"


@dataclass(frozen=True)
class Use:
    """One ``Name`` load, with every definition that may reach it."""

    name: ast.Name
    block_id: int
    index: int
    defs: frozenset[Definition]


def _target_names(target: ast.expr) -> list[str]:
    """Plain names bound by an assignment target (unpacking included)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: list[str] = []
        for elt in target.elts:
            out.extend(_target_names(elt))
        return out
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return []  # Attribute / Subscript stores are not name bindings


def _walrus_defs(expr: ast.expr) -> list[tuple[str, ast.expr]]:
    return [
        (node.target.id, node.value)
        for node in ast.walk(expr)
        if isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name)
    ]


def element_defs(elem: Element) -> list[tuple[str, ast.expr | None]]:
    """``(name, bound value expression or None)`` pairs defined by ``elem``."""
    if isinstance(elem, ast.Assign):
        out: list[tuple[str, ast.expr | None]] = []
        for target in elem.targets:
            out.extend((name, elem.value) for name in _target_names(target))
        out.extend(_walrus_defs(elem.value))
        return out
    if isinstance(elem, ast.AnnAssign):
        if elem.value is None or not isinstance(elem.target, ast.Name):
            return []
        return [(elem.target.id, elem.value)]
    if isinstance(elem, ast.AugAssign):
        if isinstance(elem.target, ast.Name):
            # ``x += e`` both uses and redefines x; the def's value is the
            # increment expression (the use side carries the old value).
            return [(elem.target.id, elem.value)]
        return []
    if isinstance(elem, (ast.For, ast.AsyncFor)):
        return [(name, elem.iter) for name in _target_names(elem.target)]
    if isinstance(elem, (ast.With, ast.AsyncWith)):
        out = []
        for item in elem.items:
            if item.optional_vars is not None:
                out.extend(
                    (name, item.context_expr) for name in _target_names(item.optional_vars)
                )
        return out
    if isinstance(elem, (ast.Import, ast.ImportFrom)):
        return [
            (alias.asname or alias.name.split(".")[0], None) for alias in elem.names
        ]
    if isinstance(elem, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [(elem.name, None)]
    if isinstance(elem, ast.ExceptHandler):
        return [(elem.name, None)] if elem.name else []
    if isinstance(elem, ast.expr):
        return list(_walrus_defs(elem))
    if isinstance(elem, (ast.Return, ast.Expr, ast.Assert)):
        value = getattr(elem, "value", None) or getattr(elem, "test", None)
        return list(_walrus_defs(value)) if value is not None else []
    return []


def _use_exprs(elem: Element) -> list[ast.expr]:
    """The expressions whose loads count as uses of ``elem``.

    Compound-statement elements expose only their decision/iterable parts;
    their bodies are separate blocks and must not be walked here.
    """
    if isinstance(elem, ast.Assign):
        # Subscript/attribute targets use their base expressions.
        out = [elem.value]
        for target in elem.targets:
            if not isinstance(target, ast.Name):
                out.append(target)
        return out
    if isinstance(elem, ast.AnnAssign):
        return [elem.value] if elem.value is not None else []
    if isinstance(elem, ast.AugAssign):
        return [elem.target, elem.value]
    if isinstance(elem, (ast.For, ast.AsyncFor)):
        return [elem.iter]
    if isinstance(elem, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in elem.items]
    if isinstance(elem, ast.Return):
        return [elem.value] if elem.value is not None else []
    if isinstance(elem, ast.Assert):
        return [elem.test] + ([elem.msg] if elem.msg is not None else [])
    if isinstance(elem, ast.Raise):
        return [e for e in (elem.exc, elem.cause) if e is not None]
    if isinstance(elem, ast.Expr):
        return [elem.value]
    if isinstance(elem, ast.Delete):
        return []
    if isinstance(elem, ast.expr):
        return [elem]
    return []


def element_uses(elem: Element) -> list[ast.Name]:
    """Every ``Name`` load in ``elem`` (never recursing into bodies)."""
    names: list[ast.Name] = []
    for expr in _use_exprs(elem):
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.append(node)
    return names


def element_calls(elem: Element) -> Iterator[ast.Call]:
    """Every call expression in ``elem`` (never recursing into bodies)."""
    for expr in _use_exprs(elem):
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                yield node


class ReachingDefs:
    """Reaching definitions for one CFG (worklist fixpoint, block level)."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        self.defs_of: dict[tuple[int, int], list[Definition]] = {}
        all_defs_by_name: dict[str, set[Definition]] = {}
        gen: dict[int, dict[str, Definition]] = {}
        kill_names: dict[int, set[str]] = {}
        for block in cfg.blocks:
            last: dict[str, Definition] = {}
            for index, elem in enumerate(block.elements):
                made = [
                    Definition(name, block.bid, index, elem, value)
                    for name, value in element_defs(elem)
                ]
                if made:
                    self.defs_of[(block.bid, index)] = made
                for definition in made:
                    last[definition.name] = definition
                    all_defs_by_name.setdefault(definition.name, set()).add(definition)
            gen[block.bid] = last
            kill_names[block.bid] = set(last)

        # Parameters are definitions live at entry.
        args = cfg.func.args
        param_names = [
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        ]
        if args.vararg is not None:
            param_names.append(args.vararg.arg)
        if args.kwarg is not None:
            param_names.append(args.kwarg.arg)
        self.params: dict[str, Definition] = {
            name: Definition(name, cfg.entry.bid, index, cfg.func, None)
            for index, name in enumerate(param_names)
        }

        self.block_in: dict[int, set[Definition]] = {b.bid: set() for b in cfg.blocks}
        self.block_out: dict[int, set[Definition]] = {b.bid: set() for b in cfg.blocks}

        work = list(cfg.blocks)
        while work:
            block = work.pop()
            in_set: set[Definition] = (
                set(self.params.values()) if block is cfg.entry else set()
            )
            for pred in block.pred:
                in_set |= self.block_out[pred.bid]
            self.block_in[block.bid] = in_set
            out_set = {d for d in in_set if d.name not in kill_names[block.bid]}
            out_set.update(gen[block.bid].values())
            if out_set != self.block_out[block.bid]:
                self.block_out[block.bid] = out_set
                work.extend(block.succ)

    def reaching_at(self, block: Block, index: int) -> dict[str, set[Definition]]:
        """Definitions live just before element ``index`` of ``block``."""
        live: dict[str, set[Definition]] = {}
        for definition in self.block_in[block.bid]:
            live.setdefault(definition.name, set()).add(definition)
        for i in range(index):
            for definition in self.defs_of.get((block.bid, i), ()):
                live[definition.name] = {definition}
        return live


def def_use_chains(cfg: CFG, reaching: ReachingDefs | None = None) -> list[Use]:
    """Every ``Name`` load in the CFG resolved to its reaching defs."""
    reaching = reaching if reaching is not None else ReachingDefs(cfg)
    uses: list[Use] = []
    for block in cfg.blocks:
        live: dict[str, set[Definition]] = {}
        for definition in reaching.block_in[block.bid]:
            live.setdefault(definition.name, set()).add(definition)
        for index, elem in enumerate(block.elements):
            for name in element_uses(elem):
                uses.append(
                    Use(name, block.bid, index, frozenset(live.get(name.id, set())))
                )
            for definition in reaching.defs_of.get((block.bid, index), ()):
                live[definition.name] = {definition}
    return uses
