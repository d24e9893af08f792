"""Intra-procedural control-flow graphs over Python ASTs.

The deep and charge checkers (:mod:`repro.check.deepcheck`,
:mod:`repro.check.chargecheck`) reason about *paths* — "does every path
that sets an ART D bit also set its activity bit before the function
returns?", "how many disk reads can a path to exit make?" — which
per-node AST matching (:mod:`repro.check.reprolint`) cannot express.
This module builds a classic basic-block CFG for one function at a time.

Model
-----

A :class:`Block` holds an ordered list of *elements*.  An element is
either a simple statement (``ast.Assign``, ``ast.Expr``, ...) or the
decision expression of a compound statement (the ``test`` of an
``if``/``while``).  ``for`` loops contribute the ``ast.For`` node itself
as the loop-head element (its per-iteration target binding), and ``with``
statements contribute the ``ast.With`` node (its ``as`` bindings); the
bodies of compound statements are *never* stored inside an element — they
become their own blocks — so an analysis can walk elements without
double-counting nested code.  :func:`element_calls` reads the calls out
of each element shape.

Soundness limits (documented, deliberate)
-----------------------------------------

* ``try`` bodies get an exception edge from *every* block the body
  creates to each handler entry (an exception can fire anywhere), which
  over-approximates; ``finally`` bodies are modelled on the normal-exit
  path only.
* ``return``/``raise`` edges go straight to the exit block even when a
  ``finally`` would intervene.
* ``assert`` adds a failure edge to the exit block.
* Calls are assumed not to raise (no exception edge per call site);
  the deep rules that need exception paths treat ``try`` conservatively
  as above.
"""

from __future__ import annotations

import ast
from typing import Iterator, Union

__all__ = ["Element", "Block", "CFG", "build_cfg", "element_calls", "iter_function_defs"]

#: One unit of straight-line code inside a block; see the module docstring
#: for which AST node stands for which compound construct.
Element = Union[ast.stmt, ast.expr, ast.ExceptHandler]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: simple statements that flow straight through a block.
_LINEAR_STMTS = (
    ast.Assign,
    ast.AugAssign,
    ast.AnnAssign,
    ast.Expr,
    ast.Pass,
    ast.Import,
    ast.ImportFrom,
    ast.Global,
    ast.Nonlocal,
    ast.Delete,
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
)


class Block:
    """One basic block: straight-line elements plus successor edges."""

    __slots__ = ("bid", "elements", "succ", "pred")

    def __init__(self, bid: int) -> None:
        self.bid = bid
        self.elements: list[Element] = []
        self.succ: list[Block] = []
        self.pred: list[Block] = []

    def add_succ(self, other: "Block") -> None:
        if other not in self.succ:
            self.succ.append(other)
            other.pred.append(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = ",".join(type(e).__name__ for e in self.elements)
        return f"Block(#{self.bid}, [{kinds}], ->{[b.bid for b in self.succ]})"


class CFG:
    """The control-flow graph of one function."""

    def __init__(self, func: FunctionNode) -> None:
        self.func = func
        self.blocks: list[Block] = []
        entry = self.new_block()
        exit_block = self.new_block()
        self.entry = entry
        self.exit = exit_block

    def new_block(self) -> Block:
        block = Block(len(self.blocks))
        self.blocks.append(block)
        return block

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def reachable(
        self,
        start: Block,
        goal: Block,
        avoid: frozenset[int] = frozenset(),
        forward: bool = True,
    ) -> bool:
        """True when ``goal`` is reachable from ``start`` without entering
        any block whose id is in ``avoid`` (``start`` itself is exempt so a
        block can reach onward even when it is in the avoid set)."""
        if start is goal:
            return True
        seen = {start.bid}
        stack = [start]
        while stack:
            here = stack.pop()
            for nxt in here.succ if forward else here.pred:
                if nxt is goal:
                    return True
                if nxt.bid in seen or nxt.bid in avoid:
                    continue
                seen.add(nxt.bid)
                stack.append(nxt)
        return False

    def describe(self) -> str:
        """A stable, human-diffable rendering used by the golden tests."""
        lines = []
        for block in self.blocks:
            tag = ""
            if block is self.entry:
                tag = " entry"
            elif block is self.exit:
                tag = " exit"
            kinds = ",".join(_element_tag(e) for e in block.elements)
            succ = ",".join(str(b.bid) for b in block.succ)
            lines.append(f"#{block.bid}{tag}: [{kinds}] -> [{succ}]")
        return "\n".join(lines)


def _element_tag(elem: Element) -> str:
    if isinstance(elem, ast.expr):
        return f"test:{type(elem).__name__}"
    return type(elem).__name__


class _Builder:
    """Recursive-descent CFG construction with break/continue stacks."""

    def __init__(self, func: FunctionNode) -> None:
        self.cfg = CFG(func)
        #: (continue-target, break-target) per enclosing loop.
        self._loops: list[tuple[Block, Block]] = []
        #: handler-entry blocks of enclosing ``try`` statements; blocks
        #: created under a try body get an edge to each.
        self._handlers: list[list[Block]] = []

    def build(self) -> CFG:
        body_entry = self.cfg.new_block()
        self.cfg.entry.add_succ(body_entry)
        tail = self._stmts(self.cfg.func.body, body_entry)
        if tail is not None:
            tail.add_succ(self.cfg.exit)  # implicit ``return None``
        return self.cfg

    # ------------------------------------------------------------------
    def _new_block(self) -> Block:
        block = self.cfg.new_block()
        # An exception can transfer control out of any block inside a try
        # body; over-approximate with one edge per enclosing handler.
        for handlers in self._handlers:
            for handler in handlers:
                block.add_succ(handler)
        return block

    def _stmts(self, stmts: list[ast.stmt], current: Block) -> Block | None:
        """Thread ``stmts`` from ``current``; returns the fall-through
        block, or None when every path terminated (return/raise/...)."""
        out: Block | None = current
        for stmt in stmts:
            if out is None:
                break  # unreachable code after a terminator
            out = self._stmt(stmt, out)
        return out

    def _stmt(self, stmt: ast.stmt, current: Block) -> Block | None:
        if isinstance(stmt, _LINEAR_STMTS):
            current.elements.append(stmt)
            return current
        if isinstance(stmt, ast.Return):
            current.elements.append(stmt)
            current.add_succ(self.cfg.exit)
            return None
        if isinstance(stmt, ast.Raise):
            current.elements.append(stmt)
            if self._handlers:
                for handler in self._handlers[-1]:
                    current.add_succ(handler)
            else:
                current.add_succ(self.cfg.exit)
            return None
        if isinstance(stmt, ast.Break):
            current.elements.append(stmt)
            if self._loops:
                current.add_succ(self._loops[-1][1])
            return None
        if isinstance(stmt, ast.Continue):
            current.elements.append(stmt)
            if self._loops:
                current.add_succ(self._loops[-1][0])
            return None
        if isinstance(stmt, ast.If):
            return self._if(stmt, current)
        if isinstance(stmt, (ast.While,)):
            return self._while(stmt, current)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, current)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, current)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            current.elements.append(stmt)
            return self._stmts(stmt.body, current)
        if isinstance(stmt, ast.Assert):
            current.elements.append(stmt)
            after = self._new_block()
            current.add_succ(after)
            current.add_succ(self.cfg.exit)  # assertion failure raises
            return after
        if isinstance(stmt, ast.Match):
            return self._match(stmt, current)
        # Unknown statement kind: treat as linear (conservative).
        current.elements.append(stmt)
        return current

    def _if(self, stmt: ast.If, current: Block) -> Block | None:
        current.elements.append(stmt.test)
        after: Block | None = None

        def join(tail: Block | None) -> None:
            nonlocal after
            if tail is not None:
                if after is None:
                    after = self._new_block()
                tail.add_succ(after)

        then_entry = self._new_block()
        current.add_succ(then_entry)
        join(self._stmts(stmt.body, then_entry))
        if stmt.orelse:
            else_entry = self._new_block()
            current.add_succ(else_entry)
            join(self._stmts(stmt.orelse, else_entry))
        else:
            join(current)
        return after

    def _while(self, stmt: ast.While, current: Block) -> Block | None:
        head = self._new_block()
        head.elements.append(stmt.test)
        current.add_succ(head)
        after = self._new_block()
        body_entry = self._new_block()
        head.add_succ(body_entry)
        self._loops.append((head, after))
        tail = self._stmts(stmt.body, body_entry)
        self._loops.pop()
        if tail is not None:
            tail.add_succ(head)
        if stmt.orelse:
            else_entry = self._new_block()
            head.add_succ(else_entry)
            else_tail = self._stmts(stmt.orelse, else_entry)
            if else_tail is not None:
                else_tail.add_succ(after)
        else:
            head.add_succ(after)
        return after

    def _for(self, stmt: ast.For | ast.AsyncFor, current: Block) -> Block | None:
        head = self._new_block()
        head.elements.append(stmt)  # the For node: target def + iter use
        current.add_succ(head)
        after = self._new_block()
        body_entry = self._new_block()
        head.add_succ(body_entry)
        self._loops.append((head, after))
        tail = self._stmts(stmt.body, body_entry)
        self._loops.pop()
        if tail is not None:
            tail.add_succ(head)
        if stmt.orelse:
            else_entry = self._new_block()
            head.add_succ(else_entry)
            else_tail = self._stmts(stmt.orelse, else_entry)
            if else_tail is not None:
                else_tail.add_succ(after)
        else:
            head.add_succ(after)
        return after

    def _try(self, stmt: ast.Try, current: Block) -> Block | None:
        handler_entries: list[Block] = []
        for handler in stmt.handlers:
            entry = self._new_block()
            entry.elements.append(handler)  # defines ``except ... as name``
            handler_entries.append(entry)

        # Push the handler stack *before* creating the body entry so the
        # first body block also gets its exception edge.
        self._handlers.append(handler_entries)
        body_entry = self._new_block()
        current.add_succ(body_entry)
        body_tail = self._stmts(stmt.body, body_entry)
        self._handlers.pop()

        tails: list[Block] = []
        if body_tail is not None:
            if stmt.orelse:
                body_tail = self._stmts(stmt.orelse, body_tail)
            if body_tail is not None:
                tails.append(body_tail)
        for handler, entry in zip(stmt.handlers, handler_entries, strict=True):
            handler_tail = self._stmts(handler.body, entry)
            if handler_tail is not None:
                tails.append(handler_tail)
        if not tails:
            if stmt.finalbody:
                # All paths terminated but the finally still runs; model it
                # as dead-end straight-line code so its defs exist.
                final_entry = self._new_block()
                self._stmts(stmt.finalbody, final_entry)
            return None
        after = self._new_block()
        for tail in tails:
            tail.add_succ(after)
        if stmt.finalbody:
            return self._stmts(stmt.finalbody, after)
        return after

    def _match(self, stmt: ast.Match, current: Block) -> Block | None:
        current.elements.append(stmt.subject)
        after: Block | None = None
        for case in stmt.cases:
            case_entry = self._new_block()
            current.add_succ(case_entry)
            tail = self._stmts(case.body, case_entry)
            if tail is not None:
                if after is None:
                    after = self._new_block()
                tail.add_succ(after)
        if after is None:
            after = self._new_block()
        current.add_succ(after)  # no case matched
        return after


def build_cfg(func: FunctionNode) -> CFG:
    """Build the control-flow graph of one function definition."""
    return _Builder(func).build()


def iter_function_defs(tree: ast.AST) -> list[tuple[str | None, FunctionNode]]:
    """Every function in ``tree`` as ``(enclosing class name or None, node)``.

    Nested functions are attributed to the class of their enclosing method
    (closures stay part of the method's implementation for analysis).
    """
    out: list[tuple[str | None, FunctionNode]] = []

    def walk(node: ast.AST, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((cls, child))
                walk(child, cls)
            else:
                walk(child, cls)

    walk(tree, None)
    return out


def _use_exprs(elem: Element) -> list[ast.expr]:
    """The expressions ``elem`` itself evaluates.

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
    if isinstance(elem, ast.expr):
        return [elem]
    return []


def element_calls(elem: Element) -> Iterator[ast.Call]:
    """Every call expression in ``elem`` (never recursing into bodies)."""
    for expr in _use_exprs(elem):
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                yield node
