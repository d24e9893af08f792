"""The analysis engine every ``repro.check`` rule family plugs into.

One pipeline, shared by the three static families (shallow RL0xx, deep
RL1xx, charge RL3xx):

* :func:`load` walks the target paths and :func:`parse` parses each file
  **once** — the only ``ast.parse`` site in ``repro.check``.  A file that
  does not parse becomes an ``RL000`` finding whatever rules were asked
  for; nothing is skipped silently.
* :class:`Analysis` is the context handed to every rule pass.  It
  memoises what passes share: the parsed :class:`Module` list, the call
  graph per module scope, and one CFG per function.
* Passes report through one :class:`Findings` sink as one
  :class:`Finding` type; :func:`repro.check.rules.run` sorts and
  pragma-filters them in one place.

The ``# reprolint: allow[RL00X]`` pragma grammar lives here too
(:func:`allowed_rules`, :func:`iter_pragmas`), so no family can drift
from it.  Files under a ``tests`` directory are never analysed: the
contracts bind the library, and tests must be free to build corrupted or
standalone fixtures.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Optional

from repro.check.callgraph import CallGraph, build_callgraph
from repro.check.cfg import CFG, FunctionNode, build_cfg

__all__ = [
    "Analysis",
    "Finding",
    "Findings",
    "HOT_PREFIXES",
    "Module",
    "Rule",
    "allowed_rules",
    "iter_pragmas",
    "load",
    "module_rel_path",
    "parse",
]

#: packages forming the simulator's hot paths; RL007 polices wall-clock
#: overhead patterns in these modules only.
HOT_PREFIXES = ("art/", "lsm/", "sim/", "diskbtree/")


_PRAGMA_RE = re.compile(r"#\s*reprolint:\s*allow\[([^\]]*)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class Findings:
    """The sink one run's passes report into."""

    def __init__(self) -> None:
        self.raw: list[Finding] = []

    def add(self, path: str, node: ast.AST, rule: str, message: str) -> None:
        self.raw.append(
            Finding(
                path,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0),
                rule,
                message,
            )
        )


@dataclass(frozen=True)
class Rule:
    """One row of the rule table (:data:`repro.check.rules.RULES`)."""

    rule_id: str
    name: str
    summary: str
    #: where the rule applies — module prefixes, a construct, or a runtime
    #: oracle; shown by ``--list-rules`` and the generated DESIGN.md table.
    scope: str
    #: the layer the rule belongs to (``shallow``/``deep``/``charge``);
    #: findings are ordered family-major.
    family: str
    #: the pass that emits the rule's findings, called once per run with
    #: the active rule ids; ``None`` for rules no lint pass emits (RL000
    #: comes from the loader, RL305 is a runtime oracle).
    check: Optional[Callable[["Analysis", frozenset[str], Findings], None]] = field(compare=False)


@dataclass
class Module:
    """One parsed source file."""

    rel: str  # path relative to the package root, e.g. "core/indexy.py"
    path: str  # display path for findings
    source: str
    tree: ast.Module


def module_rel_path(path: str | Path) -> str:
    """Path of ``path`` relative to the ``repro`` package root.

    Files outside the package (lint fixtures, ad-hoc scripts) fall back to
    their bare filename, so the module-scoped allowances never match them.
    """
    posix = Path(path).as_posix()
    marker = "/repro/"
    if posix.startswith("repro/"):
        return posix[len("repro/") :]
    idx = posix.rfind(marker)
    if idx >= 0:
        return posix[idx + len(marker) :]
    return Path(posix).name


class Analysis:
    """The parsed targets plus everything rule passes derive and share."""

    def __init__(self, modules: list[Module], errors: list[Finding]) -> None:
        self.modules = modules
        #: RL000 findings of the files that did not parse.
        self.errors = errors
        #: graph passes address modules by package-relative path (two
        #: targets with one ``rel`` — fixtures outside a package — collapse
        #: to the last, as the call-graph keys do).
        self.by_rel = {module.rel: module for module in modules}
        self._graphs: dict[tuple[str, ...], CallGraph] = {}
        self._cfgs: dict[int, CFG] = {}

    def callgraph(self, prefixes: tuple[str, ...] = ("",)) -> CallGraph:
        """The call graph over the modules whose ``rel`` starts with ``prefixes``."""
        graph = self._graphs.get(prefixes)
        if graph is None:
            graph = self._graphs[prefixes] = build_callgraph(
                {rel: m.tree for rel, m in self.by_rel.items() if rel.startswith(prefixes)}
            )
        return graph

    def cfg(self, func: FunctionNode) -> CFG:
        """The control-flow graph of ``func`` (built once, shared by every rule)."""
        cfg = self._cfgs.get(id(func))
        if cfg is None:
            cfg = self._cfgs[id(func)] = build_cfg(func)
        return cfg

    @cached_property
    def _lines(self) -> dict[str, list[str]]:
        return {m.path: m.source.splitlines() for m in self.modules}

    def suppressed(self, finding: Finding) -> bool:
        """True when a same-line ``allow[...]`` pragma covers ``finding``."""
        lines = self._lines.get(finding.path, [])
        text = lines[finding.line - 1] if 0 < finding.line <= len(lines) else ""
        allowed = allowed_rules(text)
        return allowed is not None and (finding.rule in allowed or "*" in allowed)


def parse(files: Iterable[tuple[str, str, str]]) -> Analysis:
    """Parse ``(rel, display path, source)`` triples into an :class:`Analysis`."""
    modules: list[Module] = []
    errors: list[Finding] = []
    for rel, path, source in files:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            errors.append(
                Finding(path, exc.lineno or 1, exc.offset or 0, "RL000", f"syntax error: {exc.msg}")
            )
            continue
        modules.append(Module(rel, path, source, tree))
    return Analysis(modules, errors)


def load(paths: Iterable[str | Path]) -> Analysis:
    """Read and parse every ``*.py`` under ``paths``, each file once.

    Directories are walked in sorted order, ``tests`` directories are
    excluded, and a file reachable through two targets is analysed once.
    """
    seen: set[Path] = set()
    files: list[tuple[str, str, str]] = []
    for entry in paths:
        path = Path(entry)
        for file in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            resolved = file.resolve()
            if "tests" in file.parts or file.suffix != ".py" or resolved in seen:
                continue
            seen.add(resolved)
            files.append((module_rel_path(file), str(file), file.read_text(encoding="utf-8")))
    return parse(files)


def allowed_rules(line: str) -> frozenset[str] | None:
    """Rule ids the line's pragma allows, or None when there is no pragma."""
    match = _PRAGMA_RE.search(line)
    if match is None:
        return None
    return frozenset(part.strip() for part in match.group(1).split(",") if part.strip())


def iter_pragmas(source: str) -> list[tuple[int, frozenset[str]]]:
    """Every ``allow[...]`` pragma in ``source`` as ``(lineno, rule ids)``.

    The stale-pragma audit (``--unused-pragmas``) compares these against
    the raw findings each line would produce without suppression.  Only
    genuine ``#`` comments count — the tokenizer distinguishes a real
    pragma from a docstring that merely *mentions* the pragma grammar.
    """
    out: list[tuple[int, frozenset[str]]] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenizeError, SyntaxError):
        return out
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        allowed = allowed_rules(token.string)
        if allowed is not None:
            out.append((token.start[0], allowed))
    return out
