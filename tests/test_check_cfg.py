"""CFG construction goldens and reachability units.

The golden tests pin the block/edge structure via ``CFG.describe()`` —
a deliberate trade: any CFG shape change must update the golden, which
is exactly the review attention an analysis substrate deserves.
"""

import ast
import textwrap

from repro.check.cfg import build_cfg, iter_function_defs


def cfg_of(source: str):
    tree = ast.parse(textwrap.dedent(source))
    funcs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    return build_cfg(funcs[0])


# ----------------------------------------------------------------------
# goldens
# ----------------------------------------------------------------------


def test_golden_straight_line():
    cfg = cfg_of(
        """
        def f(a):
            x = a + 1
            return x
        """
    )
    assert cfg.describe() == "\n".join(
        [
            "#0 entry: [] -> [2]",
            "#1 exit: [] -> []",
            "#2: [Assign,Return] -> [1]",
        ]
    )


def test_golden_branch_with_else():
    cfg = cfg_of(
        """
        def f(a):
            if a:
                x = 1
            else:
                x = 2
            return x
        """
    )
    assert cfg.describe() == "\n".join(
        [
            "#0 entry: [] -> [2]",
            "#1 exit: [] -> []",
            "#2: [test:Name] -> [3,5]",
            "#3: [Assign] -> [4]",
            "#4: [Return] -> [1]",
            "#5: [Assign] -> [4]",
        ]
    )


def test_golden_branch_without_else_falls_through():
    cfg = cfg_of(
        """
        def f(a):
            x = 0
            if a:
                x = 1
            return x
        """
    )
    # The test block must have an edge both into the then-branch and
    # around it to the join block.
    assert cfg.describe() == "\n".join(
        [
            "#0 entry: [] -> [2]",
            "#1 exit: [] -> []",
            "#2: [Assign,test:Name] -> [3,4]",
            "#3: [Assign] -> [4]",
            "#4: [Return] -> [1]",
        ]
    )


def test_golden_while_loop():
    cfg = cfg_of(
        """
        def f(n):
            while n:
                n = n - 1
            return n
        """
    )
    assert cfg.describe() == "\n".join(
        [
            "#0 entry: [] -> [2]",
            "#1 exit: [] -> []",
            "#2: [] -> [3]",
            "#3: [test:Name] -> [5,4]",  # head -> body, head -> after
            "#4: [Return] -> [1]",
            "#5: [Assign] -> [3]",  # body loops back to the head
        ]
    )


def test_golden_for_loop_with_break():
    cfg = cfg_of(
        """
        def f(xs):
            for x in xs:
                if x:
                    break
            return xs
        """
    )
    described = cfg.describe()
    # The break block's only successor is the loop's after-block (#4).
    assert "[Break] -> [4]" in described
    # The loop head holds the For element and reaches both body and after.
    assert "#3: [For] -> [5,4]" in described


def test_golden_try_except():
    cfg = cfg_of(
        """
        def f(a):
            try:
                x = a()
            except ValueError as exc:
                x = None
            return x
        """
    )
    assert cfg.describe() == "\n".join(
        [
            "#0 entry: [] -> [2]",
            "#1 exit: [] -> []",
            "#2: [] -> [4]",
            "#3: [ExceptHandler,Assign] -> [5]",  # handler entry
            "#4: [Assign] -> [3,5]",  # body block: exception edge + fall-through
            "#5: [Return] -> [1]",
        ]
    )


def test_golden_early_return_terminates_path():
    cfg = cfg_of(
        """
        def f(a):
            if a:
                return 1
            return 2
        """
    )
    assert cfg.describe() == "\n".join(
        [
            "#0 entry: [] -> [2]",
            "#1 exit: [] -> []",
            "#2: [test:Name] -> [3,4]",
            "#3: [Return] -> [1]",
            "#4: [Return] -> [1]",
        ]
    )


def test_raise_routes_to_handler_when_inside_try():
    cfg = cfg_of(
        """
        def f(a):
            try:
                raise ValueError(a)
            except ValueError:
                return 1
        """
    )
    described = cfg.describe()
    # The Raise block targets the handler entry, not the exit.
    raise_lines = [ln for ln in described.splitlines() if "Raise" in ln]
    assert len(raise_lines) == 1
    assert "-> [3]" in raise_lines[0]
    assert "#3: [ExceptHandler,Return] -> [1]" in described


def test_unreachable_code_after_return_is_dropped():
    cfg = cfg_of(
        """
        def f():
            return 1
            x = 2
        """
    )
    kinds = [type(e).__name__ for b in cfg.blocks for e in b.elements]
    assert kinds == ["Return"]


# ----------------------------------------------------------------------
# reachability queries
# ----------------------------------------------------------------------


def test_reachable_respects_avoid_set():
    cfg = cfg_of(
        """
        def f(a):
            if a:
                x = 1
            else:
                y = 2
            return 0
        """
    )
    then_block = next(
        b
        for b in cfg.blocks
        if any(isinstance(e, ast.Assign) for e in b.elements)
    )
    assert cfg.reachable(cfg.entry, cfg.exit)
    # Avoiding the join block cuts every entry->exit path in this CFG
    # except none — both branches pass through it.
    join = then_block.succ[0]
    assert not cfg.reachable(cfg.entry, cfg.exit, avoid=frozenset({join.bid}))


def test_backward_reachability():
    cfg = cfg_of(
        """
        def f(a):
            x = 1
            return x
        """
    )
    body = cfg.entry.succ[0]
    assert cfg.reachable(body, cfg.entry, forward=False)
    assert not cfg.reachable(cfg.entry, body, forward=False)


def test_iter_function_defs_attributes_methods_to_classes():
    tree = ast.parse(
        textwrap.dedent(
            """
            def free():
                pass

            class C:
                def method(self):
                    def inner():
                        pass
            """
        )
    )
    found = {(cls, fn.name) for cls, fn in iter_function_defs(tree)}
    assert found == {(None, "free"), ("C", "method"), ("C", "inner")}
