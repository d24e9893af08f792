"""The engine contract: shared work happens once, and the loader is the one door.

``repro.check`` has one loader, one ``ast.parse`` site, one call graph per
scope and one CFG per function (``repro.check.engine``); every family's
pass reads them from the shared :class:`Analysis`.  The CLI tests at the
bottom pin the three defects that existed while each family walked and
parsed the tree itself.
"""

from __future__ import annotations

import ast
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.check import engine
from repro.check.__main__ import main
from repro.check.cfg import iter_function_defs
from repro.check.rules import RULES, run

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def test_full_run_parses_each_file_once_and_builds_two_call_graphs(monkeypatch):
    parsed: Counter[str] = Counter()
    graphs: list[int] = []
    cfgs: Counter[int] = Counter()
    real_parse, real_graph, real_cfg = ast.parse, engine.build_callgraph, engine.build_cfg

    def spy_parse(source, filename="<unknown>", *args, **kwargs):
        parsed[str(filename)] += 1
        return real_parse(source, filename, *args, **kwargs)

    def spy_graph(trees):
        graphs.append(len(trees))
        return real_graph(trees)

    def spy_cfg(func):
        cfgs[id(func)] += 1
        return real_cfg(func)

    monkeypatch.setattr(ast, "parse", spy_parse)
    monkeypatch.setattr(engine, "build_callgraph", spy_graph)
    monkeypatch.setattr(engine, "build_cfg", spy_cfg)

    analysis = engine.load([SRC])
    assert run(analysis) == []  # every rule of every family; the tree is clean

    files = {str(path) for path in SRC.rglob("*.py")}
    assert {name: n for name, n in parsed.items() if name in files} == dict.fromkeys(files, 1)
    # The full tree (RL007, RL101) and the charge scope (RL3xx): no third.
    assert len(graphs) == 2 and graphs[0] == len(files) > graphs[1]
    # RL103 and the charge pass both want CFGs.
    assert cfgs and set(cfgs.values()) == {1}


def test_two_askers_get_the_same_cfg_object():
    analysis = engine.load([SRC / "diskbtree" / "bufferpool.py"])
    funcs = [func for _cls, func in iter_function_defs(analysis.modules[0].tree)]
    assert funcs
    for func in funcs:
        assert analysis.cfg(func) is analysis.cfg(func)
    assert analysis.callgraph() is analysis.callgraph()


def test_rule_table_is_the_one_catalogue():
    ids = [rule.rule_id for rule in RULES]
    assert len(ids) == len(set(ids))
    assert {rule.family for rule in RULES} == {"shallow", "deep", "charge"}
    # Only the loader's RL000 and the runtime oracle RL305 have no pass.
    assert [rule.rule_id for rule in RULES if rule.check is None] == ["RL000", "RL305"]


# -- the three CLI defects of having six walkers and three parse sites --------


@pytest.fixture
def pkg(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "a.py").write_text("import time\n")
    (root / "b.py").write_text("def f(:\n")
    return root


def test_file_named_twice_is_analysed_once(pkg, capsys):
    assert main([str(pkg), str(pkg / "a.py")]) == 1
    assert capsys.readouterr().out.count("RL004") == 1


def test_unparseable_file_fails_a_deep_only_selection(pkg, capsys):
    # `--rules RL101` used to skip the shallow pass that reported RL000,
    # and the deep pass skipped the file: exit 0 on code never analysed.
    assert main(["--rules", "RL101", str(pkg)]) == 1
    out = capsys.readouterr().out
    assert "RL000" in out and str(pkg / "b.py") in out and "RL004" not in out


def test_rl000_is_a_catalogued_rule(pkg, capsys):
    assert main(["--rules", "RL000", str(pkg)]) == 1  # selectable, not "unknown rule"
    capsys.readouterr()
    assert main(["--format", "sarif", str(pkg)]) == 1
    run_doc = json.loads(capsys.readouterr().out)["runs"][0]
    declared = {rule["id"] for rule in run_doc["tool"]["driver"]["rules"]}
    assert {result["ruleId"] for result in run_doc["results"]} <= declared
    assert "RL000" in declared


# -- the stale-pragma audit ------------------------------------------------


def write_module(tmp_path, source: str) -> Path:
    target = tmp_path / "mod.py"
    target.write_text(source, encoding="utf-8")
    return target


def test_cli_unused_pragmas_reports_stale(tmp_path, capsys):
    target = write_module(tmp_path, "import bisect  # reprolint: allow[RL004]\n")
    assert main(["--unused-pragmas", str(target)]) == 1
    out = capsys.readouterr().out
    assert "stale pragma" in out and "RL004" in out


def test_cli_unused_pragmas_keeps_live_ones(tmp_path):
    target = write_module(tmp_path, "import time  # reprolint: allow[RL004]\n")
    assert main(["--unused-pragmas", str(target)]) == 0
    # The suppressed finding keeps the lint run itself green.
    assert main([str(target)]) == 0


def test_cli_unused_pragmas_clean_tree(tmp_path):
    target = write_module(tmp_path, "x = 1\n")
    assert main(["--unused-pragmas", str(target)]) == 0
