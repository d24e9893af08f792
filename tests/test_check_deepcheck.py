"""Fixture tests for the deep (RL1xx) rules and the check CLI.

Every rule gets a violating and a clean fixture; the violating fixtures
assert the exact rule id so each test fails if its rule is disabled or
its detection logic regresses.
"""

import json
import textwrap

from repro.check.__main__ import main
from repro.check.engine import parse
from repro.check.rules import RULES, run

DEEP_RULES = [rule for rule in RULES if rule.family == "deep"]


def run_deep(rules=None, **modules):
    files = [
        (rel, f"fixture/{rel}", textwrap.dedent(src)) for rel, src in modules.items()
    ]
    return run(parse(files), {r.rule_id for r in DEEP_RULES} if rules is None else rules)


def rule_ids(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# RL101: transitive inline-background
# ----------------------------------------------------------------------

RL101_VIOLATION = {
    "lsm/store.py": """
    class Store:
        def insert(self, key, value):
            self._note_write()

        def _note_write(self):
            self._maybe_compact()

        def _maybe_compact(self):
            pass
    """
}

RL101_CLEAN = {
    "lsm/store.py": """
    class Store:
        def insert(self, key, value):
            self._scheduler.submit(self._compaction_task)

        def _maybe_compact(self):
            pass
    """
}


def test_rl101_flags_transitive_inline_maintenance():
    findings = run_deep(**RL101_VIOLATION)
    assert rule_ids(findings) == ["RL101"]
    # The message names the full call chain for debuggability.
    assert "insert -> _note_write -> _maybe_compact" in findings[0].message


def test_rl101_scheduler_submission_is_clean():
    assert run_deep(**RL101_CLEAN) == []


def test_rl101_direct_call_also_flagged():
    findings = run_deep(
        **{
            "lsm/store.py": """
            class Store:
                def put(self, key, value):
                    self._maybe_compact()

                def _maybe_compact(self):
                    pass
            """
        }
    )
    assert rule_ids(findings) == ["RL101"]


def test_rl101_disabled_rule_reports_nothing():
    assert run_deep(rules=("RL103",), **RL101_VIOLATION) == []


# ----------------------------------------------------------------------
# RL103: paired mutation (ART D bit -> activity bit)
# ----------------------------------------------------------------------

RL103_VIOLATION = {
    "art/tree.py": """
    class Tree:
        def mark(self, node, flag):
            node.dirty = True
            if flag:
                node.activity = True
    """
}

RL103_CLEAN = {
    "art/tree.py": """
    class Tree:
        def mark(self, node):
            node.dirty = True
            node.activity = True
    """
}


def test_rl103_flags_conditionally_unpaired_mutation():
    findings = run_deep(**RL103_VIOLATION)
    assert rule_ids(findings) == ["RL103"]
    assert "activity" in findings[0].message


def test_rl103_same_path_pairing_is_clean():
    assert run_deep(**RL103_CLEAN) == []


def test_rl103_branch_covering_both_paths_is_clean():
    findings = run_deep(
        **{
            "art/tree.py": """
            class Tree:
                def mark(self, node, flag):
                    node.dirty = True
                    if flag:
                        node.activity = True
                    else:
                        node.activity = True
            """
        }
    )
    assert findings == []


def test_rl103_constructor_is_exempt():
    findings = run_deep(
        **{
            "art/nodes.py": """
            class Node:
                def __init__(self):
                    self.dirty = True
            """
        }
    )
    assert findings == []


def test_rl103_outside_bound_module_is_clean():
    # The pair binds art/ only.
    findings = run_deep(**{"core/other.py": RL103_VIOLATION["art/tree.py"]})
    assert findings == []


def test_rl103_disabled_rule_reports_nothing():
    assert run_deep(rules=("RL101",), **RL103_VIOLATION) == []


# ----------------------------------------------------------------------
# pragmas
# ----------------------------------------------------------------------


def test_pragma_suppresses_deep_finding():
    findings = run_deep(
        **{
            "lsm/store.py": """
            class Store:
                def put(self, key, value):
                    self._maybe_compact()  # reprolint: allow[RL101]

                def _maybe_compact(self):
                    pass
            """
        }
    )
    assert findings == []


def test_pragma_for_other_rule_does_not_suppress():
    findings = run_deep(
        **{
            "lsm/store.py": """
            class Store:
                def put(self, key, value):
                    self._maybe_compact()  # reprolint: allow[RL103]

                def _maybe_compact(self):
                    pass
            """
        }
    )
    assert rule_ids(findings) == ["RL101"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def write_fixture(tmp_path, source: str):
    # Under a ``repro/`` marker so module_rel_path yields "lsm/store.py":
    # the shallow RL003 owner allowance then applies (lsm/store.py owns
    # _maybe_compact) and only the deep transitive rule fires.
    pkg = tmp_path / "repro" / "lsm"
    pkg.mkdir(parents=True)
    target = pkg / "store.py"
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return target


VIOLATING_MODULE = """
class Store:
    def put(self, key, value):
        self._maybe_compact()

    def _maybe_compact(self):
        pass
"""


def test_cli_deep_exit_code_and_text(tmp_path, capsys):
    target = write_fixture(tmp_path, VIOLATING_MODULE)
    assert main(["--deep", str(target)]) == 1
    out = capsys.readouterr().out
    assert "RL101" in out


def test_cli_shallow_does_not_run_deep_rules(tmp_path):
    target = write_fixture(tmp_path, VIOLATING_MODULE)
    assert main([str(target)]) == 0


def test_cli_sarif_format(tmp_path, capsys):
    target = write_fixture(tmp_path, VIOLATING_MODULE)
    assert main(["--deep", "--format", "sarif", str(target)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["results"][0]["ruleId"] == "RL101"
    declared = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert {r.rule_id for r in DEEP_RULES} <= declared


def test_cli_budget_exceeded_exit_code(tmp_path, capsys):
    target = write_fixture(tmp_path, "x = 1\n")
    assert main(["--deep", "--budget-seconds", "0", str(target)]) == 3


def test_cli_list_rules_includes_deep(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in DEEP_RULES:
        assert rule.rule_id in out
