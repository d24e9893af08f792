"""Tests for the charge-effect pass (RL301–RL304) and its CLI surface.

Each rule gets a violating fixture and a clean twin fed through
the engine's ``run`` under a ``lsm/``-prefixed rel path (inside the
analysis scope), like the other rule families' tests: the fixture
*is* the contract.  The tail of the file pins the CLI behaviours the
CI pipeline depends on — ``--rules`` parsing, ``--list-rules`` output,
the generated DESIGN.md rule table, and RL3xx presence in SARIF.
"""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.check.__main__ import _parse_rule_spec, _rule_catalogue_markdown, main
from repro.check.chargecheck import _RECEIVER_TYPES, _RECEIVER_TYPES_BY_PREFIX, summarize
from repro.check.engine import load, parse
from repro.check.rules import RULES, run
from repro.sim.effects import MANY

CHARGE_RULES = [rule for rule in RULES if rule.family == "charge"]

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def lint(src: str, rel: str = "lsm/fixture.py", rules=None, apply_pragmas=True):
    analysis = parse([(rel, f"src/repro/{rel}", textwrap.dedent(src))])
    selected = {r.rule_id for r in CHARGE_RULES} if rules is None else rules
    return run(analysis, selected, apply_pragmas=apply_pragmas)


def rules_fired(findings) -> set[str]:
    return {f.rule for f in findings}


def summaries(src: str, rel: str = "lsm/fixture.py"):
    return summarize(parse([(rel, f"src/repro/{rel}", textwrap.dedent(src))]))


# ----------------------------------------------------------------------
# RL301: charge-completeness
# ----------------------------------------------------------------------


def test_rl301_declared_but_never_charged():
    findings = lint(
        """
        class Store:
            @charges("cpu_charge")
            def op(self):
                return 1
        """,
        rules={"RL301"},
    )
    assert rules_fired(findings) == {"RL301"}
    assert "declares cpu_charge" in findings[0].message


def test_rl301_undeclared_effect_charged():
    findings = lint(
        """
        class Store:
            @charges("cpu_charge")
            def op(self):
                self.clock.charge_cpu(5)
                self.clock.charge_background(5)
        """,
        rules={"RL301"},
    )
    assert rules_fired(findings) == {"RL301"}
    assert "undeclared effect bg_charge" in findings[0].message


def test_rl301_unguarded_zero_charge_path():
    findings = lint(
        """
        class Store:
            @charges("cpu_charge")
            def op(self, flag):
                if flag:
                    self.clock.charge_cpu(5)
        """,
        rules={"RL301"},
    )
    assert rules_fired(findings) == {"RL301"}
    assert "without charging it" in findings[0].message


def test_rl301_cache_hit_guard_blesses_the_fast_path():
    findings = lint(
        """
        class Store:
            @charges("cpu_charge")
            def get(self, key):
                if key in self._cache:
                    return self._cache[key]
                self.clock.charge_cpu(5)
                return None
        """,
        rules={"RL301"},
    )
    assert findings == []


def test_rl301_validate_first_raise_is_not_a_zero_charge_path():
    src = """
    class Store:
        @charges("bg_charge")
        def build(self, pairs):
            if not pairs:
                raise ValueError("empty")
            {tail}
    """
    charged = "self.clock.charge_background(5)"
    assert lint(src.format(tail=charged), rules={"RL301"}) == []
    # The exemption covers the raise only: a returning path still counts.
    uncharged = "if pairs[0]:\n                " + charged
    assert rules_fired(lint(src.format(tail=uncharged), rules={"RL301"})) == {"RL301"}


def test_rl301_clean_exactly_once():
    findings = lint(
        """
        class Store:
            @charges("cpu_charge")
            def op(self):
                self.clock.charge_cpu(5)
        """,
        rules={"RL301"},
    )
    assert findings == []


def test_rl301_optional_multiplicity_allows_zero_path():
    findings = lint(
        """
        class Store:
            @charges("cpu_charge?")
            def op(self, flag):
                if flag:
                    self.clock.charge_cpu(5)
        """,
        rules={"RL301"},
    )
    assert findings == []


# ----------------------------------------------------------------------
# RL302: double-charge
# ----------------------------------------------------------------------


def test_rl302_direct_double_charge():
    findings = lint(
        """
        class Store:
            @charges("cpu_charge")
            def op(self):
                self.clock.charge_cpu(1)
                self.clock.charge_cpu(2)
        """,
        rules={"RL302"},
    )
    assert rules_fired(findings) == {"RL302"}
    assert "declares at most 1" in findings[0].message


def test_rl302_transitive_double_charge_through_helper():
    findings = lint(
        """
        class Store:
            def _helper(self):
                self.clock.charge_cpu(1)

            @charges("cpu_charge")
            def op(self):
                self.clock.charge_cpu(1)
                self._helper()
        """,
        rules={"RL302"},
    )
    assert rules_fired(findings) == {"RL302"}


def test_rl302_plus_multiplicity_permits_repetition():
    findings = lint(
        """
        class Store:
            @charges("cpu_charge+")
            def op(self):
                self.clock.charge_cpu(1)
                self.clock.charge_cpu(2)
        """,
        rules={"RL302"},
    )
    assert findings == []


def test_rl302_single_charge_is_clean():
    findings = lint(
        """
        class Store:
            def _helper(self):
                return 0

            @charges("cpu_charge")
            def op(self):
                self.clock.charge_cpu(1)
                self._helper()
        """,
        rules={"RL302"},
    )
    assert findings == []


# ----------------------------------------------------------------------
# RL303: bucket confusion
# ----------------------------------------------------------------------


def test_rl303_foreground_verb_reaching_background_charge():
    findings = lint(
        """
        class KVSystem:
            pass

        class MySystem(KVSystem):
            def read(self, key):
                self.clock.charge_background(5)
        """,
        rules={"RL303"},
    )
    assert rules_fired(findings) == {"RL303"}
    assert "foreground verb" in findings[0].message


def test_rl303_transitive_through_helper_with_chain():
    findings = lint(
        """
        class KVSystem:
            pass

        class MySystem(KVSystem):
            def read(self, key):
                return self._load(key)

            def _load(self, key):
                self.clock.charge_background(5)
        """,
        rules={"RL303"},
    )
    assert rules_fired(findings) == {"RL303"}
    assert "read -> _load" in findings[0].message


def test_rl303_declared_effect_is_exempt():
    findings = lint(
        """
        class KVSystem:
            pass

        class MySystem(KVSystem):
            @charges("bg_charge")
            def read(self, key):
                self.clock.charge_background(5)
        """,
        rules={"RL303"},
    )
    assert findings == []


def test_rl303_maintenance_runner_charging_foreground_cpu():
    findings = lint(
        """
        class Maint:
            def setup(self, scheduler):
                scheduler.register("task", self._maint)

            def _maint(self):
                self.clock.charge_cpu(5)
        """,
        rules={"RL303"},
    )
    assert rules_fired(findings) == {"RL303"}
    assert "maintenance runner" in findings[0].message


def test_rl303_partial_wrapped_runner_is_visible():
    # The satellite-3 seam: a partial-wrapped registration must resolve
    # to the runner, so its undeclared cpu charge still fires RL303.
    findings = lint(
        """
        from functools import partial

        class Maint:
            def setup(self, scheduler):
                scheduler.register("task", partial(self._maint, 3))

            def _maint(self, level):
                self.clock.charge_cpu(5)
        """,
        rules={"RL303"},
    )
    assert rules_fired(findings) == {"RL303"}


def test_rl303_declared_runner_cpu_is_exempt():
    findings = lint(
        """
        class Maint:
            def setup(self, scheduler):
                scheduler.register("task", self._maint)

            @charges("cpu_charge")
            def _maint(self):
                self.clock.charge_cpu(5)
        """,
        rules={"RL303"},
    )
    assert findings == []


# ----------------------------------------------------------------------
# RL304: exception-path charge skew
# ----------------------------------------------------------------------


def test_rl304_mutation_escapes_before_charge():
    findings = lint(
        """
        class Store:
            def op(self, data):
                self._count += 1
                if not data:
                    raise ValueError("empty")
                self.clock.charge_cpu(5)
        """,
        rules={"RL304"},
    )
    assert rules_fired(findings) == {"RL304"}
    assert "before its paired charge" in findings[0].message


def test_rl304_charge_escapes_before_mutation():
    findings = lint(
        """
        class Store:
            def op(self, data):
                self.clock.charge_cpu(5)
                if not data:
                    raise ValueError("empty")
                self._count += 1
        """,
        rules={"RL304"},
    )
    assert rules_fired(findings) == {"RL304"}
    assert "before its paired state mutation" in findings[0].message


def test_rl304_validate_first_order_is_clean():
    findings = lint(
        """
        class Store:
            def op(self, data):
                if not data:
                    raise ValueError("empty")
                self.clock.charge_cpu(5)
                self._count += 1
        """,
        rules={"RL304"},
    )
    assert findings == []


def test_rl304_same_block_pairing_is_exempt():
    findings = lint(
        """
        class Store:
            def op(self, data):
                self.clock.charge_cpu(5)
                self._count += 1
                if self._count > 10:
                    raise RuntimeError("cap")
        """,
        rules={"RL304"},
    )
    assert findings == []


def test_rl304_only_fires_inside_skew_scope():
    src = """
    class Store:
        def op(self, data):
            self._count += 1
            if not data:
                raise ValueError("empty")
            self.clock.charge_cpu(5)
    """
    assert rules_fired(lint(src, rel="lsm/fixture.py", rules={"RL304"})) == {"RL304"}
    assert lint(src, rel="shard/fixture.py", rules={"RL304"}) == []


# ----------------------------------------------------------------------
# summaries, completeness, pragmas
# ----------------------------------------------------------------------


def test_summary_intervals_for_straight_line_charges():
    analysis = summaries(
        """
        class Store:
            def op(self):
                self.clock.charge_cpu(1)
                self.disk.read(0)
        """
    )
    summary = analysis.summary_for("Store", "op")
    assert summary is not None
    assert summary.interval("cpu_charge") == (1, 1)
    assert summary.interval("disk_read") == (1, 1)
    assert summary.interval("disk_write") == (0, 0)
    assert summary.complete


def test_summary_cache_branch_yields_maybe_interval():
    analysis = summaries(
        """
        class Store:
            def get(self, key):
                if key in self._cache:
                    return self._cache[key]
                return self.disk.read(key)
        """
    )
    summary = analysis.summary_for("Store", "get")
    assert summary.interval("disk_read") == (0, 1)


def test_summary_loop_saturates_at_many():
    analysis = summaries(
        """
        class Store:
            def sweep(self):
                for off in self._offsets:
                    self.disk.read(off)
        """
    )
    summary = analysis.summary_for("Store", "sweep")
    assert summary.interval("disk_read") == (0, MANY)


def test_unresolved_charging_name_clears_completeness():
    analysis = summaries(
        """
        class Store:
            def op(self, handle):
                handle.write(b"x")
        """
    )
    summary = analysis.summary_for("Store", "op")
    assert not summary.complete


def test_unresolved_inert_name_keeps_completeness():
    analysis = summaries(
        """
        class Store:
            def op(self, bus):
                bus.bump("ops")
        """
    )
    summary = analysis.summary_for("Store", "op")
    assert summary.complete


def test_pragma_suppresses_finding_and_raw_mode_keeps_it():
    src = """
    class Store:
        @charges("cpu_charge")
        def op(self):
            self.clock.charge_cpu(1)
            self.clock.charge_cpu(2)  # reprolint: allow[RL302]
    """
    assert lint(src, rules={"RL302"}) == []
    raw = lint(src, rules={"RL302"}, apply_pragmas=False)
    assert rules_fired(raw) == {"RL302"}


def test_out_of_scope_module_is_ignored():
    findings = lint(
        """
        class Store:
            @charges("cpu_charge")
            def op(self):
                return 1
        """,
        rel="bench/fixture.py",
    )
    assert findings == []


# ----------------------------------------------------------------------
# CLI surface: --rules, --list-rules, markdown table, SARIF
# ----------------------------------------------------------------------


def test_parse_rule_spec_exact_and_wildcard():
    assert _parse_rule_spec("RL301") == {"RL301"}
    assert _parse_rule_spec("RL30x") == {"RL301", "RL302", "RL303", "RL304", "RL305"}
    assert "RL101" in _parse_rule_spec("RL1xx,RL302")


def test_parse_rule_spec_rejects_unknown_and_empty():
    with pytest.raises(ValueError):
        _parse_rule_spec("RL999")
    with pytest.raises(ValueError):
        _parse_rule_spec(",")


def test_cli_list_rules_covers_all_layers(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule.rule_id in out


def test_cli_markdown_table_lists_charge_rules(capsys):
    assert main(["--list-rules", "--format", "markdown"]) == 0
    out = capsys.readouterr().out
    assert "| Rule | Name | Layer | Scope | Contract |" in out
    for rule in CHARGE_RULES:
        assert f"| {rule.rule_id} |" in out


def test_cli_markdown_requires_list_rules(capsys):
    assert main(["--format", "markdown", str(SRC / "sim" / "effects.py")]) == 2


def test_cli_rules_selection_runs_charge_layer_without_deep_flag(capsys):
    assert main(["--rules", "RL30x", str(SRC)]) == 0
    assert capsys.readouterr().out == ""


def test_cli_sarif_catalogue_contains_charge_rules(capsys):
    assert main(["--format", "sarif", "--rules", "RL301", str(SRC / "sim")]) == 0
    doc = json.loads(capsys.readouterr().out)
    ids = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
    assert {"RL301", "RL302", "RL303", "RL304", "RL305"} <= ids
    assert doc["runs"][0]["results"] == []


def test_cli_budget_overrun_exits_3(capsys):
    assert main(["--rules", "RL301", "--budget-seconds", "0", str(SRC / "sim")]) == 3


def test_design_md_rule_table_is_generated_output():
    # DESIGN.md's rule table is generated, never hand-edited: the block
    # between the markers must equal the CLI's markdown output exactly.
    design = (SRC.parents[1] / "DESIGN.md").read_text(encoding="utf-8")
    begin = design.index("<!-- rule-table:begin -->")
    end = design.index("<!-- rule-table:end -->")
    block = design[begin:end].split("\n", 1)[1].strip()
    assert block == _rule_catalogue_markdown()


def test_shipped_tree_is_charge_clean():
    # RL301–RL304 hold over the real source with zero findings and zero
    # pragma debt (the acceptance bar for this rule family).
    assert main(["--rules", "RL301,RL302,RL303,RL304", str(SRC)]) == 0


def test_receiver_tables_name_only_classes_that_exist():
    # A curated row naming a class that is not in the tree silently drops
    # that receiver from the RL30x join.
    defined = {
        node.name
        for module in load([SRC]).modules
        for node in ast.walk(module.tree)
        if isinstance(node, ast.ClassDef)
    }
    tables = [_RECEIVER_TYPES, *_RECEIVER_TYPES_BY_PREFIX.values()]
    named = {cls for table in tables for classes in table.values() for cls in classes}
    assert named - defined == set()
