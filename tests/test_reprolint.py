"""Fixture tests for the repo-specific AST lint (``repro.check.reprolint``).

Every rule gets a crafted source snippet proving it fires, a clean
counterpart proving it stays quiet, and a pragma case proving the inline
suppression works.  The CLI exit-code contract is covered at the end.
"""

from __future__ import annotations

import textwrap

from repro.check.__main__ import main as check_main
from repro.check.engine import Finding, load, module_rel_path, parse
from repro.check.rules import RULES, run

SHALLOW = {rule.rule_id for rule in RULES if rule.family == "shallow"}

# Fixture paths: one inside a fake package component, one inside repro/sim.
COMPONENT = "src/repro/core/fixture.py"
SIM = "src/repro/sim/fixture.py"


def rules_of(findings: list[Finding]) -> list[str]:
    return [f.rule for f in findings]


def lint(source: str, path: str = COMPONENT) -> list[Finding]:
    return run(parse([(module_rel_path(path), path, textwrap.dedent(source))]), SHALLOW)


# -- module_rel_path ----------------------------------------------------


def test_module_rel_path_strips_package_prefix():
    assert module_rel_path("src/repro/core/indexy.py") == "core/indexy.py"
    assert module_rel_path("/abs/path/src/repro/sim/runtime.py") == "sim/runtime.py"
    assert module_rel_path("repro/lsm/store.py") == "lsm/store.py"


def test_module_rel_path_outside_package_falls_back_to_filename():
    # Fixture files outside the package never match module allowances.
    assert module_rel_path("/tmp/scratch/whatever.py") == "whatever.py"


# -- RL000: syntax errors ------------------------------------------------


def test_syntax_error_reported_as_rl000():
    findings = lint("def broken(:\n    pass\n")
    assert rules_of(findings) == ["RL000"]
    assert "syntax error" in findings[0].message


# -- RL001: raw substrate construction ----------------------------------


def test_rl001_fires_on_substrate_construction_outside_sim():
    src = """
    clock = SimClock()
    disk = SimDisk(clock)
    stats = StatCounters()
    """
    assert rules_of(lint(src)) == ["RL001", "RL001", "RL001"]


def test_rl001_allowed_inside_sim_package():
    assert lint("clock = SimClock()\n", path=SIM) == []


def test_rl001_ignores_plain_calls():
    assert lint("x = make_runtime()\n") == []


# -- RL002: disk internals bypass ---------------------------------------


def test_rl002_fires_on_disk_internal_access():
    findings = lint("n = len(disk._blobs)\n")
    assert rules_of(findings) == ["RL002"]


def test_rl002_fires_on_busy_ns_write():
    assert rules_of(lint("disk.busy_ns += 100\n")) == ["RL002"]
    assert rules_of(lint("disk.busy_ns = 0\n")) == ["RL002"]


def test_rl002_fires_on_clock_account_write():
    # The static half of the clock-monotonicity check: a probe on the
    # charge seam cannot see a poke that never goes through a charge.
    assert rules_of(lint("clock.cpu_ns -= 500.0\n")) == ["RL002"]
    assert rules_of(lint("self.runtime.clock.background_ns = 0.0\n")) == ["RL002"]


def test_rl002_allows_busy_ns_read():
    assert lint("elapsed = disk.busy_ns\n") == []
    assert lint("total = clock.cpu_ns + clock.background_ns\n") == []
    assert lint("clock.charge_cpu(100.0)\n") == []


def test_rl002_allowed_inside_sim_package():
    assert lint("self._blobs = {}\nself.busy_ns = 0\n", path=SIM) == []
    assert lint("self.clock.cpu_ns = cpu_ns\nself.background_ns += ns\n", path=SIM) == []


# -- RL003: inline background work --------------------------------------


def test_rl003_fires_on_inline_maintenance_call():
    findings = lint("self.precleaner.run_pass(10)\n", path="src/repro/lsm/store.py")
    assert rules_of(findings) == ["RL003"]


def test_rl003_quiet_in_owner_module():
    assert lint("self.precleaner.run_pass(10)\n", path="src/repro/core/indexy.py") == []


def test_rl003_fires_on_threading():
    assert rules_of(lint("import threading\n")) == ["RL003"]
    src = """
    import threading  # reprolint: allow[RL003]
    t = threading.Thread(target=f)
    """
    assert rules_of(lint(src)) == ["RL003"]  # the Thread() call still fires


# -- RL004: wall clock ---------------------------------------------------


def test_rl004_fires_on_time_and_datetime_imports():
    assert rules_of(lint("import time\n")) == ["RL004"]
    assert rules_of(lint("from datetime import datetime\n")) == ["RL004"]
    assert rules_of(lint("import time.monotonic\n")) == ["RL004"]


def test_rl004_quiet_on_other_imports():
    assert lint("import bisect\nfrom dataclasses import dataclass\n") == []


# -- RL005: unseeded randomness -----------------------------------------


def test_rl005_fires_on_global_random_functions():
    src = """
    import random
    x = random.random()
    y = random.randint(0, 10)
    """
    assert rules_of(lint(src)) == ["RL005", "RL005"]


def test_rl005_fires_on_seedless_random():
    assert rules_of(lint("rng = random.Random()\n")) == ["RL005"]
    assert rules_of(lint("rng = Random()\n")) == ["RL005"]


def test_rl005_quiet_on_seeded_random():
    assert lint("rng = random.Random(42)\nrng2 = Random(seed)\n") == []


def test_rl005_fires_on_from_import_of_global_funcs():
    assert rules_of(lint("from random import shuffle\n")) == ["RL005"]
    assert lint("from random import Random\n") == []


# -- RL006: mutable defaults --------------------------------------------


def test_rl006_fires_on_mutable_defaults():
    src = """
    def f(a, b=[], c={}, *, d=dict()):
        pass
    """
    assert rules_of(lint(src)) == ["RL006", "RL006", "RL006"]


def test_rl006_quiet_on_immutable_defaults():
    src = """
    def f(a=None, b=(), c=0, d="x", e=frozenset()):
        pass
    """
    assert lint(src) == []


# -- RL007: hot-path overhead -------------------------------------------

HOT = "src/repro/art/fixture.py"


def test_rl007_fires_on_function_local_import_in_hot_module():
    src = """
    def f():
        import bisect
        from struct import Struct
    """
    assert rules_of(lint(src, path=HOT)) == ["RL007", "RL007"]


def test_rl007_quiet_on_module_level_import_in_hot_module():
    assert lint("import bisect\nfrom struct import Struct\n", path=HOT) == []


def test_rl007_quiet_on_function_local_import_outside_hot_modules():
    src = """
    def f():
        import bisect
    """
    assert lint(src) == []


def test_rl007_fires_on_self_chain_call_in_loop():
    src = """
    def f(self, keys):
        for key in keys:
            self.clock.charge_cpu(10)
        while self.stats.get("ops") < 10:
            pass
    """
    assert rules_of(lint(src, path=HOT)) == ["RL007", "RL007"]


def test_rl007_quiet_on_hoisted_local_in_loop():
    src = """
    def f(self, keys):
        charge = self.clock.charge_cpu
        for key in keys:
            charge(10)
    """
    assert lint(src, path=HOT) == []


def test_rl007_quiet_on_chain_call_outside_loop():
    assert lint("def f(self):\n    self.clock.charge_cpu(10)\n", path=HOT) == []


def test_rl007_quiet_on_non_self_chain_in_loop():
    # A chain rooted at the loop variable is not loop-invariant and
    # usually cannot be hoisted.
    src = """
    def f(self, nodes):
        for node in nodes:
            node.prefix.find(0)
    """
    assert lint(src, path=HOT) == []


def test_rl007_quiet_on_for_iterator_expression():
    # The iterator expression evaluates once, not per iteration.
    src = """
    def f(self):
        for name, value in self.counts.items():
            use(name, value)
    """
    assert lint(src, path=HOT) == []


def test_rl007_quiet_outside_hot_modules():
    src = """
    def f(self, keys):
        for key in keys:
            self.clock.charge_cpu(10)
    """
    assert lint(src) == []


def test_rl007_pragma_suppresses():
    src = """
    def f(self, keys):
        for key in keys:
            self.clock.charge_cpu(10)  # reprolint: allow[RL007]
    """
    assert lint(src, path=HOT) == []


# RL007 one call level down: a hot loop calling a helper that allocates
# (or imports) on every call pays it per iteration.

ALLOCATING_HELPER = """
class Store:
    def probe(self, tables, keys):
        out = 0
        for key in keys:
            out += self._mins(tables)
        return out

    def _mins(self, tables):
        return [t.min_key for t in tables]
"""


def test_rl007_fires_on_allocating_helper_in_loop():
    findings = lint(ALLOCATING_HELPER, path="src/repro/lsm/probe.py")
    assert rules_of(findings) == ["RL007"]
    assert "_mins()" in findings[0].message


def test_rl007_quiet_on_conditionally_allocating_helper():
    src = """
    class Store:
        def probe(self, tables, keys):
            out = 0
            for key in keys:
                out += self._mins(tables)
            return out

        def _mins(self, tables):
            if not self._cache:
                self._cache = [t.min_key for t in tables]
            return self._cache
    """
    assert lint(src, path="src/repro/lsm/probe.py") == []


def test_rl007_quiet_on_allocating_helper_outside_hot_modules():
    assert lint(ALLOCATING_HELPER, path="src/repro/bench/probe.py") == []


def test_rl007_fires_on_helper_with_local_import():
    src = """
    class Tree:
        def walk(self, nodes):
            for node in nodes:
                self._span(node)

        def _span(self, node):
            import math
            return math.ceil(node)
    """
    findings = lint(src, path=HOT)
    # The call site (one level down) and the import itself.
    assert rules_of(findings) == ["RL007", "RL007"]
    assert "function-local import" in findings[0].message and "_span()" in findings[0].message


def test_rl007_unselected_reports_nothing():
    source = textwrap.dedent(ALLOCATING_HELPER)
    analysis = parse([("lsm/probe.py", "src/repro/lsm/probe.py", source)])
    assert run(analysis, SHALLOW - {"RL007"}) == []


# -- RL009: cache-policy determinism ------------------------------------

POLICY = "src/repro/cache/fixture.py"


def test_rl009_fires_on_banned_imports_in_policy_module():
    assert rules_of(lint("import time\n", path=POLICY)) == ["RL004"]  # RL004's everywhere
    assert rules_of(lint("import random\n", path=POLICY)) == ["RL009"]
    assert rules_of(lint("from os import environ\n", path=POLICY)) == ["RL009"]


def test_rl009_fires_on_bare_set_iteration():
    src = """
    def evict_candidate(self):
        for key in set(self._meta):
            return key
        for key in {1, 2, 3}:
            return key
    """
    assert rules_of(lint(src, path=POLICY)) == ["RL009", "RL009"]


def test_rl009_fires_on_set_iteration_in_comprehensions():
    src = """
    def evict_candidate(self):
        return [key for key in frozenset(self._meta)]
    """
    assert rules_of(lint(src, path=POLICY)) == ["RL009"]


def test_rl009_quiet_on_ordered_iteration():
    src = """
    def evict_candidate(self):
        for key in self._order:
            return key
        return [key for key in sorted(self._meta)]
    """
    assert lint(src, path=POLICY) == []


def test_rl009_pragma_suppresses():
    src = "import random  # reprolint: allow[RL009]\n"
    assert lint(src, path=POLICY) == []


def test_rl009_only_applies_to_cache_modules():
    src = """
    def pick(self):
        for key in set(self.keys):
            return key
    """
    assert lint(src) == []


def test_rl003_fires_on_concurrent_imports():
    assert rules_of(lint("import concurrent.futures\n")) == ["RL003"]
    assert rules_of(lint("from concurrent.futures import ProcessPoolExecutor\n")) == ["RL003"]
    # Shard modules get no exception: batches are dispatched serially.
    shard_module = "src/repro/shard/pool.py"
    assert rules_of(lint("import concurrent.futures\n", path=shard_module)) == ["RL003"]


# -- pragma suppression --------------------------------------------------


def test_pragma_suppresses_named_rule():
    assert lint("import time  # reprolint: allow[RL004]\n") == []


def test_pragma_star_suppresses_everything():
    assert lint("stats = StatCounters()  # reprolint: allow[*]\n") == []


def test_pragma_for_wrong_rule_does_not_suppress():
    findings = lint("import time  # reprolint: allow[RL005]\n")
    assert rules_of(findings) == ["RL004"]


def test_pragma_accepts_comma_separated_ids():
    src = "import time  # reprolint: allow[RL003, RL004]\n"
    assert lint(src) == []


# -- file discovery ------------------------------------------------------


def test_lint_paths_skips_tests_directories(tmp_path):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text("import time\n")
    tests_dir = tmp_path / "repro" / "tests"
    tests_dir.mkdir()
    (tests_dir / "also_bad.py").write_text("import time\n")
    findings = run(load([tmp_path]), SHALLOW)
    assert [f.path for f in findings] == [str(pkg / "bad.py")]


# -- CLI -----------------------------------------------------------------


def test_cli_exits_zero_on_clean_tree(tmp_path):
    (tmp_path / "ok.py").write_text("x = 1\n")
    assert check_main([str(tmp_path)]) == 0


def test_cli_exits_one_on_findings(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\n")
    assert check_main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "RL004" in out and str(bad) in out


def test_cli_exits_two_on_missing_path(tmp_path):
    assert check_main([str(tmp_path / "nope")]) == 2


def test_cli_list_rules(capsys):
    assert check_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule.rule_id in out


def test_cli_default_target_is_package_clean():
    # The shipped package must lint clean with no arguments.
    assert check_main([]) == 0
