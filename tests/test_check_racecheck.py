"""Tests for the concurrency-safety pass (RL201–RL204) and its oracle.

The racy fixtures in ``tests/fixtures_racy_router.py`` are the heart of
this file: the *same source* is fed to the static analyzer under a
``shard/`` rel path (where each RL2xx rule must flag its one violation)
and imported as live classes whose debug-mode runs must trip the
:class:`~repro.check.sanitizer.OwnershipSanitizer` or the
``@shared_readonly`` write guard.  A contract check that holds in only
one of the two layers is a bug in the other.
"""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.check.__main__ import main
from repro.check.engine import load, parse
from repro.check.rules import RULES, run
from repro.check.sanitizer import CheckError, OwnershipSanitizer
from repro.shard import OwnershipViolation, ShardRouter, ShardWorkerPool
from tests.fixtures_racy_router import (
    BarrierBypassRouter,
    CleanCountingRouter,
    CleanMigrationRouter,
    CleanRetuneRouter,
    CrossShardDiskRouter,
    CrossShardRouter,
    MidDispatchResharder,
    RebalancingRouter,
    SharedStatsRouter,
)

RACE_RULES = [rule for rule in RULES if rule.family == "concurrency"]
RACE_IDS = frozenset(rule.rule_id for rule in RACE_RULES)

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
FIXTURE = Path(__file__).with_name("fixtures_racy_router.py")

#: the real shard sources the fixture's base classes live in — analyzed
#: alongside the fixture so attr types, decorators, and the forwarder
#: seam resolve exactly as they do on the shipped tree.
REAL_RELS = (
    "shard/router.py",
    "shard/partition.py",
    "shard/pool.py",
    "shard/ownership.py",
    "shard/heat.py",
    "shard/fleet.py",
    "systems/base.py",
)

#: racy class -> the one rule that must fire inside it.
EXPECTED = {
    "CrossShardRouter": "RL202",
    "CrossShardDiskRouter": "RL202",
    "SharedStatsRouter": "RL201",
    "RebalancingRouter": "RL203",
    "MidDispatchResharder": "RL203",
    "BarrierBypassRouter": "RL204",
}

CLEAN_CLASSES = {"CleanCountingRouter", "CleanRetuneRouter", "CleanMigrationRouter"}

LIMIT = 256 * 1024
VALUE = b"race-check-value"


def corpus() -> dict[str, tuple[str, str]]:
    files = {
        rel: (str(SRC / rel), (SRC / rel).read_text(encoding="utf-8"))
        for rel in REAL_RELS
    }
    # The fixture joins the analyzed tree under a shard/ rel path: the
    # contract scope is keyed by module location, not file location.
    files["shard/racy_router.py"] = (
        str(FIXTURE),
        FIXTURE.read_text(encoding="utf-8"),
    )
    return files


def class_of_line(line: int) -> str:
    tree = ast.parse(FIXTURE.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.lineno <= line <= node.end_lineno:
            return node.name
    return "<module>"


def _lint(files, rules=None, *, apply_pragmas=True):
    """The RL2xx rules (or the ``rules`` subset) over ``rel -> (path, source)``."""
    analysis = parse([(rel, path, source) for rel, (path, source) in files.items()])
    return run(analysis, RACE_IDS if rules is None else rules, apply_pragmas=apply_pragmas)


def run_race(rules=None, **modules):
    files = {
        rel: (f"fixture/{rel}", textwrap.dedent(src)) for rel, src in modules.items()
    }
    return _lint(files, rules)


# ----------------------------------------------------------------------
# static layer: the racy fixtures, one finding per rule
# ----------------------------------------------------------------------


def test_each_racy_router_trips_exactly_its_rule():
    findings = _lint(corpus())
    assert len(findings) == len(EXPECTED)
    by_class = {class_of_line(f.line): f.rule for f in findings}
    assert by_class == EXPECTED


def test_clean_variants_produce_no_findings():
    findings = _lint(corpus())
    assert all(class_of_line(f.line) not in CLEAN_CLASSES for f in findings)


def test_findings_point_into_the_fixture_file():
    findings = _lint(corpus())
    assert {f.path for f in findings} == {str(FIXTURE)}


def test_rules_subset_restricts_the_run():
    only_204 = _lint(corpus(), rules={"RL204"})
    assert [f.rule for f in only_204] == ["RL204"]
    none = _lint(corpus(), rules=set())
    assert none == []


def test_real_shard_tree_is_clean():
    # The shipped router/partitioner/pool satisfy the contract they state.
    assert run(load([SRC]), RACE_IDS) == []


# ----------------------------------------------------------------------
# static layer: synthetic minimal fixtures per rule
# ----------------------------------------------------------------------


def test_rl204_flags_executor_primitives_in_shard_modules():
    findings = run_race(
        **{
            "shard/side.py": """
            from concurrent.futures import ThreadPoolExecutor

            def fan_out(thunks):
                with ThreadPoolExecutor(max_workers=4) as pool:
                    futures = [pool.submit(t) for t in thunks]
                return [f.result() for f in futures]
            """
        }
    )
    assert findings and all(f.rule == "RL204" for f in findings)


def test_rl204_pool_module_owns_the_barrier():
    # The same primitives inside shard/pool.py are the barrier itself.
    findings = run_race(
        **{
            "shard/pool.py": """
            from concurrent.futures import ThreadPoolExecutor

            class ShardWorkerPool:
                def __init__(self, workers):
                    self._executor = ThreadPoolExecutor(max_workers=workers)

                def run(self, thunks):
                    return list(self._executor.map(lambda t: t(), thunks))
            """
        }
    )
    assert findings == []


def test_rl204_outside_shard_scope_is_clean():
    findings = run_race(
        **{
            "bench/harness.py": """
            from concurrent.futures import ThreadPoolExecutor

            def measure(jobs):
                with ThreadPoolExecutor() as pool:
                    return list(pool.map(lambda j: j(), jobs))
            """
        }
    )
    assert findings == []


def test_rl204_one_finding_per_line():
    findings = run_race(
        **{
            "shard/side.py": """
            def go(pool, thunk):
                return pool._executor.submit(thunk).result()
            """
        }
    )
    assert [f.rule for f in findings] == ["RL204"]


def test_pragma_suppresses_race_finding():
    source = """
    def go(pool, thunk):
        return pool._executor.submit(thunk).result()  # reprolint: allow[RL204]
    """
    files = {"shard/side.py": ("fixture/shard/side.py", textwrap.dedent(source))}
    assert _lint(files) == []
    # The stale-pragma audit sees the raw finding.
    raw = _lint(files, apply_pragmas=False)
    assert [f.rule for f in raw] == ["RL204"]


def test_pragma_for_other_rule_does_not_suppress():
    source = """
    def go(pool, thunk):
        return pool._executor.submit(thunk).result()  # reprolint: allow[RL201]
    """
    files = {"shard/side.py": ("fixture/shard/side.py", textwrap.dedent(source))}
    assert [f.rule for f in _lint(files)] == ["RL204"]


# ----------------------------------------------------------------------
# dynamic layer: the same fixtures trip the runtime oracle
# ----------------------------------------------------------------------


def spread_keys(router: ShardRouter, count: int = 64) -> list[int]:
    """Keys landing on at least two shards (racy dispatch needs >1 thunk)."""
    keys = list(range(1, count + 1))
    sids = {router.partitioner.shard_of(k) for k in keys}
    assert len(sids) >= 2
    return keys


def make(cls, workers: int = 0, partitioner: str = "hash") -> ShardRouter:
    return cls(
        base_system="ART-LSM",
        shards=4,
        memory_limit_bytes=LIMIT,
        workers=workers,
        partitioner=partitioner,
        debug_checks=True,
    )


@pytest.mark.parametrize("workers", [0, 2])
def test_cross_shard_router_trips_ownership_claims(workers):
    router = make(CrossShardRouter, workers)
    with pytest.raises(CheckError, match="claiming shard"):
        router.put_many(spread_keys(router), VALUE)


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("touch", ["allocate", "write", "read", "free"])
def test_cross_shard_disk_touch_trips_ownership_claims(touch, workers):
    # The thunks leave the other shard's clock and stats bus alone: only
    # the probes on its SimDisk and disk.stats can see this.
    router = make(CrossShardDiskRouter, workers)
    router.touch = touch
    with pytest.raises(CheckError, match="claiming shard . mutated shard 0"):
        router.put_many(spread_keys(router), VALUE)


@pytest.mark.parametrize("workers", [0, 2])
def test_shared_stats_router_trips_foreground_token(workers):
    router = make(SharedStatsRouter, workers)
    with pytest.raises(CheckError, match="foreground substrate"):
        router.get_many(spread_keys(router))


@pytest.mark.parametrize("workers", [0, 2])
def test_rebalancing_router_trips_shared_readonly_guard(workers):
    router = make(RebalancingRouter, workers)
    with pytest.raises(OwnershipViolation, match="armed shard dispatch"):
        router.put_many(spread_keys(router), VALUE)


def range_spread_keys(router: ShardRouter, per_shard: int = 8) -> list[int]:
    """Keys hitting every shard of an ordered (range) partitioner."""
    keys: list[int] = []
    for sid in range(len(router.shards)):
        lo, hi = router.partitioner.shard_range(sid)
        step = max(1, (hi - lo) // (per_shard + 1))
        keys.extend(lo + 1 + i * step for i in range(per_shard) if lo + 1 + i * step < hi)
    sids = {router.partitioner.shard_of(k) for k in keys}
    assert len(sids) >= 2
    return keys


@pytest.mark.parametrize("workers", [0, 2])
def test_mid_dispatch_resharder_trips_shared_readonly_guard(workers):
    router = make(MidDispatchResharder, workers, partitioner="weighted")
    with pytest.raises(OwnershipViolation, match="armed shard dispatch"):
        router.put_many(range_spread_keys(router), VALUE)


@pytest.mark.parametrize("workers", [0, 2])
def test_clean_migration_router_commits_on_the_foreground(workers):
    router = make(CleanMigrationRouter, workers, partitioner="weighted")
    keys = range_spread_keys(router)
    lo, hi = router.partitioner.shard_range(0)
    router.put_then_reshard(keys, VALUE, split=(lo + hi) // 2)
    assert router.transfer is not None  # descriptor published
    assert router.get_many(keys) == [VALUE] * len(keys)


def test_barrier_bypass_router_trips_unclaimed_mutation():
    router = make(BarrierBypassRouter, workers=2)
    with pytest.raises(CheckError, match="without an\\s+ownership claim"):
        router.put_many(spread_keys(router), VALUE)


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("cls", [CleanCountingRouter, CleanRetuneRouter])
def test_clean_variants_run_clean_under_the_oracle(cls, workers):
    router = make(cls, workers)
    keys = spread_keys(router)
    router.put_many(keys, VALUE)
    assert router.get_many(keys) == [VALUE] * len(keys)
    if isinstance(router, CleanRetuneRouter):
        router.retune(1)  # foreground write outside a dispatch: legal


def test_oracle_installed_only_in_debug_mode():
    checked = make(CleanCountingRouter, workers=0)
    assert isinstance(checked.ownership, OwnershipSanitizer)
    assert checked.ownership.dispatches == 0
    checked.put_many([1, 2, 3, 4, 5, 6, 7, 8], VALUE)
    assert checked.ownership.dispatches >= 1
    unchecked = CleanCountingRouter(
        base_system="ART-LSM", shards=2, memory_limit_bytes=LIMIT, debug_checks=False
    )
    assert unchecked.ownership is None


def test_racy_router_matches_static_finding_on_same_source():
    """The both-layers pin: one fixture source, both catches.

    ``CrossShardRouter`` is flagged statically (RL202 inside its body)
    and dynamically (ownership claim mismatch) — on the identical file.
    """
    findings = _lint(corpus())
    classes = {class_of_line(f.line) for f in findings}
    assert "CrossShardRouter" in classes
    router = make(CrossShardRouter, workers=0)
    with pytest.raises(CheckError):
        router.put_many(spread_keys(router), VALUE)


# ----------------------------------------------------------------------
# the sanitizer's own preconditions
# ----------------------------------------------------------------------


def test_dispatch_rejects_duplicate_shard_ids():
    router = make(CleanCountingRouter, workers=0)
    pool = ShardWorkerPool(0)
    with pytest.raises(CheckError, match="duplicate shard ids"):
        router.ownership.dispatch(pool, [1, 1], [lambda: None, lambda: None])


def test_dispatch_rejects_sid_thunk_length_mismatch():
    router = make(CleanCountingRouter, workers=0)
    pool = ShardWorkerPool(0)
    with pytest.raises(CheckError, match="exactly\\s+one owned shard"):
        router.ownership.dispatch(pool, [0], [lambda: None, lambda: None])


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------


def write_shard_fixture(tmp_path, source: str):
    # Under a repro/ marker so module_rel_path yields "shard/side.py" and
    # the module falls inside the contract scope.
    pkg = tmp_path / "repro" / "shard"
    pkg.mkdir(parents=True)
    target = pkg / "side.py"
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return target


BYPASS_MODULE = """
def go(pool, thunk):
    return pool._executor.submit(thunk).result()
"""


def test_cli_deep_includes_race_rules(tmp_path, capsys):
    target = write_shard_fixture(tmp_path, BYPASS_MODULE)
    assert main(["--deep", str(target)]) == 1
    assert "RL204" in capsys.readouterr().out


def test_cli_shallow_does_not_run_race_rules(tmp_path):
    target = write_shard_fixture(tmp_path, BYPASS_MODULE)
    assert main([str(target)]) == 0


def test_cli_sarif_declares_race_rules_with_family(tmp_path, capsys):
    target = write_shard_fixture(tmp_path, BYPASS_MODULE)
    assert main(["--deep", "--format", "sarif", str(target)]) == 1
    doc = json.loads(capsys.readouterr().out)
    run = doc["runs"][0]
    rules = {r["id"]: r for r in run["tool"]["driver"]["rules"]}
    assert {r.rule_id for r in RACE_RULES} <= set(rules)
    for rule in RACE_RULES:
        declared = rules[rule.rule_id]
        assert declared["properties"]["family"] == "concurrency"
        assert declared["defaultConfiguration"] == {"level": "error"}
        assert declared["fullDescription"]["text"]
    assert rules["RL101"]["properties"]["family"] == "deep"
    assert rules[RULES[0].rule_id]["properties"]["family"] == "shallow"
    assert run["results"][0]["ruleId"] == "RL204"


def test_cli_list_rules_shows_all_three_layers(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule.rule_id in out


def test_cli_budget_covers_race_pass(tmp_path):
    target = write_shard_fixture(tmp_path, "x = 1\n")
    assert main(["--deep", "--budget-seconds", "0", str(target)]) == 3


def test_cli_unused_pragmas_reports_stale(tmp_path, capsys):
    target = write_shard_fixture(
        tmp_path,
        """
        def go(pool, thunk):
            return thunk()  # reprolint: allow[RL204]
        """,
    )
    assert main(["--unused-pragmas", str(target)]) == 1
    out = capsys.readouterr().out
    assert "stale pragma" in out and "RL204" in out


def test_cli_unused_pragmas_keeps_live_ones(tmp_path):
    target = write_shard_fixture(
        tmp_path,
        """
        def go(pool, thunk):
            return pool._executor.submit(thunk).result()  # reprolint: allow[RL204]
        """,
    )
    assert main(["--unused-pragmas", str(target)]) == 0
    # The suppressed finding keeps the lint run itself green.
    assert main(["--deep", str(target)]) == 0


def test_cli_unused_pragmas_clean_tree(tmp_path):
    target = write_shard_fixture(tmp_path, "x = 1\n")
    assert main(["--unused-pragmas", str(target)]) == 0
