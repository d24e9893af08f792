"""The paper's shape criteria, held against the committed results.

Every registry entry in ``repro.bench.__main__`` names its result file
and its criteria; each criterion becomes one case here, judged against
the committed ``results/<stem>.json`` without running an experiment.
A failure names the paper claim that broke.
"""

from __future__ import annotations

import copy
import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.bench.__main__ import EXPERIMENTS

RESULTS = Path(__file__).resolve().parent.parent / "results"

CASES = [
    (name, claim, predicate)
    for name, entry in EXPERIMENTS.items()
    for claim, predicate in entry.criteria
]


@lru_cache(maxsize=None)
def _committed(name: str) -> dict:
    return json.loads((RESULTS / f"{EXPERIMENTS[name].stem}.json").read_text())


@pytest.mark.parametrize(
    "name, claim, predicate", CASES, ids=[f"{name}: {claim}" for name, claim, __ in CASES]
)
def test_committed_result_meets_criterion(name, claim, predicate):
    # ``is True``: a predicate must return a real bool, not a truthy value.
    assert predicate(_committed(name)) is True, claim


def test_criteria_reject_a_swapped_result():
    swapped = copy.deepcopy(_committed("fig8"))
    kops = swapped["kops"]
    kops["ART-LSM"], kops["B+-B+"] = kops["B+-B+"], kops["ART-LSM"]
    verdicts = [predicate(swapped) for __, predicate in EXPERIMENTS["fig8"].criteria]
    assert all(type(v) is bool for v in verdicts)
    assert False in verdicts


def test_calling_an_experiment_writes_nothing(tmp_path, monkeypatch):
    import repro.bench.report as report
    from repro.bench.experiments import table1_systems

    monkeypatch.setattr(report, "RESULTS_DIR", str(tmp_path))
    table1_systems()
    assert list(tmp_path.iterdir()) == []
