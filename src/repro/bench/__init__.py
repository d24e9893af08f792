"""Benchmark harness: one experiment per table and figure of the paper.

Each experiment in :mod:`repro.bench.experiments` drives the systems with
the corresponding workload at simulation scale and returns a structured
result dict with a rendered text table.  The registry in
:mod:`repro.bench.__main__` names each experiment's result file and the
paper's shape criteria over that dict; its CLI runner is the one place
that writes ``results/*.json`` for EXPERIMENTS.md.  Throughput figures
are operations per *simulated* second (see :mod:`repro.sim`): absolute
values differ from the paper's testbed, relative shapes are the
reproduction target.
"""

from repro.bench.harness import insert_series, phase_split, preload_into_y
from repro.bench.report import format_table

__all__ = [
    "format_table",
    "insert_series",
    "phase_split",
    "preload_into_y",
]
