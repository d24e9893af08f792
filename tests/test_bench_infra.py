"""Tests for the benchmark infrastructure: report formatting, harness, CLI."""

from pathlib import Path

from repro.bench.report import format_table
from repro.bench.harness import insert_series, preload_into_y, read_throughput
from repro.bench.__main__ import EXPERIMENTS, main, write_result
from repro.systems import build_system

RESULTS = Path(__file__).resolve().parent.parent / "results"


def test_format_table_aligns_columns():
    table = format_table("Title", ["a", "long-header"], [[1, 2.5], ["xx", 12345.0]])
    lines = table.splitlines()
    assert lines[0] == "Title"
    assert lines[1] == "====="
    assert "long-header" in lines[2]
    assert "12,345" in table


def test_format_table_float_precision():
    table = format_table("T", ["v"], [[0.1234], [42.4567], [9876.5]])
    assert "0.123" in table
    assert "42.5" in table
    assert "9,876" in table


def test_write_result_creates_json(tmp_path, monkeypatch):
    import repro.bench.report as report

    monkeypatch.setattr(report, "RESULTS_DIR", str(tmp_path))
    table = write_result("table1")
    assert table.startswith("Table I")
    written = (tmp_path / "table1_systems.json").read_bytes()
    assert written == (RESULTS / "table1_systems.json").read_bytes()


def test_insert_series_samples_chunks():
    system = build_system("ART-LSM", memory_limit_bytes=1 << 20)
    samples = insert_series(system, range(1000), b"v", chunk=250)
    assert len(samples) == 4
    assert samples[-1]["keys"] == 1000
    assert all(s["kops"] > 0 for s in samples)
    assert samples[0]["memory_mb"] <= samples[-1]["memory_mb"]


def test_preload_pushes_data_to_disk():
    system = build_system("ART-LSM", memory_limit_bytes=1 << 20)
    keys = preload_into_y(system, 500, b"v")
    assert len(keys) == 500
    assert system.disk.stats["bytes_written"] > 0


def test_read_throughput_counts_only_given_keys():
    system = build_system("ART-LSM", memory_limit_bytes=1 << 20)
    for k in range(100):
        system.insert(k, b"v")
    kops = read_throughput(system, range(100))
    assert kops > 0
    assert read_throughput(system, iter(())) == 0.0


def test_cli_registry_covers_every_table_and_figure():
    # Registry entries and committed results files are one-to-one.
    stems = [entry.stem for entry in EXPERIMENTS.values()]
    assert len(set(stems)) == len(stems)
    assert set(stems) == {path.stem for path in RESULTS.glob("*.json")}


def test_cli_rejects_unknown_experiment(capsys):
    assert main(["not_a_real_experiment"]) == 2


def test_cli_smoke_rejects_an_experiment_without_a_smoke_variant(capsys):
    assert main(["--smoke", "table1"]) == 2
    assert "table1" in capsys.readouterr().err


def test_cli_list_exits_cleanly(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig9" in out
