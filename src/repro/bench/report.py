"""Result rendering and the shape-criterion type."""

from __future__ import annotations

import os
from typing import Any, Callable

#: Output directory of the CLI runner (``repro.bench.__main__``);
#: ``REPRO_RESULTS_DIR`` overrides the in-repo ``results/`` tree (the
#: determinism tests and CI redirect runs to a temporary directory and
#: byte-compare against the committed files).
RESULTS_DIR = os.environ.get("REPRO_RESULTS_DIR") or os.path.join(
    os.path.dirname(__file__), "..", "..", "..", "results"
)

#: One of the paper's shape claims about an experiment: a short statement
#: and a predicate over the experiment's result payload that returns a
#: real ``bool``.  Each experiment module writes its criteria next to the
#: function that builds the payload; the registry in
#: ``repro.bench.__main__`` pairs them with the result file.
Criterion = tuple[str, Callable[[dict], bool]]


def format_table(title: str, headers: list[str], rows: list[list[Any]]) -> str:
    """Render an aligned text table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_background_report(title: str, samples: list[dict]) -> str:
    """Render per-slice background-task metrics from ``insert_series`` samples.

    One row per (slice, task) with scheduler activity; the slice's key
    count and background-CPU utilization appear on its first row only.
    Slices without a ``background`` entry (systems not built on an
    ``EngineRuntime``) are skipped.
    """
    headers = [
        "keys",
        "bg_util",
        "task",
        "runs",
        "inline",
        "deferred",
        "queue",
        "fg_ms",
        "bg_ms",
        "disk_ms",
    ]
    rows: list[list[Any]] = []
    for sample in samples:
        background = sample.get("background")
        if not background:
            continue
        first = True
        for name in sorted(background["tasks"]):
            metrics = background["tasks"][name]
            active = any(
                metrics.get(key)
                for key in ("runs", "submits", "deferred", "queue_depth")
            )
            if not active:
                continue
            rows.append(
                [
                    sample["keys"] if first else "",
                    f"{background['utilization']:.3f}" if first else "",
                    name,
                    int(metrics.get("runs", 0)),
                    int(metrics.get("inline", 0)),
                    int(metrics.get("deferred", 0)),
                    int(metrics.get("queue_depth", 0)),
                    metrics.get("cpu_ns", 0.0) / 1e6,
                    metrics.get("background_ns", 0.0) / 1e6,
                    metrics.get("disk_ns", 0.0) / 1e6,
                ]
            )
            first = False
    return format_table(title, headers, rows)


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        if cell >= 1000:
            return f"{cell:,.0f}"
        if cell >= 10:
            return f"{cell:.1f}"
        return f"{cell:.3f}"
    return str(cell)
