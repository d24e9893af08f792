"""Combining the repeats' raw timings into one noise-floor estimate.

The repeats of one measurement run the identical op sequence on the
identical program, so any difference between them is the host: a shared
box only ever adds time, and it adds it in bursts that move around.  The
estimate of the undisturbed cost is therefore taken piecewise: for each
op the least wall time, and for each chunk of ops the least CPU time,
that any repeat needed.  A burst has to hit the same piece in every
repeat to get through.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from typing import Any, Sequence


def percentile(ordered: Sequence[Any], q: float) -> Any:
    """Nearest-rank percentile of an already sorted sample."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def read_raw(path: Path, ops: int, chunks: int) -> tuple[array, array]:
    """(per-op wall ns, per-chunk CPU ns) as ``child.py --raw-out`` wrote them."""
    latencies, cpu_chunks = array("q"), array("q")
    with path.open("rb") as raw:
        latencies.fromfile(raw, ops)
        cpu_chunks.fromfile(raw, chunks)
    return latencies, cpu_chunks


def floor_metrics(raws: list[tuple[array, array]]) -> dict[str, float]:
    """The timing metrics of the piecewise minimum over two or more repeats."""
    latencies = list(map(min, *(raw[0] for raw in raws)))
    cpu_chunks = list(map(min, *(raw[1] for raw in raws)))
    ops = len(latencies)
    wall_ns = sum(latencies)
    latencies.sort()
    return {
        "cpu_us_per_op": sum(cpu_chunks) / ops / 1e3,
        "host_kops": ops / (wall_ns / 1e9) / 1e3,
        "host_p50_us": percentile(latencies, 0.50) / 1e3,
        "host_p99_us": percentile(latencies, 0.99) / 1e3,
    }
