"""One measurement in one fresh process: set up, warm up, time, verify.

``run.py`` starts this script once per repeat so that ``setup_s`` and
``peak_rss_mb`` belong to one workload alone.  It prints one JSON object
on its last stdout line.  Modes:

* ``plain`` — the untraced pass every end-to-end metric comes from;
* ``spans`` — the same pass with the layer boundaries wrapped;
* ``calls`` — the first ``CALL_OPS`` ops under ``sys.setprofile``.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import sys
import time
from array import array
from contextlib import nullcontext
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.art.keys import decode_int, encode_int  # noqa: E402

import layers  # noqa: E402
from spans import CallCounter, Tracer, install  # noqa: E402
from workloads import GET_MANY, READ, SCAN, VALUES, WORKLOADS, WRITE  # noqa: E402
from workloads import BATCH_KEYS, SCAN_COUNT, OpStream, make_inputs  # noqa: E402

#: ops counted under ``sys.setprofile`` (the deterministic cost proxy).
CALL_OPS = 20_000
#: keys re-read and checked against the model after the timed phase.
SWEEP_KEYS = 2_000
#: CPU-clock marks per pass: the parent takes, chunk by chunk, the least
#: CPU time any repeat needed, so the marks must be frequent enough that
#: a disturbance hits different chunks in different repeats.
CPU_CHUNKS = 512


def chunk_ops(ops: int) -> int:
    return max(1, -(-ops // CPU_CHUNKS))


def timing_buffers(ops: int) -> tuple[array, array]:
    """Zeroed (per-op wall stamps, per-chunk CPU marks) for ``ops`` ops."""
    chunks = -(-ops // chunk_ops(ops)) if ops else 0
    return array("q", bytes(8 * (ops + 1))), array("q", bytes(8 * (chunks + 1)))


def peak_rss_kib() -> int:
    """This process's own high-water mark.

    ``VmHWM`` rather than ``ru_maxrss``: the latter also carries the
    parent's peak across ``exec``, which is not this workload's memory.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def scan_ok(pairs: list[tuple[bytes, bytes]], start: int, model: dict[int, bytes]) -> bool:
    """Sorted from ``start``, at most SCAN_COUNT long, values as the model has them."""
    if len(pairs) > SCAN_COUNT:
        return False
    floor = encode_int(start)
    for key, value in pairs:
        if key < floor or model.get(decode_int(key)) != value:
            return False
        floor = key + b"\x00"  # strictly increasing
    return True


def run_ops(
    system: Any,
    stream: OpStream,
    model: dict[int, bytes],
    lo: int,
    hi: int,
    stamps: array,
    cpu_marks: array,
) -> int:
    """Issue ops ``lo..hi``; returns how many failed.

    One wall-clock stamp is stored after every op and one CPU-clock mark
    after every chunk of ``chunk_ops`` ops.  Every result is compared
    with the dict model; a mismatch or an exception counts as a failed
    op and never leaves the loop.
    """
    read, insert, scan, get_many = system.read, system.insert, system.scan, system.get_many
    kinds, keys, batch = stream.kinds, stream.keys, stream.batch
    lookup = model.get
    values, spare = VALUES, len(VALUES) - 1
    now, cpu_now = time.perf_counter_ns, time.process_time_ns
    chunk = chunk_ops(hi - lo)
    failed = 0
    slot = mark = 1
    cpu_marks[0] = cpu_now()
    stamps[0] = now()
    for start in range(lo, hi, chunk):
        for i in range(start, min(start + chunk, hi)):
            kind = kinds[i]
            key = keys[i]
            try:
                if kind == READ:
                    if read(key) != lookup(key):
                        failed += 1
                elif kind == WRITE:
                    value = values[1 + i % spare]
                    insert(key, value)
                    model[key] = value
                elif kind == GET_MANY:
                    wanted = batch[key : key + BATCH_KEYS]
                    if get_many(wanted) != [lookup(k) for k in wanted]:
                        failed += 1
                elif not scan_ok(scan(key, SCAN_COUNT), key, model):
                    failed += 1
            except Exception:  # noqa: BLE001 - a raising op is a failed op
                failed += 1
            stamps[slot] = now()
            slot += 1
        cpu_marks[mark] = cpu_now()
        mark += 1
    return failed


def sweep_failures(system: Any, model: dict[int, bytes], seed: int) -> int:
    """Re-read a seeded sample of the model through ``get_many``."""
    sample = random.Random(seed).sample(list(model), min(SWEEP_KEYS, len(model)))
    try:
        got = system.get_many(sample)
    except Exception:  # noqa: BLE001
        return len(sample)
    return sum(1 for key, value in zip(sample, got, strict=True) if model[key] != value)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="sizes the timed phase")
    parser.add_argument("--mode", choices=("plain", "spans", "calls"), default="plain")
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--raw-out", type=Path, help="write per-op ns, then per-chunk CPU ns")
    parser.add_argument("--trace-out", type=Path, help="Chrome trace path (spans mode)")
    parser.add_argument("--delay", help="selfcheck: LAYER:MICROSECONDS busy-wait per call")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    stream_ops = max(1, round(workload.ops_per_second * args.seconds))
    preloaded, stream, model = make_inputs(workload, args.seed, stream_ops)
    system = workload.build()
    system.put_many(preloaded, VALUES[0])
    if workload.flush_after_preload:
        system.flush()

    tracer = None
    if args.mode == "spans":
        tracer = Tracer()
        install(system, tracer)
    delay_calls = None
    if args.delay:
        from selfcheck import inject

        layer, __, micros = args.delay.partition(":")
        delay_calls = inject(system, layer, float(micros))

    warmup = workload.warmup_ops
    # The call count covers a prefix of the very same stream.
    ops = min(stream_ops, CALL_OPS) if args.mode == "calls" else stream_ops
    failed = run_ops(system, stream, model, 0, warmup, *timing_buffers(warmup))
    if tracer is not None:
        tracer.clear()
    if delay_calls is not None:
        delay_calls[0] = 0
    stamps, cpu_marks = timing_buffers(ops)
    before = layers.snapshot(system)
    ops_before = layers.shard_ops(system)
    counter = CallCounter() if args.mode == "calls" else None

    gc.collect()
    gc.disable()
    setup_s = time.monotonic() - args.t0
    with counter or nullcontext():
        failed += run_ops(system, stream, model, warmup, warmup + ops, stamps, cpu_marks)
    peak_kib = peak_rss_kib()
    gc.enable()

    after = layers.snapshot(system)
    wall_ns = stamps[ops] - stamps[0]
    latencies = array("q", (stamps[i + 1] - stamps[i] for i in range(ops)))
    cpu_chunks = array("q", (cpu_marks[i + 1] - cpu_marks[i] for i in range(len(cpu_marks) - 1)))
    if args.raw_out is not None:
        args.raw_out.parent.mkdir(parents=True, exist_ok=True)
        with args.raw_out.open("wb") as raw:
            latencies.tofile(raw)
            cpu_chunks.tofile(raw)
    writes = stream.kinds[warmup : warmup + ops].count(WRITE)
    result: dict[str, Any] = {
        "ops": ops,
        "cpu_chunks": len(cpu_chunks),
        "setup_s": setup_s,
        "cpu_us_per_op": sum(cpu_chunks) / ops / 1e3,
        "peak_rss_mb": peak_kib / 1024,
        "counts": layers.count_metrics(
            system, before, after, ops_before, ops, writes, len(model)
        ),
    }
    if tracer is not None:
        result["spans"], result["functions"] = layers.span_metrics(
            system, tracer, before, ops, wall_ns
        )
        if args.trace_out is not None:
            tracer.write_chrome_trace(args.trace_out)
    if counter is not None:
        result["pycalls"] = {
            f"{layer}.pycalls_per_op": calls / ops for layer, calls in counter.per_layer().items()
        }
    if delay_calls is not None:
        result["delay_calls_per_op"] = delay_calls[0] / ops
    failed += sweep_failures(system, model, args.seed)
    result["failed_ops"] = failed
    if hasattr(system, "close"):
        system.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
