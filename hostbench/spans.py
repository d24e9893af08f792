"""Span tracing and Python-call counting, installed from outside the program.

Nothing under ``src/`` knows it is being traced: :func:`install` replaces
the public boundary functions of each layer with timing closures, as
instance attributes on the live objects (plus two class/module-level
patches where objects are created on the fly).  A span is (function,
start, end, parent); spans are appended to ``array`` buffers during the
run and aggregated and dumped afterwards.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

#: the layers, which are the ``repro`` sub-packages of the same names.
LAYERS = ("shard", "systems", "core", "art", "lsm", "diskbtree", "cache", "sim")

#: background-scheduler task name -> layer that owns the work it runs.
TASK_LAYER = {
    "release": "core",
    "preclean": "core",
    "lsm_compaction": "lsm",
    "pool_writeback": "diskbtree",
    "rebalance": "shard",
    "rebalance_drain": "shard",
    "budget": "shard",
}

#: spans written to the Chrome trace (the aggregates always cover all).
CHROME_SPAN_LIMIT = 50_000


class Tracer:
    """Span buffers plus the closures that fill them."""

    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []  # fid -> (layer, function)
        self._fid_of: dict[tuple[str, str], int] = {}
        self.fids = array("H")
        self.parents = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self.current = -1
        #: cumulative simulated (cpu, background, disk) ns after each
        #: driver-issued op, sampled by the root spans.
        self.sim_cpu = array("d")
        self.sim_bg = array("d")
        self.sim_disk = array("d")

    def _fid(self, layer: str, name: str) -> int:
        """One id per (layer, function): the shards of a fleet share it."""
        key = (layer, name)
        if key not in self._fid_of:
            self._fid_of[key] = len(self.names)
            self.names.append(key)
        return self._fid_of[key]

    def traced(self, fn: Callable[..., Any], layer: str, name: str) -> Callable[..., Any]:
        fid = self._fid(layer, name)
        fids, parents, starts, ends = self.fids, self.parents, self.starts, self.ends
        now = perf_counter_ns

        def span(*args: Any, **kwargs: Any) -> Any:
            index = len(fids)
            parent = self.current
            self.current = index
            fids.append(fid)
            parents.append(parent)
            ends.append(0)
            starts.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = now()
                self.current = parent

        return span

    def traced_root(
        self, fn: Callable[..., Any], layer: str, name: str, engines: list[Any]
    ) -> Callable[..., Any]:
        """A span that also samples the simulated clocks when it closes."""
        span = self.traced(fn, layer, name)
        clocks = [engine.clock for engine in engines]
        disks = [engine.disk for engine in engines]
        sim_cpu, sim_bg, sim_disk = self.sim_cpu, self.sim_bg, self.sim_disk

        def root(*args: Any, **kwargs: Any) -> Any:
            try:
                return span(*args, **kwargs)
            finally:
                cpu = bg = busy = 0.0
                for clock in clocks:
                    cpu += clock.cpu_ns
                    bg += clock.background_ns
                for disk in disks:
                    busy += disk.busy_ns
                sim_cpu.append(cpu)
                sim_bg.append(bg)
                sim_disk.append(busy)

        return root

    def wrap(self, obj: Any, layer: str, names: tuple[str, ...]) -> None:
        label = type(obj).__name__
        for name in names:
            setattr(obj, name, self.traced(getattr(obj, name), layer, f"{label}.{name}"))

    def clear(self) -> None:
        """Forget the spans so far (the warm-up's); the closures stay valid."""
        for buffer in (self.fids, self.parents, self.starts, self.ends,
                       self.sim_cpu, self.sim_bg, self.sim_disk):  # fmt: skip
            del buffer[:]
        self.current = -1

    # -- after the run -------------------------------------------------
    def summary(self) -> dict[str, dict[str, Any]]:
        """Per function: layer, calls, inclusive ns, self ns."""
        count = len(self.names)
        calls = [0] * count
        total = [0] * count
        self_ns = [0] * count
        fids, parents, starts, ends = self.fids, self.parents, self.starts, self.ends
        for i in range(len(fids)):
            fid = fids[i]
            duration = ends[i] - starts[i]
            calls[fid] += 1
            total[fid] += duration
            self_ns[fid] += duration
            parent = parents[i]
            if parent >= 0:
                self_ns[fids[parent]] -= duration
        return {
            name: {
                "layer": layer,
                "calls": calls[fid],
                "total_ns": total[fid],
                "self_ns": self_ns[fid],
            }
            for fid, (layer, name) in enumerate(self.names)
        }

    def root_ns(self) -> int:
        """Inclusive time of the spans the driver called directly."""
        parents, starts, ends = self.parents, self.starts, self.ends
        return sum(ends[i] - starts[i] for i in range(len(parents)) if parents[i] < 0)

    def write_chrome_trace(self, path: Path) -> None:
        """Dump the first spans as Chrome trace events (open in Perfetto)."""
        limit = min(len(self.fids), CHROME_SPAN_LIMIT)
        origin = self.starts[0] if limit else 0
        events = []
        for i in range(limit):
            layer, name = self.names[self.fids[i]]
            events.append(
                {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "ts": (self.starts[i] - origin) / 1e3,
                    "dur": (self.ends[i] - self.starts[i]) / 1e3,
                    "pid": 1,
                    "tid": 1,
                    "args": {"span": i, "parent": self.parents[i]},
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, out)


_KV_VERBS = (
    "insert", "read", "delete", "scan", "put_many", "get_many", "delete_many",
    "flush", "set_memory_limit",
)  # fmt: skip
_DRIVER_VERBS = ("insert", "read", "scan", "get_many")


def engines_of(system: Any) -> list[Any]:
    """The single-engine systems under ``system`` (itself, or its shards)."""
    return list(system.shards) if hasattr(system, "shards") else [system]


def _wrap_tasks(tracer: Tracer, scheduler: Any) -> None:
    for task in scheduler.tasks:
        if task.runner is not None:
            layer = TASK_LAYER[task.name]
            task.runner = tracer.traced(task.runner, layer, f"task:{task.name}")


def install(system: Any, tracer: Tracer) -> None:
    """Wrap every layer boundary reachable from ``system``."""
    import repro.diskbtree.bufferpool as bufferpool
    from repro.lsm.sstable import SSTable
    from repro.lsm.store import LSMStore

    engines = engines_of(system)
    sharded = engines != [system]
    # The verbs the driver calls directly get root spans further down.
    inner_verbs = _KV_VERBS if sharded else tuple(v for v in _KV_VERBS if v not in _DRIVER_VERBS)
    for engine in engines:
        tracer.wrap(engine, "systems", inner_verbs)
        index = engine.index
        tracer.wrap(
            index,
            "core",
            ("insert", "get", "scan", "delete", "release_cycle", "flush", "set_memory_limit"),
        )
        tracer.wrap(index.precleaner, "core", ("run_pass",))
        tracer.wrap(index.x, "art", ("insert", "search", "scan", "delete"))
        store = index.y
        if isinstance(store, LSMStore):
            tracer.wrap(store, "lsm", ("get", "put_batch", "scan", "flush", "delete"))
            for cache in (store.block_cache, store.row_cache):
                if cache is not None:
                    tracer.wrap(cache, "cache", ("get", "put"))
        else:
            tree = store.tree
            tracer.wrap(tree, "diskbtree", ("get", "put", "put_batch", "scan", "delete"))
            tracer.wrap(tree.pool, "diskbtree", ("get_page",))
            tracer.wrap(
                tree.pool.policy, "cache", ("on_hit", "on_insert", "on_remove", "evict_candidate")
            )  # fmt: skip
        tracer.wrap(engine.disk, "sim", ("read", "write"))
        tracer.wrap(engine.runtime.scheduler, "sim", ("tick", "run_inline"))
        _wrap_tasks(tracer, engine.runtime.scheduler)
    if sharded:
        tracer.wrap(system, "shard", ("delete", "put_many"))
        tracer.wrap(system.runtime.scheduler, "sim", ("tick", "run_inline"))
        _wrap_tasks(tracer, system.runtime.scheduler)
    # A driver verb closes one op: its span also samples simulated time.
    root_layer = "shard" if sharded else "systems"
    label = type(system).__name__
    for name in _DRIVER_VERBS:
        root = tracer.traced_root(getattr(system, name), root_layer, f"{label}.{name}", engines)
        setattr(system, name, root)
    # SSTables and decoded pages are created on the fly, so their entry
    # points are patched where the callers look them up.
    SSTable.get = tracer.traced(SSTable.get, "lsm", "SSTable.get")  # type: ignore[method-assign]
    for codec in ("encode_page", "decode_page", "copy_page"):
        setattr(bufferpool, codec, tracer.traced(getattr(bufferpool, codec), "diskbtree", codec))


def layer_of_file(filename: str) -> str | None:
    """Layer owning a source file: its ``repro`` sub-package, if listed."""
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0:
        return None
    package = filename[at + len(marker) :].split("/", 1)[0]
    return package if package in LAYERS else None


class CallCounter:
    """Counts Python-level function calls per layer under ``sys.setprofile``.

    The count is a property of the code and the inputs alone, so it must
    repeat exactly from run to run: the deterministic stand-in for time.
    """

    def __init__(self) -> None:
        self.by_code: dict[Any, int] = {}

    def _profile(self, frame: Any, event: str, arg: Any) -> None:
        if event == "call":
            code = frame.f_code
            by_code = self.by_code
            by_code[code] = by_code.get(code, 0) + 1

    def __enter__(self) -> "CallCounter":
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc: Any) -> None:
        sys.setprofile(None)

    def per_layer(self) -> dict[str, int]:
        counts = dict.fromkeys(LAYERS, 0)
        for code, calls in self.by_code.items():
            layer = layer_of_file(code.co_filename)
            if layer is not None:
                counts[layer] += calls
        return counts
