"""``--selfcheck``: prove that ``cpu_us_per_op`` responds to each layer.

For each layer one boundary function is wrapped, from here, with a busy
wait of ``d`` microseconds per call.  On a workload that exercises the
layer ``cpu_us_per_op`` must rise by calls-per-op x ``d`` (within 25 %);
on a workload that bypasses it the metric must stay within 2 %.  A metric
that fails either way is not measuring what the benchmark says it does.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Callable

from spans import engines_of

#: layer, delay in microseconds, exercising workload, bypassing workload.
CASES: tuple[tuple[str, float, str, str | None], ...] = (
    ("art", 3.0, "mem_point", None),  # every workload has an Index X
    ("lsm", 20.0, "spill_read", "mem_point"),
    ("diskbtree", 5.0, "page_mixed", "spill_read"),
    ("shard", 20.0, "serve_skew", "mem_point"),
)
RISE_TOLERANCE = 0.25
BYPASS_TOLERANCE = 0.02


def _targets(system: Any, layer: str) -> list[tuple[Any, str]]:
    """The (object, method) pairs to slow down; empty if the layer is absent."""
    # Imported here: run.py imports this module for ``check`` and must not
    # load the program (its memory would show in the children's start).
    from repro.lsm.store import LSMStore

    if layer == "shard":
        return [(system, "read")] if hasattr(system, "shards") else []
    targets = []
    for engine in engines_of(system):
        store = engine.index.y
        if layer == "art":
            targets.append((engine.index.x, "search"))
        elif layer == "lsm" and isinstance(store, LSMStore):
            targets.append((store, "get"))
        elif layer == "diskbtree" and not isinstance(store, LSMStore):
            targets.append((store.tree.pool, "get_page"))
    return targets


def inject(system: Any, layer: str, micros: float) -> list[int]:
    """Slow ``layer``'s boundary by ``micros`` per call; returns the call counter."""
    calls = [0]
    wait_ns = int(micros * 1e3)
    now = perf_counter_ns

    def slowed(fn: Callable[..., Any]) -> Callable[..., Any]:
        def slow(*args: Any, **kwargs: Any) -> Any:
            calls[0] += 1
            until = now() + wait_ns
            while now() < until:
                pass
            return fn(*args, **kwargs)

        return slow

    for obj, name in _targets(system, layer):
        setattr(obj, name, slowed(getattr(obj, name)))
    return calls


def check(measure: Callable[[str, str | None, str], tuple[float, float, float]]) -> bool:
    """Run every case and print the verdicts.

    ``measure(workload, delay_a, delay_b)`` runs the two variants as
    interleaved repeats, so that both see the same stretch of host
    noise, and returns (cpu_us_per_op of a, of b, b's wrapped calls/op).
    On the exercising workload variant a is the same wrapper with a
    zero wait: the rise is then the busy wait alone, not the wrapper.
    """
    passed = True
    for layer, micros, exercising, bypassing in CASES:
        delay = f"{layer}:{micros}"
        base_us, slow_us, calls_per_op = measure(exercising, f"{layer}:0", delay)
        rise = slow_us - base_us
        predicted = calls_per_op * micros
        ok = predicted > 0 and abs(rise - predicted) <= RISE_TOLERANCE * predicted
        passed &= ok
        print(
            f"selfcheck {layer:10s} on  {exercising:11s} +{micros:g} us x {calls_per_op:.3f} "
            f"calls/op: cpu_us_per_op {base_us:.3f} -> {slow_us:.3f}, rise {rise:.3f} vs "
            f"predicted {predicted:.3f}  {'ok' if ok else 'FAIL'}"
        )
        if bypassing is None:
            continue
        base_us, slow_us, calls_per_op = measure(bypassing, None, delay)
        drift = slow_us / base_us - 1
        ok = calls_per_op == 0 and abs(drift) < BYPASS_TOLERANCE
        passed &= ok
        print(
            f"selfcheck {layer:10s} off {bypassing:11s} ({calls_per_op:.3f} calls/op): "
            f"cpu_us_per_op {base_us:.3f} -> {slow_us:.3f}, drift {drift:+.2%}  "
            f"{'ok' if ok else 'FAIL'}"
        )
    return passed
