"""Subtree selection for release — Algorithm 1 (Section II-C).

The release thread ranks candidate subtrees by *access density*::

    density(subtree) = searches that crossed its root / keys underneath

Low density means little recent use per byte held, so releasing it costs
few future misses per byte reclaimed.  The algorithm keeps a density-
ordered candidate list seeded with the root and repeatedly either

* accepts the lowest-density prefix whose total size lands within
  ``[target, target + margin]``, or
* refines the list with **SplitAndReplace**: the largest candidate whose
  children's densities vary by more than the threshold is replaced by its
  children (heterogeneous subtrees are worth splitting; uniform ones are
  not — releasing them whole keeps the number of released subtrees, and
  hence Index-X mount points, small).

Deviation from the paper noted in DESIGN.md: counters are sampled at every
inner node rather than only above a threshold level; the threshold level is
an overhead optimization that a simulation does not need, and density
values are identical where both exist.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable

from repro.core.interfaces import IndexX, SubtreeNode, SubtreeRef

#: Algorithm 1's "margin": acceptable overshoot above the release target,
#: as a fraction of it, before the algorithm prefers splitting.
MARGIN_FRACTION = 0.10
#: SplitAndReplace splits a candidate whose children's density spread
#: exceeds this fraction of its own density (20 %, Section II-C).
VARIATION_THRESHOLD = 0.20
#: refinement rounds before selection gives up and raises.
_MAX_ITERATIONS = 10_000
#: seed of the ``random`` ablation policy's shuffles.
_RANDOM_SEED = 1234


@dataclass(eq=False)
class _Candidate:
    """A candidate subtree: its node, the path above it and its size.

    Compared by identity: no two candidates share a node.
    """

    node: SubtreeNode
    #: the path from the root down to (excluding) ``node``.
    ancestors: list[SubtreeNode]
    size: int
    #: the densities of its candidate children, in key order (None when
    #: it has none and cannot be split).
    densities: list[float] | None


def _density(node: SubtreeNode) -> float:
    keys = max(1, node.leaf_count)
    return node.access_count / keys


def select_for_release(index_x: IndexX, target_bytes: int) -> list[SubtreeRef]:
    """Run Algorithm 1: pick subtrees totalling ~``target_bytes``.

    Returns refs ordered by increasing density.  The refs are disjoint
    subtrees; detaching them in order is safe.

    One ``subtree_sizes`` walk sizes every candidate.  Selection mutates
    nothing, so whether a candidate can be split, and whether its
    children's densities vary enough to prefer it, are known once it is
    admitted.  ``SplitAndReplace`` therefore keeps two lists in its scan
    order, ``(-size, density, admission seq)`` (the stable by-size sort of
    the density-ordered list), and takes the first heterogeneous
    candidate, else the largest splittable one.  Refs are built only for
    the subtrees returned.
    """
    if target_bytes <= 0:
        return []
    limit = target_bytes + MARGIN_FRACTION * target_bytes
    root = index_x.root_ref().node
    sizes, children = index_x.subtree_sizes(root)
    #: by ``(density, seq)``; ``order`` holds the keys.
    candidates: list[_Candidate] = []
    order: list[tuple[float, int]] = []
    #: by ``(-size, density, seq)``: every candidate with children, and
    #: those whose children's density spread exceeds the threshold.
    splittable: list[tuple[int, float, int, _Candidate]] = []
    heterogeneous: list[tuple[int, float, int, _Candidate]] = []
    admit: Iterable[tuple[SubtreeNode, float]] = [(root, _density(root))]
    ancestors: list[SubtreeNode] = []
    seq = 0

    for __ in range(_MAX_ITERATIONS):
        for node, density in admit:
            below = children.get(node)
            densities = None
            if below:
                # ``_density``, inlined: a call per child would add up.
                densities = [c.access_count / max(1, c.leaf_count) for c in below]
            cand = _Candidate(node, ancestors, sizes[node], densities)
            key = (density, seq)
            pos = bisect.bisect(order, key)
            order.insert(pos, key)
            candidates.insert(pos, cand)
            if densities:
                entry = (-cand.size, density, seq, cand)
                bisect.insort(splittable, entry)
                spread = max(densities) - min(densities)
                if spread > VARIATION_THRESHOLD * max(density, 1e-12):
                    bisect.insort(heterogeneous, entry)
            seq += 1

        total = 0
        for pos, cand in enumerate(candidates):
            total += cand.size
            if total < target_bytes:
                continue
            if total <= limit:
                return _refs(index_x, candidates[: pos + 1])
            break
        else:
            # The whole list is smaller than the target: take everything.
            return _refs(index_x, candidates)

        # SplitAndReplace: replace one candidate by its children.
        if heterogeneous:
            entry = heterogeneous.pop(0)
            del splittable[bisect.bisect_left(splittable, entry)]
        elif splittable:
            entry = splittable.pop(0)
        else:
            # Nothing splittable: accept the overshooting prefix.
            return _refs(index_x, candidates[: pos + 1])
        __, density, chosen_seq, chosen = entry
        pos = bisect.bisect_left(order, (density, chosen_seq))
        del order[pos]
        del candidates[pos]
        admit = zip(children[chosen.node], chosen.densities)
        ancestors = chosen.ancestors + [chosen.node]
    raise RuntimeError("release selection did not converge")


def _refs(index_x: IndexX, chosen: list[_Candidate]) -> list[SubtreeRef]:
    return [index_x.subtree_ref(c.node, c.ancestors) for c in chosen]


class ReleasePolicy:
    """Pluggable release-candidate selection (for the ablation benches).

    ``density`` is the paper's Algorithm 1; ``coarse`` releases the
    lowest-density partitions at a fixed depth without SplitAndReplace
    (an LRU-of-subtrees stand-in); ``random`` picks partitions blindly.
    """

    def __init__(self, kind: str = "density", partition_depth: int = 2) -> None:
        if kind not in ("density", "coarse", "random"):
            raise ValueError(f"unknown release policy {kind!r}")
        self.kind = kind
        self.partition_depth = partition_depth
        import random

        self._rng = random.Random(_RANDOM_SEED)

    def select(self, index_x: IndexX, target_bytes: int) -> list[SubtreeRef]:
        if self.kind == "density":
            return select_for_release(index_x, target_bytes)
        refs = index_x.partition(self.partition_depth)
        if self.kind == "coarse":
            refs = sorted(refs, key=lambda r: _density(r.node))
        else:
            self._rng.shuffle(refs)
        chosen: list[SubtreeRef] = []
        total = 0
        for ref in refs:
            if total >= target_bytes:
                break
            chosen.append(ref)
            total += index_x.subtree_memory(ref.node)
        return chosen
