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


@dataclass
class _Candidate:
    """A candidate subtree with its cached size and density."""

    ref: SubtreeRef
    size: int
    density: float
    #: child candidates, built the first time a split round inspects this
    #: one; selection mutates nothing, so they hold for every later round.
    children: list[_Candidate] | None = None


def _density(node: SubtreeNode) -> float:
    keys = max(1, node.leaf_count)
    return node.access_count / keys


def _make_candidate(index_x: IndexX, ref: SubtreeRef) -> _Candidate:
    return _Candidate(ref=ref, size=index_x.subtree_memory(ref.node), density=_density(ref.node))


def select_for_release(index_x: IndexX, target_bytes: int) -> list[SubtreeRef]:
    """Run Algorithm 1: pick subtrees totalling ~``target_bytes``.

    Returns refs ordered by increasing density.  The refs are disjoint
    subtrees; detaching them in order is safe.
    """
    if target_bytes <= 0:
        return []
    margin = MARGIN_FRACTION * target_bytes
    candidates = [_make_candidate(index_x, index_x.root_ref())]

    for __ in range(_MAX_ITERATIONS):
        total = 0
        chosen_end = None
        for pos, cand in enumerate(candidates):
            total += cand.size
            if total < target_bytes:
                continue
            if total <= target_bytes + margin:
                chosen_end = pos
            break
        else:
            # The whole list is smaller than the target: take everything.
            return [c.ref for c in candidates]
        if chosen_end is not None:
            return [c.ref for c in candidates[: chosen_end + 1]]
        replaced = _split_and_replace(index_x, candidates)
        if not replaced:
            # Nothing splittable: accept the overshooting prefix.
            return [c.ref for c in candidates[: pos + 1]]
    raise RuntimeError("release selection did not converge")


def _split_and_replace(index_x: IndexX, candidates: list[_Candidate]) -> bool:
    """Replace one node with its children, preserving density order.

    Node choice follows Algorithm 1's ``SplitAndReplace``: scan candidates
    from largest size; pick the first whose children's density spread
    exceeds ``VARIATION_THRESHOLD`` of the parent's density; if none
    qualifies, take the largest splittable node.  Returns False when no
    candidate has children (the list cannot be refined further).
    """
    by_size = sorted(candidates, key=lambda c: c.size, reverse=True)
    chosen = None
    fallback = None
    for cand in by_size:
        children = cand.children
        if children is None:
            children = cand.children = [
                _make_candidate(index_x, ref) for ref in index_x.child_refs(cand.ref)
            ]
        if not children:
            continue
        if fallback is None:
            fallback = cand
        densities = [c.density for c in children]
        spread = max(densities) - min(densities)
        if spread > VARIATION_THRESHOLD * max(cand.density, 1e-12):
            chosen = cand
            break
    if chosen is None:
        chosen = fallback
    if chosen is None:
        return False

    candidates.remove(chosen)
    keys = [c.density for c in candidates]
    for child in chosen.children:
        pos = bisect.bisect(keys, child.density)
        candidates.insert(pos, child)
        keys.insert(pos, child.density)
    return True


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
