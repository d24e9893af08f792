"""Index pre-cleaning (Section II-B, Figure 2).

A periodic pass writes the dirty keys of one *cold* key region back to
Index Y so that later subtree releases find clean subtrees and complete
instantly.  Cold regions are found with the two-bit check-back protocol on
the inner-node list:

====  =============================================================
DC    meaning / action when the scan stops at a node
====  =============================================================
00    clean and quiet — nothing to do, keep scanning
10    dirty, first sighting — clear D, set C (schedule a check-back)
11    dirty again since the last pass — intensive insert region:
      clear D, skip it, let it absorb more writes
01    no inserts since the check-back — **select for cleaning**
====  =============================================================

The pass is triggered by an insert-count timer and suspends after one
cleaning to retain the spatial locality of the write-back (one key region
at a time).  The inner-node list is rebuilt per pass — a deliberate
simplification of the paper's "reconstruct on node add/remove" rule that
has identical observable behaviour, because the paper's scan likewise makes
at most one pass per timer expiry.

The timer lives in the engine runtime's
:class:`~repro.sim.runtime.BackgroundScheduler`: :class:`~repro.core.indexy.
IndeXY` registers a periodic task paced at ``preclean_interval_inserts``
foreground inserts, and the scheduler invokes :meth:`PreCleaner.run_pass`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.config import IndeXYConfig
from repro.core.interfaces import IndexX, IndexY, SubtreeNode, SubtreeRef
from repro.sim.stats import StatCounters

#: minimum number of key regions the pre-cleaner wants on its list
#: (region granularity control, Section II-B).
MIN_PARTITION_REGIONS = 16


class PreCleaner:
    """The pre-cleaning "thread" (a paced task on the background scheduler)."""

    def __init__(
        self,
        index_x: IndexX,
        index_y: IndexY,
        config: IndeXYConfig,
        stats: StatCounters,
        check_back: bool = True,
    ) -> None:
        self.index_x = index_x
        self.index_y = index_y
        self.config = config
        self.stats = stats
        #: ablation switch: without check-back, the scan cleans the first
        #: dirty node it meets, insert-hot or not.
        self.check_back = check_back
        self._cursor = 0
        self._depth = config.partition_depth
        #: optional :class:`~repro.check.sanitizer.CheckBackAuditor`-shaped
        #: observer of every C-bit transition (set by IndeXY when
        #: ``debug_checks`` is enabled; duck-typed to keep core free of a
        #: check dependency).
        self.auditor: Optional[Any] = None

    def _set_candidate(self, node: SubtreeNode) -> None:
        node.clean_candidate = True
        if self.auditor is not None:
            self.auditor.note_set(node)

    def _clear_candidate(self, node: SubtreeNode) -> None:
        node.clean_candidate = False
        if self.auditor is not None:
            self.auditor.note_clear(node)

    def _region_list(self) -> list[SubtreeRef]:
        """The inner-node list, at an adaptively chosen level.

        The paper adjusts the list's tree level so each key region is
        "sufficiently large to accumulate dirty keys for batching writes"
        (Section II-B).  Path compression can collapse the top of the tree,
        so the level is chosen by walking deeper until the partition has at
        least ``MIN_PARTITION_REGIONS`` regions (or the tree runs out of
        depth).
        """
        refs = self.index_x.partition(self._depth)
        while len(refs) < MIN_PARTITION_REGIONS and self._depth < 12:
            deeper = self.index_x.partition(self._depth + 1)
            if len(deeper) == len(refs):
                break
            # Hygiene: nodes leaving the region list keep their C bit
            # forever otherwise — clear it so later checks (and any future
            # depth choice) see only bits the current list's scans set.
            kept = {id(ref.node) for ref in deeper}
            for ref in refs:
                if id(ref.node) not in kept and ref.node.clean_candidate:
                    self._clear_candidate(ref.node)
            self._depth += 1
            refs = deeper
        # The depth sticks across passes so the check-back C bits survive
        # between scans even as the tree grows and shrinks.
        return refs

    def run_pass(self) -> bool:
        """One scan over the inner-node list; returns True if anything was
        cleaned.

        The pass cleans quiet ('01') regions one at a time until it has
        written roughly one timer-interval's worth of keys — pace-matching
        the insert rate so releases keep finding clean subtrees.  (The
        paper suspends after a single region; at paper scale one region
        holds millions of keys, so one region *is* an interval's worth.
        At simulation scale regions are small and the quota generalizes
        the same behaviour.)
        """
        refs = self._region_list()
        if not refs:
            return False
        quota = self.config.preclean_interval_inserts
        n = len(refs)
        start = self._cursor % n
        fallbacks: list[tuple[int, object]] = []
        written = 0
        cleaned_any = False
        for step in range(n):
            ref = refs[(start + step) % n]
            node = ref.node
            if not self.check_back:
                if node.dirty:
                    written += self._clean(ref)
                    cleaned_any = True
                    if written >= quota:
                        self._cursor = (start + step + 1) % n
                        return True
                continue
            # The protocol's D bit is the node's *activity* bit (set on
            # every insert); the separate ``dirty`` bit keeps tracking real
            # unflushed data so collection stays sound.
            if node.activity and not node.clean_candidate:
                # First sighting: schedule a check-back.
                node.activity = False
                self._set_candidate(node)
                self.stats.bump("preclean_candidates")
            elif node.activity and node.clean_candidate:
                # Re-dirtied since last pass: intensive inserts, skip.
                node.activity = False
                self.stats.bump("preclean_skips_hot")
                if node.dirty:
                    fallbacks.append((step, ref))
            elif not node.activity and node.clean_candidate:
                # Quiet since the check-back: clean this region.
                written += self._clean(ref)
                cleaned_any = True
                if written >= quota:
                    self._cursor = (start + step + 1) % n
                    return True
        # Starvation fallback (engineering addition, see DESIGN.md): under
        # uniformly random inserts every region stays active and the
        # check-back never finds a quiet one.  Clean at most ONE skipped
        # region per pass, round-robin: enough to keep dirty data flowing
        # to Y, but bounded so half-accumulated regions are not flushed
        # over and over (which would double Index Y's page write volume).
        if not cleaned_any and fallbacks:
            step, ref = fallbacks[0]
            written += self._clean(ref)
            cleaned_any = True
            self.stats.bump("preclean_fallbacks")
            self._cursor = (start + step + 1) % n
        if not cleaned_any:
            self._cursor = start
        return cleaned_any

    def _clean(self, ref: SubtreeRef) -> int:
        """Write the region's dirty keys to Y and mark the subtree clean.

        Returns the number of keys written.
        """
        batch = list(self.index_x.iter_dirty_entries(ref.node))
        if batch:
            # Entries come out of the ordered tree already key-sorted: the
            # spatially-local, Y-friendly write-back the paper aims for.
            self.index_y.put_batch(batch)
            self.stats.bump("preclean_writebacks")
            self.stats.bump("preclean_keys_written", len(batch))
        self.index_x.clear_dirty(ref.node)
        self._clear_candidate(ref.node)
        self.stats.bump("preclean_cleanings")
        return len(batch)
