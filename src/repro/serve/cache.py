"""Serving feature cache, invalidated exactly where an event can change a row.

SSF features are expensive relative to a cache probe (a subgraph walk,
Palette-WL ordering and a matrix unfold per pair), and a serving
workload re-asks about the same hot users while the graph changes only
locally between requests.  Sarkar/Chakrabarti/Jordan's analysis of
dynamic-graph prediction (PAPERS.md) is the justification: link
formation is overwhelmingly a *local* process, so a cached pair's
feature can only change when an edge event lands near it.

:class:`FeatureCache` stores one entry per scored pair, keyed by the
canonical pair label, carrying the feature row, the serving clock it was
extracted at, its **footprint** and its **inner ball**, as the batched
engine reports them.  The footprint is the pair's final grown Def. 3
ball B_h: the row depends on that ball's induced sub-multigraph and the
clock alone.  The inner ball is B_{h-1}, the ball one growth step
before the end, or B_h for a pair whose ball stopped growing (or hit
``max_hop``).  An edge event can change the row only if an endpoint
lies in the inner ball or the event joins two footprint nodes; a new
path of length j from an end node enters through the new edge at a
node within j − 1 hops, so otherwise B_0..B_h and the links inside
them stay as they were.  :meth:`invalidate_nodes` drops exactly those
entries.  A row put without an inner ball uses its footprint as one,
which drops it on any event that touches the footprint.  Rows with an
empty footprint (an end node missing from the snapshot) are not stored.

The store is a handful of arrays, not one object per entry.  Each entry
owns a slot: its row is a row of one float64 block and its clock and
id-run bounds are per-slot array elements.  Inner balls and footprints
live back to back in one flat int32 id array, each entry owning one
contiguous run, its inner ball ``[lo, mid)`` just before its footprint
``[mid, hi)``; a dropped entry's run stays behind as dead ids until the
dead ids outnumber the live ones, when one vectorised pass closes the
gaps.  Most rows stop at h = 1, where the inner ball is the two end
nodes, so a k = 10 entry with a 32-id footprint costs 44·8 + 34·4
bytes (up to twice the ids while dead runs wait), plus its key and LRU
link.

``max_staleness`` (default ``0.0``) bounds how far the serving clock may
move after extraction before an entry is a miss; at ``0.0`` every served
row equals a cold extraction.  A positive bound, or ``None`` for none,
is the one opt-in approximation: the row's ``exp(-θ·Δt)`` factors then
lag the clock (docs/SERVING.md measures the cost).

For exactness audits, each entry can carry a
:func:`~repro.graph.hashing.subgraph_fingerprint` of its footprint; a
probe then recomputes the fingerprint against the *current* snapshot
and treats any mismatch as a miss (``verify=True`` — too expensive for
the hot path, invaluable for tests and canaries).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Iterable

import numpy as np

from repro.graph.csr import CSRSnapshot
from repro.graph.hashing import subgraph_fingerprint
from repro.obs import incr, set_gauge, span
from repro.obs.trace import enabled as obs_enabled

Node = Hashable
PairKey = tuple[str, str]

#: default bound on cached pair entries.  On the co-author serving
#: benchmark (k = 10, 32-id footprints, 2-id inner balls) an entry's row
#: and ids take 488 bytes (624 while dead runs wait), so 10k take
#: 4.9-6.2 MB plus the keys
DEFAULT_CACHE_ENTRIES = 10_000

#: slots and ids the first put reserves; both double as they fill
_FIRST_SLOTS = 64
_FIRST_IDS = 1024


def pair_key(u: Node, v: Node) -> PairKey:
    """Canonical (repr-sorted) cache key of an undirected pair."""
    a, b = repr(u), repr(v)
    return (a, b) if a <= b else (b, a)


@dataclass
class CacheEntry:
    """One cache hit: a copy of the feature row and the clock it was
    extracted at."""

    features: np.ndarray
    present_time: float
    fingerprint: "str | None" = None


class FeatureCache:
    """LRU feature cache with exact inner-ball and footprint invalidation.

    Counters (gated behind ``obs.enable``): ``serve.cache.hits``,
    ``serve.cache.misses``, ``serve.cache.evictions``,
    ``serve.cache.invalidations``, ``serve.cache.stale_drops``,
    ``serve.cache.verify_drops``; gauges ``serve.cache.entries`` and
    ``serve.cache.bytes`` (the row block plus the id array), set on each
    put and invalidation.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_CACHE_ENTRIES,
        *,
        max_staleness: "float | None" = 0.0,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_staleness is not None and max_staleness < 0:
            raise ValueError(f"max_staleness must be >= 0, got {max_staleness}")
        self.max_entries = max_entries
        self.max_staleness = max_staleness
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.clear()

    def __len__(self) -> int:
        return len(self._slot_of)

    # ------------------------------------------------------------------
    # probe / insert
    # ------------------------------------------------------------------
    def get(
        self,
        key: PairKey,
        *,
        present_time: "float | None" = None,
        snapshot: "CSRSnapshot | None" = None,
        verify: bool = False,
    ) -> "CacheEntry | None":
        """The entry for ``key``, or ``None`` on a miss.

        ``present_time`` applies the ``max_staleness`` bound;
        ``verify=True`` (with ``snapshot``) recomputes the footprint
        fingerprint and drops the entry on mismatch.  The entry's row is
        a copy, so later puts cannot change it.
        """
        slot = self._slot_of.get(key)
        if slot is None:
            self.misses += 1
            incr("serve.cache.misses")
            return None
        extracted_at = self._times.item(slot)
        if (
            self.max_staleness is not None
            and present_time is not None
            and abs(present_time - extracted_at) > self.max_staleness
        ):
            self._drop(key, slot)
            self.misses += 1
            incr("serve.cache.stale_drops")
            incr("serve.cache.misses")
            return None
        digest = self._digests[slot]
        if verify and snapshot is not None and digest is not None:
            footprint = self._ids[self._mid[slot] : self._hi[slot]].tolist()
            if subgraph_fingerprint(snapshot, footprint) != digest:
                self._drop(key, slot)
                self.misses += 1
                incr("serve.cache.verify_drops")
                incr("serve.cache.misses")
                return None
        self._slot_of.move_to_end(key)
        self.hits += 1
        incr("serve.cache.hits")
        return CacheEntry(self._rows[slot].copy(), extracted_at, digest)

    def put(
        self,
        key: PairKey,
        features: np.ndarray,
        footprint: "Iterable[int]",
        present_time: float,
        *,
        inner: "Iterable[int] | None" = None,
        snapshot: "CSRSnapshot | None" = None,
        fingerprint: bool = False,
    ) -> None:
        """Insert/replace one entry (none for an empty ``footprint``);
        evicts the LRU entry past the bound.

        ``footprint`` and ``inner`` hold snapshot node ids (int32, like
        CSR indices); arrays are copied in as they are, duplicates and
        order included.  ``inner`` is the row's inner ball (module
        docstring); without one, the footprint stands in for it.
        """
        ids = _id_array(footprint)
        inner_ids = ids if inner is None else _id_array(inner)
        row = np.asarray(features)
        if ids.size and row.shape != self._rows.shape[1:]:
            self._reshape_rows(row)
        slot = self._slot_of.pop(key, None)
        if slot is not None:
            self._release(slot)
        if not ids.size:
            self._compact_if_sparse()
            return
        if len(self._slot_of) >= self.max_entries:
            _, lru = self._slot_of.popitem(last=False)
            self._release(lru)
            self.evictions += 1
            incr("serve.cache.evictions")
        self._compact_if_sparse()
        slot = self._free.pop() if self._free else self._new_slot()
        lo = self._end
        mid = lo + inner_ids.size
        hi = mid + ids.size
        if hi > self._ids.size:
            self._ids = _regrown(
                self._ids, max(2 * self._ids.size, hi, _FIRST_IDS), lo
            )
        self._ids[lo:mid] = inner_ids
        self._ids[mid:hi] = ids
        self._end = hi
        self._lo[slot] = lo
        self._mid[slot] = mid
        self._hi[slot] = hi
        self._rows[slot] = row
        self._times[slot] = present_time
        self._keys[slot] = key
        self._digests[slot] = (
            subgraph_fingerprint(snapshot, ids.tolist())
            if fingerprint and snapshot is not None
            else None
        )
        self._slot_of[key] = slot
        if obs_enabled():
            self._set_gauges()

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate_nodes(
        self, events: "Iterable[tuple[int, int]]"
    ) -> list[PairKey]:
        """Drop every entry that one of the edge ``events`` can change.

        ``events`` are the ingested events' ``(u_id, v_id)`` snapshot id
        pairs.  An entry is dropped when an event endpoint lies in its
        inner ball, or when one event joins two nodes of its footprint
        (module docstring); every other entry equals a cold extraction
        at an unchanged clock.  Returns the dropped keys (sorted) so
        callers can cascade the invalidation to derived caches.

        One membership pass over the id array (live and dead runs) finds
        the positions holding an event endpoint; two binary searches per
        slot count each inner run's hits.  The joined-footprint test then
        runs once per event, over those positions only.  An inverted node
        index would visit only the dropped entries, but would charge
        every put and drop one update per footprint node.
        """
        # under the ingesting request's serve.ingest span this span is
        # a leaf of that request's trace
        with span("serve.cache_invalidate") as inv_span:
            pairs = {(int(u), int(v)) for u, v in events}
            dropped: list[PairKey] = []
            if pairs and self._slot_of:
                ids = self._ids[: self._end]
                at = np.flatnonzero(np.isin(ids, np.array(list(pairs))))
                held = ids[at]
                lo, mid, hi = self._lo, self._mid, self._hi
                # an event endpoint in the inner ball
                hit = _runs_holding(at, lo, mid)
                # one event joining two footprint nodes
                for u, v in pairs:
                    hit |= _runs_holding(at[held == u], mid, hi) & _runs_holding(
                        at[held == v], mid, hi
                    )
                slots = np.flatnonzero(hit).tolist()
                dropped = sorted(self._keys[slot] for slot in slots)
                for slot in slots:
                    del self._slot_of[self._keys[slot]]
                    self._release(slot)
                self._compact_if_sparse()
            self.invalidations += len(dropped)
            incr("serve.cache.invalidations", len(dropped))
            inv_span.tags.update(dropped=len(dropped))
        if obs_enabled():
            self._set_gauges()
        return dropped

    def clear(self) -> None:
        """Drop every entry and free the store (counters are kept)."""
        # LRU order, oldest first: key -> slot
        self._slot_of: OrderedDict[PairKey, int] = OrderedDict()
        # per slot: the feature row, the extraction clock and the
        # [lo, hi) run of the entry's ids in ``_ids``, its inner ball
        # [lo, mid) and its footprint [mid, hi); a free slot's run is
        # empty (lo = mid = hi) and its key None
        self._rows = np.empty((0, 0), dtype=np.float64)
        self._times = np.empty(0, dtype=np.float64)
        self._lo = np.empty(0, dtype=np.int64)
        self._mid = np.empty(0, dtype=np.int64)
        self._hi = np.empty(0, dtype=np.int64)
        self._keys: list["PairKey | None"] = []
        self._digests: list["str | None"] = []
        self._free: list[int] = []
        # entry runs back to back; [0, _end) is in use, _dead ids of it
        # belong to dropped entries
        self._ids = np.empty(0, dtype=np.int32)
        self._end = 0
        self._dead = 0

    # ------------------------------------------------------------------
    # store upkeep
    # ------------------------------------------------------------------
    def _drop(self, key: PairKey, slot: int) -> None:
        del self._slot_of[key]
        self._release(slot)
        self._compact_if_sparse()

    def _release(self, slot: int) -> None:
        self._dead += int(self._hi[slot] - self._lo[slot])
        self._lo[slot] = 0
        self._mid[slot] = 0
        self._hi[slot] = 0
        self._keys[slot] = None
        self._digests[slot] = None
        self._free.append(slot)

    def _new_slot(self) -> int:
        """A never-used slot, growing the per-slot arrays when full."""
        slot = len(self._keys)
        if slot == self._times.size:
            size = min(self.max_entries, max(2 * slot, _FIRST_SLOTS))
            self._rows = _regrown(self._rows, size, slot)
            self._times = _regrown(self._times, size, slot)
            self._lo = _regrown(self._lo, size, slot)
            self._mid = _regrown(self._mid, size, slot)
            self._hi = _regrown(self._hi, size, slot)
        self._keys.append(None)
        self._digests.append(None)
        return slot

    def _reshape_rows(self, row: np.ndarray) -> None:
        """Size the row block for ``row``'s width (only while empty)."""
        if row.ndim != 1 or self._slot_of:
            raise ValueError(
                f"feature row of shape {row.shape} does not fit the cached "
                f"rows of shape {self._rows.shape[1:]}"
            )
        self._rows = np.empty((self._times.size, row.size), dtype=np.float64)

    def _compact_if_sparse(self) -> None:
        """Close the dead runs' gaps once they outnumber the live ids.

        Live runs slide down in slot order, so the used prefix is at
        most twice the live ids (plus the run being added).
        """
        live_ids = self._end - self._dead
        if self._dead <= live_ids:
            return
        size = self._hi - self._lo  # 0 for free slots
        new_lo = np.cumsum(size) - size
        # the id landing at position p comes from p + (lo - new_lo) of
        # its run
        source = np.repeat(self._lo - new_lo, size)
        source += np.arange(live_ids)
        self._ids[:live_ids] = self._ids[source]
        self._mid += new_lo - self._lo
        self._lo = new_lo
        self._hi = new_lo + size
        self._end = live_ids
        self._dead = 0

    def _set_gauges(self) -> None:
        set_gauge("serve.cache.entries", float(len(self._slot_of)))
        set_gauge("serve.cache.bytes", float(self._rows.nbytes + self._ids.nbytes))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0

    def stats(self) -> dict[str, float]:
        return {
            "entries": float(len(self._slot_of)),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "hit_rate": self.hit_rate,
            "evictions": float(self.evictions),
            "invalidations": float(self.invalidations),
        }


def _runs_holding(
    positions: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Per run ``[lo[i], hi[i])`` of the id array: does it hold one of
    the (sorted) ``positions``?"""
    return np.searchsorted(positions, hi) != np.searchsorted(positions, lo)


def _id_array(ids: "Iterable[int]") -> np.ndarray:
    """``ids`` as an array: an array as it is, anything else as int64."""
    if isinstance(ids, np.ndarray):
        return ids
    return np.fromiter(map(int, ids), dtype=np.int64)


def _regrown(array: np.ndarray, size: int, keep: int) -> np.ndarray:
    """``array`` with ``size`` leading rows, the first ``keep`` copied."""
    out = np.zeros((size,) + array.shape[1:], dtype=array.dtype)
    out[:keep] = array[:keep]
    return out
