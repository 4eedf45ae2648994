"""Serving feature cache, invalidated on each row's grown footprint.

SSF features are expensive relative to a cache probe (a subgraph walk,
Palette-WL ordering and a matrix unfold per pair), and a serving
workload re-asks about the same hot users while the graph changes only
locally between requests.  Sarkar/Chakrabarti/Jordan's analysis of
dynamic-graph prediction (PAPERS.md) is the justification: link
formation is overwhelmingly a *local* process, so a cached pair's
feature can only change when an edge event lands near it.

:class:`FeatureCache` stores one entry per scored pair, keyed by the
canonical pair label, carrying the feature row, the serving clock it was
extracted at and its **footprint**: the node ids of the pair's final
grown Def. 3 ball, as the batched engine reports it.  The row depends on
that ball's induced sub-multigraph and the clock alone, and an edge
between two nodes outside the ball cannot shorten a path into it, so an
event can change the row only if an endpoint lies in the footprint;
:meth:`invalidate_nodes` drops exactly those entries.  Rows with an
empty footprint (an end node missing from the snapshot) are not stored.

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
from repro.obs import incr, span

Node = Hashable
PairKey = tuple[str, str]

#: default bound on cached pair entries.  On the co-author serving
#: benchmark (k = 10, 32-id footprints) an entry takes about 3 KB by
#: ``sys.getsizeof``, so 10k hold about 30 MB
DEFAULT_CACHE_ENTRIES = 10_000


def pair_key(u: Node, v: Node) -> PairKey:
    """Canonical (repr-sorted) cache key of an undirected pair."""
    a, b = repr(u), repr(v)
    return (a, b) if a <= b else (b, a)


@dataclass
class CacheEntry:
    """One cached pair: the feature row and the node ids it depends on."""

    features: np.ndarray
    footprint: "frozenset[int]"
    present_time: float
    fingerprint: "str | None" = None


class FeatureCache:
    """LRU feature cache with footprint invalidation.

    Counters (gated behind ``obs.enable``): ``serve.cache.hits``,
    ``serve.cache.misses``, ``serve.cache.evictions``,
    ``serve.cache.invalidations``, ``serve.cache.stale_drops``,
    ``serve.cache.verify_drops``.
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
        self._entries: OrderedDict[PairKey, CacheEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

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
        fingerprint and drops the entry on mismatch.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            incr("serve.cache.misses")
            return None
        if (
            self.max_staleness is not None
            and present_time is not None
            and abs(present_time - entry.present_time) > self.max_staleness
        ):
            del self._entries[key]
            self.misses += 1
            incr("serve.cache.stale_drops")
            incr("serve.cache.misses")
            return None
        if verify and snapshot is not None and entry.fingerprint is not None:
            if subgraph_fingerprint(snapshot, entry.footprint) != entry.fingerprint:
                del self._entries[key]
                self.misses += 1
                incr("serve.cache.verify_drops")
                incr("serve.cache.misses")
                return None
        self._entries.move_to_end(key)
        self.hits += 1
        incr("serve.cache.hits")
        return entry

    def put(
        self,
        key: PairKey,
        features: np.ndarray,
        footprint: "Iterable[int]",
        present_time: float,
        *,
        snapshot: "CSRSnapshot | None" = None,
        fingerprint: bool = False,
    ) -> None:
        """Insert/replace one entry (none for an empty ``footprint``);
        evicts LRU entries past the bound."""
        self._entries.pop(key, None)
        node_ids = (
            footprint
            if isinstance(footprint, frozenset)
            else frozenset(map(int, footprint))
        )
        if not node_ids:
            return
        digest = (
            subgraph_fingerprint(snapshot, node_ids)
            if fingerprint and snapshot is not None
            else None
        )
        self._entries[key] = CacheEntry(
            features=features,
            footprint=node_ids,
            present_time=float(present_time),
            fingerprint=digest,
        )
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            incr("serve.cache.evictions")

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate_nodes(self, node_ids: "Iterable[int]") -> list[PairKey]:
        """Drop every entry whose footprint contains any of ``node_ids``.

        The serving loop calls this with the endpoints of each ingested
        edge event; an event can change a row only if an endpoint lies
        in the row's footprint.  Returns the dropped keys (sorted) so
        callers can cascade the invalidation to derived caches.

        One pass over the entries, each a set-disjointness test of at
        most ``len(node_ids)`` lookups.  An inverted node index would
        visit only the dropped entries, but it charges every put and
        drop one set update per footprint node.  On the co-author
        serving benchmark (about 8k entries, 4 events per ingest) the
        pass plus the puts cost about 20 ms per ingest period; the index
        upkeep cost about 65 ms.
        """
        # under the ingesting request's serve.ingest span this span is
        # a leaf of that request's trace
        with span("serve.cache_invalidate") as inv_span:
            touched = frozenset(map(int, node_ids))
            dropped = sorted(
                key
                for key, entry in self._entries.items()
                if not touched.isdisjoint(entry.footprint)
            )
            for key in dropped:
                del self._entries[key]
            self.invalidations += len(dropped)
            incr("serve.cache.invalidations", len(dropped))
            inv_span.tags.update(dropped=len(dropped))
        return dropped

    def clear(self) -> None:
        self._entries.clear()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0

    def stats(self) -> dict[str, float]:
        return {
            "entries": float(len(self._entries)),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "hit_rate": self.hit_rate,
            "evictions": float(self.evictions),
            "invalidations": float(self.invalidations),
        }
