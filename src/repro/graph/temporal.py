"""Dynamic (temporal) multigraph — Definition 1 of the paper.

A :class:`DynamicNetwork` is an undirected multigraph whose links each carry
a timestamp recording when they emerged.  Multiple links may connect the
same node pair (repeat interactions), including multiple links at the same
timestamp.  This is the substrate every other component operates on:
subgraph extraction, structure combination, influence normalisation,
baselines (via the static projection) and dataset generators.

Storage is a dict-of-dict adjacency where ``_adj[u][v]`` holds the sorted
list of timestamps of all ``u — v`` links; the list object is shared between
the two directions so the multigraph stays symmetric by construction.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from typing import Hashable, Iterable, Iterator, NamedTuple

Node = Hashable
Timestamp = float


class TemporalEdge(NamedTuple):
    """One timestamped link ``e_k = (n_i, n_j, l_k)`` (Def. 1)."""

    u: Node
    v: Node
    timestamp: Timestamp


class DynamicNetwork:
    """Undirected multigraph with timestamped links.

    Example:
        >>> g = DynamicNetwork()
        >>> g.add_edge("a", "b", 1)
        >>> g.add_edge("a", "b", 3)
        >>> g.multiplicity("a", "b")
        2
        >>> sorted(g.timestamps("a", "b"))
        [1.0, 3.0]
    """

    def __init__(
        self, edges: "Iterable[tuple[Node, Node, Timestamp]] | None" = None
    ) -> None:
        self._adj: dict[Node, dict[Node, list[Timestamp]]] = {}
        self._num_links = 0
        if edges is not None:
            self.add_edges_from(edges)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Ensure ``node`` exists (isolated if it has no links)."""
        self._adj.setdefault(node, {})

    def add_edge(self, u: Node, v: Node, timestamp: Timestamp) -> None:
        """Add one link between ``u`` and ``v`` at ``timestamp``.

        Self-loops are rejected: the paper's networks model interactions
        between distinct entities and the structure-combination algorithm
        assumes loop-free graphs.
        """
        if u == v:
            raise ValueError(f"self-loops are not allowed (node {u!r})")
        ts = float(timestamp)
        if not math.isfinite(ts):
            raise ValueError(f"timestamp must be finite, got {timestamp!r}")
        row_u = self._adj.setdefault(u, {})
        self._adj.setdefault(v, {})
        stamps = row_u.get(v)
        if stamps is None:
            stamps = []
            row_u[v] = stamps
            self._adj[v][u] = stamps  # shared list keeps both directions in sync
        insort(stamps, ts)
        self._num_links += 1

    def add_edges_from(self, edges: "Iterable[tuple[Node, Node, Timestamp]]") -> None:
        """Add links from an iterable of ``(u, v, timestamp)`` triples."""
        for u, v, ts in edges:
            self.add_edge(u, v, ts)

    def _install_pair(self, u: Node, v: Node, stamps: list[Timestamp]) -> None:
        """Install an already-sorted timestamp list for a NEW pair.

        Bulk-construction fast path used by :meth:`slice` / :meth:`copy` /
        :meth:`subgraph`: the source lists are already sorted, so copying
        them wholesale replaces the per-link ``insort`` (O(m·k) for a pair
        with k links) with one O(k) list copy.  Node insertion order
        matches :meth:`add_edge` (``u`` before ``v``).
        """
        row_u = self._adj.setdefault(u, {})
        self._adj.setdefault(v, {})
        row_u[v] = stamps
        self._adj[v][u] = stamps  # shared list keeps both directions in sync
        self._num_links += len(stamps)

    def remove_edge(self, u: Node, v: Node, timestamp: "Timestamp | None" = None) -> None:
        """Remove one link between ``u`` and ``v``.

        Args:
            timestamp: remove one link with exactly this timestamp; if
                ``None``, remove the most recent link.

        Raises:
            KeyError: if no matching link exists.
        """
        stamps = self._adj.get(u, {}).get(v)
        if not stamps:
            raise KeyError(f"no link between {u!r} and {v!r}")
        if timestamp is None:
            stamps.pop()
        else:
            try:
                stamps.remove(float(timestamp))
            except ValueError:
                raise KeyError(
                    f"no link between {u!r} and {v!r} at timestamp {timestamp!r}"
                ) from None
        self._num_links -= 1
        if not stamps:
            del self._adj[u][v]
            del self._adj[v][u]

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    def has_node(self, node: Node) -> bool:
        return node in self._adj

    def has_edge(self, u: Node, v: Node) -> bool:
        """True iff at least one link connects ``u`` and ``v``."""
        return v in self._adj.get(u, {})

    @property
    def nodes(self) -> list[Node]:
        """All nodes, in insertion order."""
        return list(self._adj)

    def number_of_nodes(self) -> int:
        return len(self._adj)

    def number_of_links(self) -> int:
        """Total number of links, counting multiplicity (``|E|`` in Table II)."""
        return self._num_links

    def number_of_pairs(self) -> int:
        """Number of distinct connected node pairs (simple-graph edge count)."""
        return sum(len(row) for row in self._adj.values()) // 2

    def neighbors(self, node: Node) -> set[Node]:
        """The open neighbourhood ``Γ(node)`` as a set."""
        try:
            return set(self._adj[node])
        except KeyError:
            raise KeyError(f"node {node!r} not in network") from None

    def neighbor_view(self, node: Node) -> "dict[Node, list[Timestamp]]":
        """Read-only view of ``node``'s adjacency row (do not mutate)."""
        try:
            return self._adj[node]
        except KeyError:
            raise KeyError(f"node {node!r} not in network") from None

    def degree(self, node: Node) -> int:
        """Multigraph degree: number of link endpoints at ``node``."""
        return sum(len(stamps) for stamps in self.neighbor_view(node).values())

    def simple_degree(self, node: Node) -> int:
        """Number of distinct neighbours of ``node``."""
        return len(self.neighbor_view(node))

    def multiplicity(self, u: Node, v: Node) -> int:
        """Number of links between ``u`` and ``v`` (0 if none)."""
        return len(self._adj.get(u, {}).get(v, ()))

    def timestamps(self, u: Node, v: Node) -> tuple[Timestamp, ...]:
        """Sorted timestamps of all links between ``u`` and ``v``."""
        return tuple(self._adj.get(u, {}).get(v, ()))

    def pair_stamps(self) -> Iterator[tuple[Node, Node, list[Timestamp]]]:
        """Iterate ``(u, v, stamps)`` once per distinct connected pair.

        ``stamps`` is the pair's sorted timestamp list itself (read-only:
        do not mutate).  A pair is reported from the row of whichever
        endpoint comes first in node insertion order; :meth:`edges`,
        :meth:`pair_iter`, :meth:`slice` and :meth:`copy` all follow this
        order.
        """
        scanned: set[Node] = set()
        for u, row in self._adj.items():
            for v, stamps in row.items():
                if v not in scanned:
                    yield u, v, stamps
            scanned.add(u)

    def edges(self) -> Iterator[TemporalEdge]:
        """Iterate all links once (each undirected link reported once)."""
        for u, v, stamps in self.pair_stamps():
            for ts in stamps:
                yield TemporalEdge(u, v, ts)

    def pair_iter(self) -> Iterator[tuple[Node, Node]]:
        """Iterate distinct connected node pairs once."""
        for u, v, _ in self.pair_stamps():
            yield (u, v)

    # ------------------------------------------------------------------
    # temporal queries
    # ------------------------------------------------------------------
    def first_timestamp(self) -> Timestamp:
        """Smallest timestamp in the network (``l_1``)."""
        return min(stamps[0] for _, _, stamps in self.pair_stamps())

    def last_timestamp(self) -> Timestamp:
        """Largest timestamp in the network (``l_s``)."""
        return max(stamps[-1] for _, _, stamps in self.pair_stamps())

    def timestamp_set(self) -> set[Timestamp]:
        """The set ``L`` of distinct timestamps (Def. 1)."""
        out: set[Timestamp] = set()
        for _, _, stamps in self.pair_stamps():
            out.update(stamps)
        return out

    def slice(self, t_start: Timestamp, t_end: Timestamp) -> "DynamicNetwork":
        """The period network ``G_[t_start, t_end)`` (Sec. III).

        Keeps every link whose timestamp lies in the half-open interval
        ``[t_start, t_end)``.  Nodes with no surviving link are dropped,
        matching the paper's stream construction (nodes enter the graph
        together with their first link).
        """
        if t_end <= t_start:
            raise ValueError(
                f"empty period: t_start={t_start!r} must be < t_end={t_end!r}"
            )
        t_lo = float(t_start)
        t_hi = float(t_end)
        out = DynamicNetwork()
        for u, v, stamps in self.pair_stamps():
            lo = bisect_left(stamps, t_lo)
            hi = bisect_left(stamps, t_hi)
            if lo < hi:
                out._install_pair(u, v, stamps[lo:hi])
        return out

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[Node]) -> "DynamicNetwork":
        """Induced sub-multigraph on ``nodes`` (all links kept between them)."""
        keep = set(nodes)
        missing = keep - self._adj.keys()
        if missing:
            raise KeyError(f"nodes not in network: {sorted(map(repr, missing))}")
        out = DynamicNetwork()
        # repr-keyed sort: node labels are arbitrary hashables, and the
        # subgraph's insertion order (hence neighbour iteration order)
        # must not depend on the hash seed.
        ordered = sorted(keep, key=repr)
        for node in ordered:
            out.add_node(node)
        # Emit each pair once: skip neighbours already scanned as sources.
        visited: set[Node] = set()
        for u in ordered:
            for v, stamps in self._adj[u].items():
                if v in keep and v not in visited:
                    out._install_pair(u, v, stamps.copy())
            visited.add(u)
        return out

    def static_projection(self) -> "StaticGraph":
        """Simple undirected graph with the same connected node pairs.

        Timestamps and multiplicities are dropped — this is the "static
        version" of the network used by the static baselines (Sec. VI-C2).
        """
        from repro.graph.static import StaticGraph

        g = StaticGraph()
        for node in self._adj:
            g.add_node(node)
        for u, v in self.pair_iter():
            g.add_edge(u, v)
        return g

    def copy(self) -> "DynamicNetwork":
        out = DynamicNetwork()
        for node in self._adj:
            out.add_node(node)
        for u, v, stamps in self.pair_stamps():
            out._install_pair(u, v, stamps.copy())
        return out

    # ------------------------------------------------------------------
    # dunder / debug
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicNetwork(nodes={self.number_of_nodes()}, "
            f"links={self.number_of_links()}, pairs={self.number_of_pairs()})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DynamicNetwork):
            return NotImplemented
        if self._adj.keys() != other._adj.keys():
            return False
        for u, row in self._adj.items():
            other_row = other._adj[u]
            if row.keys() != other_row.keys():
                return False
            for v, stamps in row.items():
                if stamps != other_row[v]:
                    return False
        return True

    __hash__ = None  # type: ignore[assignment] - mutable container


def average_degree(network: DynamicNetwork) -> float:
    """Average multigraph degree ``2|E| / |V|`` (the Table II statistic)."""
    n = network.number_of_nodes()
    if n == 0:
        return 0.0
    return 2.0 * network.number_of_links() / n


def median_timestamp_gap(stamps: "Iterable[Timestamp]") -> float:
    """Median gap between consecutive distinct timestamps.

    The characteristic inter-stamp spacing of a stream or history:
    robust to a few irregular bursts, and exactly 1.0 on the unit-spaced
    streams the synthetic catalog produces.  Falls back to 1.0 when
    fewer than two distinct stamps exist (no gap to measure) or the
    median gap is non-positive.

    Shared by the streaming predictor's scoring clock
    (:meth:`repro.streaming.prequential.StreamingSSFPredictor.scoring_time`)
    and the recommender's serving ``present_time``
    (:meth:`repro.serve.delta.DeltaCSRSnapshot.scoring_time`), so both
    advance the ``exp(-θ·Δt)`` influence clock by one *real* step past
    the observed history instead of a hard-coded ``+1.0``.
    """
    distinct = sorted({float(s) for s in stamps})
    if len(distinct) < 2:
        return 1.0
    gaps = sorted(b - a for a, b in zip(distinct, distinct[1:]))
    mid = len(gaps) // 2
    step = gaps[mid] if len(gaps) % 2 else (gaps[mid - 1] + gaps[mid]) / 2.0
    return step if step > 0.0 else 1.0
