"""Incremental snapshot ingestion — the serving layer's graph substrate.

:class:`CSRSnapshot.from_dynamic` re-walks the whole dict substrate on
every freeze (O(|V| + |E|) Python-loop work), which is the right cost
model for offline experiments that freeze one window per run and the
wrong one for a serving loop ingesting a few edge events per request
batch.  :class:`DeltaCSRSnapshot` keeps the last materialised snapshot's
arrays and merges pending events into them with vectorised sorted
inserts: per event batch the Python work is O(events·log) position
arithmetic plus O(|E|) ``np.insert`` memcpys — no per-node, per-slot
re-walk of the unchanged graph.

**Bit-identity contract.**  ``DeltaCSRSnapshot.snapshot()`` is
bit-identical to ``CSRSnapshot.from_dynamic`` over the equivalent
:class:`~repro.graph.temporal.DynamicNetwork` — same label order (nodes
enter in first-seen order, ``u`` before ``v``, exactly like
``add_edge``), same per-row neighbour sort, same per-slot stamp sort,
same dtypes.  The rebuilt≡delta differential suite
(``tests/serve/test_delta.py`` and the extended backend differential)
holds this across all six entry modes, because every downstream feature
guarantee (dict ≡ csr bit-parity) is inherited from it.

**Incremental influence.**  A :class:`DecayedInfluenceIndex` maintains
per-node decayed activity *summaries* under new stamps: a stamp on link
``(u, v)`` rescales only its two end nodes' running sums by the θ-decay
factor.  :class:`~repro.serve.ServingRecommender`, the one
recommender, ranks hub candidates by this decayed activity, offline
(``hit_rate_at_n``, ``repro recommend``) as well as online.  Each
materialised snapshot builds its own Eq. 2 influence table on
first use (:meth:`CSRSnapshot.influence_table`).
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable

import numpy as np

from repro.core.influence import DEFAULT_THETA, _check_theta
from repro.graph.csr import CSRSnapshot
from repro.graph.temporal import DynamicNetwork, median_timestamp_gap
from repro.obs import get_logger, incr, observe, span

Node = Hashable
Event = "tuple[Node, Node, float]"

_LOG = get_logger("serve.delta")


class DecayedInfluenceIndex:
    """Numerically stable incremental decayed-activity summaries.

    Per node, stores ``(t_ref, S)`` where ``t_ref`` is the newest stamp
    on any of its links and ``S = Σ_i exp(-θ·(t_ref − t_i))`` — the Eq. 3
    influence sum over all its incident links, referenced to that stamp.
    A new stamp ``t`` on link ``(u, v)`` touches only the two endpoint
    entries: when the stamp advances the reference, the running sum is
    rescaled once by the θ-decay factor,

        ``S ← S·exp(-θ·(t − t_ref)) + 1``,  ``t_ref ← t``

    and a query at serving time ``present`` is one more rescale,
    ``S·exp(-θ·(present − t_ref))``.  Every factor is ≤ 1, so the sum
    stays finite for arbitrarily large raw timestamps — the naive
    prefix-sum form ``Σ exp(θ·t_i)`` overflows float64 once
    ``θ·t ≳ 710``.

    These are serving-side *summaries* (hub ranking, admission
    heuristics), not the feature path: SSF features keep the exact
    ``influence_array`` evaluation so dict ≡ csr ≡ delta bit-parity is
    preserved.
    """

    __slots__ = ("_theta", "_nodes")

    def __init__(self, theta: float = DEFAULT_THETA) -> None:
        _check_theta(theta)
        self._theta = float(theta)
        self._nodes: dict[int, tuple[float, float]] = {}

    @property
    def theta(self) -> float:
        return self._theta

    def observe(self, u_id: int, v_id: int, stamp: float) -> None:
        """Absorb one edge event: two O(1) entry updates."""
        self._nodes[u_id] = self._bump(self._nodes.get(u_id), stamp)
        self._nodes[v_id] = self._bump(self._nodes.get(v_id), stamp)

    def _bump(
        self, entry: "tuple[float, float] | None", stamp: float
    ) -> tuple[float, float]:
        if entry is None:
            return (stamp, 1.0)
        t_ref, total = entry
        if stamp >= t_ref:
            return (stamp, total * math.exp(-self._theta * (stamp - t_ref)) + 1.0)
        return (t_ref, total + math.exp(-self._theta * (t_ref - stamp)))

    def _at(self, entry: "tuple[float, float] | None", present: float) -> float:
        if entry is None:
            return 0.0
        t_ref, total = entry
        if present < t_ref:
            raise ValueError(
                f"present time {present} is before the newest stamp {t_ref}"
            )
        return total * math.exp(-self._theta * (present - t_ref))

    def node_activity(self, node_id: int, present: float) -> float:
        """Decayed activity (influence over all incident links) of a node."""
        return self._at(self._nodes.get(node_id), present)

    def most_active(self, count: int, present: float) -> list[int]:
        """The ``count`` node ids with the highest decayed activity.

        Ties break on the node id, so the ranking is deterministic
        regardless of event arrival interleaving.  Vectorised: the
        serving loop re-ranks hubs after every ingest, so this is one
        numpy pass instead of a Python sort with per-entry ``exp``.
        """
        if count <= 0 or not self._nodes:
            return []
        ids = np.fromiter(self._nodes.keys(), dtype=np.int64, count=len(self._nodes))
        refs = np.empty(ids.size, dtype=np.float64)
        totals = np.empty(ids.size, dtype=np.float64)
        for slot, (t_ref, total) in enumerate(self._nodes.values()):
            refs[slot] = t_ref
            totals[slot] = total
        if present < refs.max():
            raise ValueError(
                f"present time {present} is before the newest stamp {refs.max()}"
            )
        activity = totals * np.exp(-self._theta * (present - refs))
        # lexsort's last key is primary: highest activity first, then id
        order = np.lexsort((ids, -activity))[:count]
        return [int(node_id) for node_id in ids[order]]


class DeltaCSRSnapshot:
    """Append-only edge-event ingestion over materialised CSR arrays.

    Usage::

        delta = DeltaCSRSnapshot.from_dynamic(history)
        delta.apply([("a", "b", 42.0)])
        snap = delta.snapshot()          # merges pending events, O(delta + memcpy)
        snap2 = delta.snapshot()         # no pending events: same object back

    ``snapshot()`` returns a plain :class:`CSRSnapshot`, so everything
    downstream (extractors, the batched engine, shared-memory transport)
    is oblivious to how the snapshot was produced.  Returned snapshots
    are immutable — later ``apply`` calls never mutate an already
    returned snapshot's arrays.
    """

    def __init__(self, theta: float = DEFAULT_THETA) -> None:
        self._labels: list[Node] = []
        self._id_of: dict[Node, int] = {}
        self._snapshot = CSRSnapshot(
            [],
            np.zeros(1, dtype=np.int64),
            np.zeros(0, dtype=np.int32),
            np.zeros(1, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
        )
        self._pending: list[tuple[int, int, float]] = []
        self._distinct_stamps: set[float] = set()
        self._last_ts: "float | None" = None
        self._num_links = 0
        self._events_applied = 0
        self.influence = DecayedInfluenceIndex(theta)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dynamic(
        cls, network: DynamicNetwork, theta: float = DEFAULT_THETA
    ) -> "DeltaCSRSnapshot":
        """Seed from an existing history (one full freeze, then deltas)."""
        out = cls(theta)
        snapshot = CSRSnapshot.from_dynamic(network)
        out._labels = list(snapshot.labels)
        out._id_of = {label: i for i, label in enumerate(out._labels)}
        out._snapshot = snapshot
        out._num_links = snapshot.number_of_links()
        # Seed the influence index from each undirected pair's stamps
        # (ascending order keeps every _bump factor ≤ 1).
        for u_id in range(len(out._labels)):
            for slot in range(
                int(snapshot.indptr[u_id]), int(snapshot.indptr[u_id + 1])
            ):
                v_id = int(snapshot.indices[slot])
                if v_id < u_id:
                    continue
                for stamp in snapshot.slot_timestamps(slot).tolist():
                    out.influence.observe(u_id, v_id, stamp)
                    out._distinct_stamps.add(stamp)
        if snapshot.ts.size:
            out._last_ts = snapshot.last_timestamp()
        return out

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ensure_node(self, label: Node) -> int:
        """Ensure ``label`` exists (isolated until an event touches it)."""
        node_id = self._id_of.get(label)
        if node_id is None:
            node_id = len(self._labels)
            self._labels.append(label)
            self._id_of[label] = node_id
        return node_id

    def apply(self, events: "Iterable[Event]") -> list[tuple[int, int]]:
        """Append edge events; returns the touched ``(u_id, v_id)`` pairs.

        Validation mirrors :meth:`DynamicNetwork.add_edge` (hashable
        labels, no self-loops, finite stamps) and covers the whole batch
        before any event is applied, so a rejected batch changes
        nothing.  Node ids are assigned in first-seen order, ``u`` before
        ``v`` — the order ``from_dynamic`` would produce for the same
        event sequence, which is what keeps the label array (and
        therefore every downstream label-order tie-break) bit-identical
        to a full rebuild.
        """
        checked: list[tuple[Node, Node, float]] = []
        for u, v, stamp in events:
            hash((u, v))  # labels key the id map: unhashable ones raise here
            if u == v:
                raise ValueError(f"self-loops are not allowed (node {u!r})")
            ts = float(stamp)
            if not math.isfinite(ts):
                raise ValueError(f"timestamp must be finite, got {stamp!r}")
            checked.append((u, v, ts))
        touched: list[tuple[int, int]] = []
        # under the ingesting request's serve.ingest span this span is
        # a leaf of that request's trace
        with span("serve.delta_apply") as apply_span:
            for u, v, ts in checked:
                u_id = self.ensure_node(u)
                v_id = self.ensure_node(v)
                self._pending.append((u_id, v_id, ts))
                self.influence.observe(u_id, v_id, ts)
                self._distinct_stamps.add(ts)
                if self._last_ts is None or ts > self._last_ts:
                    self._last_ts = ts
                self._num_links += 1
                self._events_applied += 1
                touched.append((u_id, v_id))
            apply_span.tags.update(events=len(touched))
        incr("serve.delta.events", len(touched))
        return touched

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def node_id(self, label: Node) -> int:
        try:
            return self._id_of[label]
        except KeyError:
            raise KeyError(f"node {label!r} not in snapshot") from None

    def label_of(self, node_id: int) -> Node:
        return self._labels[node_id]

    def has_node(self, label: Node) -> bool:
        return label in self._id_of

    def number_of_nodes(self) -> int:
        return len(self._labels)

    def number_of_links(self) -> int:
        return self._num_links

    @property
    def events_applied(self) -> int:
        return self._events_applied

    @property
    def pending_events(self) -> int:
        return len(self._pending)

    def last_timestamp(self) -> float:
        if self._last_ts is None:
            raise ValueError("snapshot has no links")
        return self._last_ts

    def scoring_time(self) -> float:
        """Serving ``present_time``: one observed median inter-stamp gap
        past the newest event (the streaming scorer's clock)."""
        if self._last_ts is None:
            return 1.0
        return self._last_ts + median_timestamp_gap(self._distinct_stamps)

    def most_active(self, count: int) -> list[Node]:
        """Hub candidates by *decayed* activity at the serving clock.

        The one hub rule: every candidate pool the recommender draws,
        offline or online, takes its hubs from here.
        """
        present = self.scoring_time() if self._last_ts is not None else 1.0
        return [
            self._labels[node_id]
            for node_id in self.influence.most_active(count, present)
        ]

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------
    def snapshot(self) -> CSRSnapshot:
        """The current snapshot; merges pending events if any."""
        if not self._pending:
            return self._snapshot
        with span("serve.delta.materialize", events=len(self._pending)):
            self._snapshot = self._merge(self._snapshot, self._pending)
        observe("serve.delta.merge_events", len(self._pending))
        self._pending = []
        incr("serve.delta.materializations")
        return self._snapshot

    def _merge(
        self, old: CSRSnapshot, events: "list[tuple[int, int, float]]"
    ) -> CSRSnapshot:
        old_n = old.number_of_nodes()
        new_n = len(self._labels)

        # Group the delta's stamps per undirected pair, then split into
        # stamps landing on existing directed slots vs. brand-new slots.
        per_pair: dict[tuple[int, int], list[float]] = {}
        for u_id, v_id, ts in events:
            a, b = (u_id, v_id) if u_id < v_id else (v_id, u_id)
            per_pair.setdefault((a, b), []).append(ts)
        updates: list[tuple[int, list[float]]] = []
        fresh: dict[int, list[tuple[int, list[float]]]] = {}
        for (a, b), stamps in sorted(per_pair.items()):
            stamps.sort()
            slot = old.edge_slot(a, b) if a < old_n and b < old_n else -1
            if slot >= 0:
                updates.append((slot, stamps))
                updates.append((old.edge_slot(b, a), stamps))
            else:
                fresh.setdefault(a, []).append((b, stamps))
                fresh.setdefault(b, []).append((a, stamps))

        # Rows for nodes that arrived with this delta start empty.
        if new_n > old_n:
            indptr_ext = np.concatenate(
                [old.indptr, np.full(new_n - old_n, old.indptr[-1], dtype=np.int64)]
            )
        else:
            indptr_ext = old.indptr

        # New pair slots: sorted-merge positions into the old `indices`.
        # Rows ascending, columns ascending within a row, so positions
        # are non-decreasing and np.insert's keep-given-order semantics
        # at duplicate positions preserve the per-row neighbour sort.
        ins_pos: list[int] = []
        ins_col: list[int] = []
        ins_row: list[int] = []
        new_slot_stamps: list[list[float]] = []
        for row in sorted(fresh):
            row_lo = int(indptr_ext[row])
            row_slice = old.indices[row_lo : int(indptr_ext[row + 1])]
            for col, stamps in sorted(fresh[row]):
                ins_pos.append(row_lo + int(np.searchsorted(row_slice, col)))
                ins_col.append(col)
                ins_row.append(row)
                new_slot_stamps.append(stamps)

        old_ts_counts = np.diff(old.ts_indptr)
        if ins_pos:
            indices_new = np.insert(old.indices, ins_pos, ins_col)
            indptr_new = indptr_ext.copy()
            row_counts = np.bincount(
                np.asarray(ins_row, dtype=np.int64), minlength=new_n
            )
            indptr_new[1:] += np.cumsum(row_counts)
            ts_counts = np.insert(
                old_ts_counts, ins_pos, [len(s) for s in new_slot_stamps]
            )
        else:
            indices_new = old.indices
            indptr_new = indptr_ext
            ts_counts = old_ts_counts

        ins_pos_arr = np.asarray(ins_pos, dtype=np.int64)
        if updates:
            upd_slots = np.array([slot for slot, _ in updates], dtype=np.int64)
            upd_counts = np.array(
                [len(stamps) for _, stamps in updates], dtype=np.int64
            )
            # old slot s lands at s + (#new slots inserted at positions ≤ s)
            upd_new = upd_slots + np.searchsorted(ins_pos_arr, upd_slots, side="right")
            ts_counts = ts_counts.copy() if ts_counts is old_ts_counts else ts_counts
            ts_counts[upd_new] += upd_counts
        ts_indptr_new = np.zeros(ts_counts.size + 1, dtype=np.int64)
        np.cumsum(ts_counts, out=ts_indptr_new[1:])

        # Timestamp inserts, ordered by conceptual slot position: a new
        # slot inserted before old slot p sorts as (p, 0, serial) —
        # before old slot p's own appended stamps (p, 1, ·) and after
        # slot p-1's (p-1, 1, ·), even where the raw `ts` positions tie
        # at a segment boundary.
        entries: list[tuple[tuple[int, int, int, int], int, float]] = []
        for serial, pos in enumerate(ins_pos):
            seg_start = int(old.ts_indptr[pos])
            for within, stamp in enumerate(new_slot_stamps[serial]):
                entries.append(((pos, 0, serial, within), seg_start, stamp))
        for serial, (slot, stamps) in enumerate(updates):
            seg_lo = int(old.ts_indptr[slot])
            segment = old.ts[seg_lo : int(old.ts_indptr[slot + 1])]
            for within, stamp in enumerate(stamps):
                # side="right" mirrors insort's bisect_right placement
                pos = seg_lo + int(np.searchsorted(segment, stamp, side="right"))
                entries.append(((slot, 1, serial, within), pos, stamp))
        entries.sort(key=lambda entry: entry[0])
        ts_new = np.insert(
            old.ts,
            [entry[1] for entry in entries],
            [entry[2] for entry in entries],
        )
        return CSRSnapshot(
            list(self._labels), indptr_new, indices_new, ts_indptr_new, ts_new
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeltaCSRSnapshot(nodes={self.number_of_nodes()}, "
            f"links={self.number_of_links()}, pending={self.pending_events})"
        )
