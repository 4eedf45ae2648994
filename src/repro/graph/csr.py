"""Read-only CSR snapshot of a :class:`~repro.graph.temporal.DynamicNetwork`.

The dict-of-dict substrate is the right structure for *building* a dynamic
network incrementally, but the SSF hot path (Defs. 3-10, Algorithm 3) only
ever *reads* the observed window.  A :class:`CSRSnapshot` freezes one
window into flat integer-indexed arrays:

* ``indptr``/``indices`` — classic CSR adjacency over int32 node ids, with
  each row's neighbour ids **sorted ascending** so neighbour slices can be
  intersected by ``searchsorted`` and hashed canonically,
* ``ts_indptr``/``ts`` — per-edge-slot timestamp segments (each undirected
  multi-link pair contributes one slot per direction; a slot's timestamps
  are sorted ascending, exactly as the dict substrate stores them),
* an on-demand **influence table** ``exp(-θ·(l_t − l_s))`` aligned with
  ``ts``, computed once per ``(snapshot, present_time, θ)`` and reused by
  every candidate pair (Eq. 2 evaluated |E| times total instead of once
  per pair per structure link).

Bit-parity contract: the influence table is evaluated through
``math.exp`` on the *unique* timestamps (then gathered back), because
``np.exp`` is allowed to differ from the C library ``exp`` in the last
ulp and the CSR backend guarantees bit-identical features against the
dict backend, whose :func:`~repro.core.influence.normalized_influence`
uses ``math.exp``.

The snapshot's array buffers are what makes multiprocess extraction
cheap: under a ``fork`` start method the worker inherits them via
copy-on-write pages that are never written (numpy buffers are not
refcount-touched), and under ``spawn`` the :meth:`CSRSnapshot.to_shared`
/ :meth:`CSRSnapshot.from_shared` pair moves them through one
``multiprocessing.shared_memory`` block instead of pickling the graph.
"""

from __future__ import annotations

import itertools
import pickle
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable

import numpy as np

from repro.obs import get_logger, incr, observe, span
from repro.robust import faults

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from multiprocessing.shared_memory import SharedMemory

    from repro.graph.temporal import DynamicNetwork

Node = Hashable

_LOG = get_logger("graph.csr")

#: bound on cached ``(present_time, θ)`` influence tables per snapshot.
#: Each distinct key pins a full ``|ts|``-sized float64 array, and a
#: serving loop advances ``present_time`` with the stream — unbounded,
#: the cache leaks one table per request batch.
INFLUENCE_TABLE_CACHE_SIZE = 8


class CSRSnapshot:
    """Immutable CSR view of one observed window of a dynamic network.

    Node labels are mapped to dense int ids in the network's insertion
    order (id 0 is the first node ever added), so label-based tie-breaks
    downstream see exactly the objects the dict backend sees.

    Example:
        >>> from repro.graph.temporal import DynamicNetwork
        >>> g = DynamicNetwork([("a", "b", 1), ("a", "b", 3), ("b", "c", 2)])
        >>> snap = CSRSnapshot.from_dynamic(g)
        >>> snap.number_of_nodes(), snap.number_of_links(), snap.number_of_pairs()
        (3, 3, 2)
        >>> snap.pair_timestamps("a", "b")
        (1.0, 3.0)
    """

    __slots__ = (
        "labels",
        "_id_of",
        "indptr",
        "indices",
        "ts_indptr",
        "ts",
        "_influence_tables",
        "_shm",
    )

    def __init__(
        self,
        labels: "list[Node]",
        indptr: np.ndarray,
        indices: np.ndarray,
        ts_indptr: np.ndarray,
        ts: np.ndarray,
        _shm: "SharedMemory | None" = None,
    ) -> None:
        self.labels = labels
        self._id_of = {label: i for i, label in enumerate(labels)}
        self.indptr = indptr
        self.indices = indices
        self.ts_indptr = ts_indptr
        self.ts = ts
        self._influence_tables: OrderedDict[tuple[float, float], np.ndarray] = (
            OrderedDict()
        )
        # keep the shared-memory block alive for as long as arrays view it
        self._shm = _shm

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dynamic(cls, network: "DynamicNetwork") -> "CSRSnapshot":
        """Freeze a dynamic network into a snapshot (O(|V| + |E|))."""
        with span("csr.build"):
            labels = list(network)
            id_of = {label: i for i, label in enumerate(labels)}
            n = len(labels)

            degrees: list[int] = []
            ids: list[int] = []
            ts_counts: list[int] = []
            ts_chunks: list[list[float]] = []
            for label in labels:
                row = network.neighbor_view(label)
                degrees.append(len(row))
                for nbr_id, stamps in sorted(
                    (id_of[nbr], stamps) for nbr, stamps in row.items()
                ):
                    ids.append(nbr_id)
                    ts_counts.append(len(stamps))
                    ts_chunks.append(stamps)
            nnz = len(ids)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(degrees, out=indptr[1:])
            indices = np.array(ids, dtype=np.int32)
            ts_indptr = np.zeros(nnz + 1, dtype=np.int64)
            np.cumsum(ts_counts, out=ts_indptr[1:])
            ts = np.fromiter(
                itertools.chain.from_iterable(ts_chunks),
                dtype=np.float64,
                count=int(ts_indptr[-1]),
            )
        snapshot = cls(labels, indptr, indices, ts_indptr, ts)
        observe("csr.nodes", n)
        observe("csr.slots", nnz)
        return snapshot

    def to_dynamic(self) -> "DynamicNetwork":
        """Thaw back into a dict-backed network (tests / interop)."""
        from repro.graph.temporal import DynamicNetwork

        out = DynamicNetwork()
        for label in self.labels:
            out.add_node(label)
        for u in range(len(self.labels)):
            for slot in range(int(self.indptr[u]), int(self.indptr[u + 1])):
                v = int(self.indices[slot])
                if v < u:
                    continue  # each undirected pair has a slot per direction
                for t in self.slot_timestamps(slot):
                    out.add_edge(self.labels[u], self.labels[v], t)
        return out

    # ------------------------------------------------------------------
    # id / label mapping
    # ------------------------------------------------------------------
    def node_id(self, label: Node) -> int:
        """Dense int id of ``label`` (raises ``KeyError`` when absent)."""
        try:
            return self._id_of[label]
        except KeyError:
            raise KeyError(f"node {label!r} not in snapshot") from None

    def has_node(self, label: Node) -> bool:
        return label in self._id_of

    def label_of(self, node_id: int) -> Node:
        return self.labels[node_id]

    # ------------------------------------------------------------------
    # basic queries (mirroring DynamicNetwork where it matters)
    # ------------------------------------------------------------------
    def number_of_nodes(self) -> int:
        return len(self.labels)

    def number_of_links(self) -> int:
        """Total links counting multiplicity (each stored twice in ``ts``)."""
        return int(self.ts.size) // 2

    def number_of_pairs(self) -> int:
        return int(self.indices.size) // 2

    def last_timestamp(self) -> float:
        if not self.ts.size:
            raise ValueError("snapshot has no links")
        return float(self.ts.max())

    def first_timestamp(self) -> float:
        if not self.ts.size:
            raise ValueError("snapshot has no links")
        return float(self.ts.min())

    def neighbor_slice(self, node_id: int) -> np.ndarray:
        """Sorted neighbour ids of ``node_id`` (a zero-copy array view)."""
        return self.indices[self.indptr[node_id] : self.indptr[node_id + 1]]

    def slot_timestamps(self, slot: int) -> np.ndarray:
        """Sorted timestamps of one directed edge slot (zero-copy view)."""
        return self.ts[self.ts_indptr[slot] : self.ts_indptr[slot + 1]]

    def edge_slot(self, u_id: int, v_id: int) -> int:
        """Directed slot index of the ``u → v`` entry, or ``-1`` if absent."""
        row = self.neighbor_slice(u_id)
        pos = int(np.searchsorted(row, v_id))
        if pos < row.size and int(row[pos]) == v_id:
            return int(self.indptr[u_id]) + pos
        return -1

    def pair_timestamps(self, u: Node, v: Node) -> tuple[float, ...]:
        """Sorted timestamps between two labels (empty tuple when absent)."""
        if not (self.has_node(u) and self.has_node(v)):
            return ()
        slot = self.edge_slot(self._id_of[u], self._id_of[v])
        if slot < 0:
            return ()
        return tuple(self.slot_timestamps(slot).tolist())

    # ------------------------------------------------------------------
    # influence table (Eq. 2 precomputed per snapshot)
    # ------------------------------------------------------------------
    def influence_table(self, present_time: float, theta: float) -> np.ndarray:
        """Per-``ts``-entry decayed influence ``exp(-θ·(l_t − l_s))``.

        Built once per ``(present_time, theta)`` and cached; raises when
        any stored timestamp lies after ``present_time`` (the dict path's
        :func:`~repro.core.influence.normalized_influence` contract).
        The cache is a small LRU bounded at
        :data:`INFLUENCE_TABLE_CACHE_SIZE` keys (evictions counted by
        ``csr.influence_cache_evictions``) so a serving loop that
        advances ``present_time`` per request cannot leak one full
        table per distinct key.
        """
        from repro.core.influence import influence_array

        key = (float(present_time), float(theta))
        tables = self._influence_tables
        table = tables.get(key)
        if table is not None:
            tables.move_to_end(key)
            return table
        with span("csr.influence_table"):
            table = influence_array(self.ts, key[0], key[1])
        tables[key] = table
        while len(tables) > INFLUENCE_TABLE_CACHE_SIZE:
            tables.popitem(last=False)
            incr("csr.influence_cache_evictions")
        return table

    # ------------------------------------------------------------------
    # shared-memory transport (spawn-safe zero-copy worker hand-off)
    # ------------------------------------------------------------------
    def to_shared(self) -> "SharedSnapshotHandle":
        """Export the snapshot arrays into one shared-memory block.

        The caller owns the returned handle and must eventually call
        :meth:`SharedSnapshotHandle.unlink` (after every worker has
        attached and the pool is done).

        Raises:
            OSError: the shared block could not be created (shm
                exhaustion, permissions).  Callers that can fall back to
                a pickled payload should — see
                :func:`repro.core.parallel.parallel_extract_batch`.
        """
        from multiprocessing import shared_memory

        faults.maybe_raise("shm_export")
        label_blob = pickle.dumps(self.labels, protocol=pickle.HIGHEST_PROTOCOL)
        arrays = {
            "indptr": self.indptr,
            "indices": self.indices,
            "ts_indptr": self.ts_indptr,
            "ts": self.ts,
        }
        specs: dict[str, tuple[int, str, tuple[int, ...]]] = {}
        offset = 0
        for name, arr in arrays.items():
            specs[name] = (offset, arr.dtype.str, arr.shape)
            offset += arr.nbytes
        label_offset = offset
        total = max(1, offset + len(label_blob))

        shm = shared_memory.SharedMemory(create=True, size=total)
        try:
            for name, arr in arrays.items():
                off, dtype, shape = specs[name]
                view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=off)
                view[...] = arr
            shm.buf[label_offset : label_offset + len(label_blob)] = label_blob
            _LOG.debug(
                "exported snapshot to shared memory %s (%d bytes)", shm.name, total
            )
            handle = SharedSnapshotHandle(
                shm_name=shm.name,
                specs=specs,
                label_offset=label_offset,
                label_size=len(label_blob),
            )
            handle._shm = shm  # keep the creating process's mapping alive
        except BaseException:
            # The block exists kernel-side the moment create succeeds; a
            # failure before ownership lands on the handle must not
            # orphan it (it would outlive the process under /dev/shm).
            shm.close()
            shm.unlink()
            raise
        return handle

    @classmethod
    def from_shared(cls, handle: "SharedSnapshotHandle") -> "CSRSnapshot":
        """Attach to a snapshot exported by :meth:`to_shared` (zero copy).

        Raises:
            OSError: the block could not be mapped; pool workers report
                this to the parent, which degrades to a pickled payload
                (docs/ROBUSTNESS.md).
        """
        from multiprocessing import shared_memory

        faults.maybe_raise("shm_attach")
        shm = shared_memory.SharedMemory(name=handle.shm_name)
        try:
            arrays = {}
            for name, (off, dtype, shape) in handle.specs.items():
                arrays[name] = np.ndarray(
                    shape, dtype=dtype, buffer=shm.buf, offset=off
                )
            labels = pickle.loads(
                bytes(
                    shm.buf[
                        handle.label_offset : handle.label_offset + handle.label_size
                    ]
                )
            )
        except BaseException:
            # Attach succeeded but reconstruction failed: drop this
            # process's mapping (never unlink — the exporter owns the
            # block and other workers may still attach).
            shm.close()
            raise
        return cls(
            labels,
            arrays["indptr"],
            arrays["indices"],
            arrays["ts_indptr"],
            arrays["ts"],
            _shm=shm,
        )

    # ------------------------------------------------------------------
    # pickling (spawn-path fallback transport)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict[str, object]:
        """Pickle only the canonical arrays.

        The id map is rebuilt on load, the influence cache is dropped
        (recomputed on demand), and a live shared-memory mapping is
        never pickled — the receiving process gets private copies, which
        is exactly what the shm-unavailable fallback wants.
        """
        return {
            "labels": self.labels,
            "indptr": np.asarray(self.indptr),
            "indices": np.asarray(self.indices),
            "ts_indptr": np.asarray(self.ts_indptr),
            "ts": np.asarray(self.ts),
        }

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__init__(  # type: ignore[misc]
            state["labels"],
            state["indptr"],
            state["indices"],
            state["ts_indptr"],
            state["ts"],
        )

    # ------------------------------------------------------------------
    # dunder / debug
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRSnapshot(nodes={self.number_of_nodes()}, "
            f"links={self.number_of_links()}, pairs={self.number_of_pairs()})"
        )


@dataclass
class SharedSnapshotHandle:
    """Names/offsets needed to re-attach a snapshot from shared memory.

    Small and picklable — this is what crosses the process boundary under
    a ``spawn`` start method instead of the graph itself.
    """

    shm_name: str
    specs: dict[str, tuple[int, str, tuple[int, ...]]]
    label_offset: int
    label_size: int
    # The creating process's live mapping — deliberately not a pickled
    # field; attached workers re-open the block by name.
    _shm: "SharedMemory | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict[str, object]:
        return {
            "shm_name": self.shm_name,
            "specs": self.specs,
            "label_offset": self.label_offset,
            "label_size": self.label_size,
        }

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__dict__.update(state)
        self._shm = None

    def unlink(self) -> None:
        """Release the shared block (call once, from the creating process)."""
        if self._shm is not None:
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink
                pass
            self._shm = None


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of a 1-D integer array.

    Same values and dtype as ``np.unique(values)``, which since numpy 2.3
    de-duplicates through a hash table (as do ``union1d`` and
    ``setdiff1d``, which call it).  A sort plus a neighbour mask beats
    that path several times over on random integers and on the nearly
    sorted node and edge codes the engine builds.  The sorted set of an
    integer array depends only on its values, so the two agree bit for
    bit, and the sort may use numpy's default (SIMD) kind.
    """
    # repro-lint: disable=R602 -- equal integers are indistinguishable; only distinct values leave
    ordered = np.sort(values)
    keep = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in
    ``[0, bound)``, through numpy's default (SIMD) sort.

    The composites ``key * n + position`` are unique, so any sort of them
    has no ties, and their order is exactly the stable order of
    ``keys``; ``composite % n`` recovers the positions.  Raises
    ``OverflowError`` when a composite could leave int64.
    """
    n = int(keys.size)
    if int(bound) * n >= 2**63:
        raise OverflowError(f"stable_argsort: {bound} keys x {n} rows overflow int64")
    composite = keys.astype(np.int64)
    composite *= n
    composite += np.arange(n, dtype=np.int64)
    # repro-lint: disable=R602 -- composite keys are unique
    return np.sort(composite) % n


def concatenate_neighbor_slices(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """The ``rows`` of a CSR adjacency, concatenated (with repeats).

    Equivalent to ``np.concatenate([indices[indptr[r]:indptr[r + 1]]
    for r in rows])`` without the per-row Python overhead; the one
    ragged row gather of the array BFS, Alg. 1 and Palette-WL, over a
    snapshot's ``indptr``/``indices`` or any flat CSR.  A single row
    comes back as a view into ``indices``, so callers only read it.
    """
    if len(rows) == 1:
        row = int(rows[0])
        return indices[indptr[row] : indptr[row + 1]]
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=indices.dtype)
    offsets = np.zeros(len(rows), dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    flat = np.arange(total, dtype=np.int64)
    flat += np.repeat(starts - offsets, counts)
    return indices[flat]


def hop_ball(snapshot: CSRSnapshot, node_id: int, hops: int) -> np.ndarray:
    """Sorted node ids within ``hops`` of ``node_id`` (itself included).

    Array BFS over the snapshot's CSR rows — the friends-of-friends
    ball the recommenders' candidate pools are defined on
    (:func:`repro.recommend.candidate_pool`).
    """
    if hops < 0:
        raise ValueError(f"hops must be >= 0, got {hops}")
    seen = np.array([node_id], dtype=np.int64)
    frontier = seen
    for _ in range(hops):
        if not frontier.size:
            break
        reached = sorted_unique(
            concatenate_neighbor_slices(snapshot.indptr, snapshot.indices, frontier)
        ).astype(np.int64)
        # ``seen`` is sorted and never empty, so one searchsorted probe
        # tells each reached node whether it is already in the ball
        probe = np.minimum(np.searchsorted(seen, reached), seen.size - 1)
        frontier = reached[seen[probe] != reached]
        seen = np.sort(np.concatenate([seen, frontier]), kind="stable")
    return seen
