"""Link recommendation — the paper's motivating application.

The introduction motivates link prediction with "personalized
recommendation in social or e-commerce networks"; this module is that
product surface: given a trained SSF model and a user (node), rank the
candidate partners most likely to link next.

Candidate generation follows standard recommender practice: the friends-
of-friends ball around the user (2 hops by default, where almost all new
links form) minus existing partners, optionally topped up with globally
active nodes so cold-ish users still get suggestions.

Example::

    recommender = LinkRecommender.fit(network)
    for suggestion in recommender.recommend("alice", top_n=5):
        print(suggestion.node, suggestion.score)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.core.feature import SSFConfig, SSFExtractor
from repro.graph.csr import CSRSnapshot, hop_ball
from repro.graph.temporal import DynamicNetwork, median_timestamp_gap
from repro.models.linear import LinearRegressionModel
from repro.models.neural import NeuralMachine
from repro.obs import get_logger, span
from repro.sampling.splits import build_link_prediction_task
from repro.utils.rng import ensure_rng

Node = Hashable

_LOG = get_logger("recommend")


@dataclass(frozen=True)
class Suggestion:
    """One recommended partner."""

    node: Node
    score: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.node!r} ({self.score:.3f})"


def candidate_pool(
    snapshot: CSRSnapshot, user: Node, hops: int, hubs: "list[Node]"
) -> "tuple[list[Node], np.ndarray]":
    """Candidate partners of ``user`` and the ball they were drawn from.

    The pool is the user's ``hops``-hop ball (:func:`hop_ball`) plus the
    ``hubs``, minus the user's current partners and the user, sorted by
    ``repr``; the ball comes back as its sorted snapshot ids.  Both
    recommenders generate candidates here.
    """
    if not snapshot.has_node(user):
        raise KeyError(f"user {user!r} not in network")
    user_id = snapshot.node_id(user)
    ball_ids = hop_ball(snapshot, user_id, hops)
    partners = snapshot.indices[snapshot.indptr[user_id] : snapshot.indptr[user_id + 1]]
    out = {snapshot.label_of(int(n)) for n in ball_ids}
    out.update(hubs)
    out.difference_update(snapshot.label_of(int(v)) for v in partners)
    out.discard(user)
    return sorted(out, key=repr), ball_ids


class LinkRecommender:
    """Top-N partner recommendation backed by an SSF model.

    Build with :meth:`fit` (self-supervised: trains on the network's own
    last timestamp, exactly the paper's task) or assemble from an
    existing csr extractor + trained model for custom pipelines.
    Candidates and hubs are read from the extractor's snapshot.
    """

    def __init__(
        self,
        network: DynamicNetwork,
        extractor: SSFExtractor,
        model: "LinearRegressionModel | NeuralMachine",
        *,
        candidate_hops: int = 2,
        global_candidates: int = 20,
    ) -> None:
        if candidate_hops < 1:
            raise ValueError(f"candidate_hops must be >= 1, got {candidate_hops}")
        if global_candidates < 0:
            raise ValueError("global_candidates must be >= 0")
        if extractor.snapshot is None:
            raise ValueError("LinkRecommender needs a csr extractor")
        self.network = network
        self.extractor = extractor
        self.model = model
        self.candidate_hops = candidate_hops
        self.global_candidates = global_candidates
        self._active_nodes = self._most_active(global_candidates)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls,
        network: DynamicNetwork,
        *,
        config: "SSFConfig | None" = None,
        model: str = "linear",
        epochs: int = 60,
        max_positives: "int | None" = 300,
        seed: int = 0,
    ) -> "LinkRecommender":
        """Self-supervised training on the network's own final timestamp.

        Args:
            network: the full interaction history.
            config: SSF hyper-parameters.
            model: ``"linear"`` or ``"neural"``.
            epochs: neural-machine epochs (ignored for linear).
            max_positives: training-sample cap (None = all).
            seed: RNG seed.
        """
        if model not in ("linear", "neural"):
            raise ValueError(f"model must be 'linear' or 'neural', got {model!r}")
        config = config or SSFConfig()
        task = build_link_prediction_task(
            network, max_positives=max_positives, seed=seed
        )
        extractor = SSFExtractor(
            task.history, config, present_time=task.present_time
        )
        pairs = list(task.train_pairs) + list(task.test_pairs)
        labels = np.concatenate([task.train_labels, task.test_labels])
        _LOG.info(
            "fitting %s recommender on %d labelled pairs", model, len(pairs)
        )
        with span("recommend.fit", pairs=len(pairs)):
            features = extractor.extract_batch(pairs)
        if model == "linear":
            fitted = LinearRegressionModel().fit(features, labels)
        else:
            fitted = NeuralMachine(
                input_dim=features.shape[1], epochs=epochs, seed=seed
            ).fit(features, labels)

        # Serve recommendations from the FULL network (including the last
        # timestamp): at serving time everything observed is history.  The
        # serving clock sits one observed median inter-stamp gap past the
        # newest link — the same step the streaming scorer uses — because
        # a hard-coded +1.0 treats history as ~one step fresher than it
        # is under exp(-θ·Δt) whenever stamps are not unit-spaced.
        serving_extractor = SSFExtractor(
            network,
            config,
            present_time=network.last_timestamp()
            + median_timestamp_gap(network.timestamp_set()),
        )
        return cls(network, serving_extractor, fitted)

    # ------------------------------------------------------------------
    # recommendation
    # ------------------------------------------------------------------
    def candidates(self, user: Node) -> list[Node]:
        """Candidate partners: the friends-of-friends ball plus hubs."""
        pool, _ = candidate_pool(
            self.extractor.snapshot, user, self.candidate_hops, self._active_nodes
        )
        return pool

    def recommend(self, user: Node, top_n: int = 10) -> list[Suggestion]:
        """The ``top_n`` highest-scored new partners for ``user``."""
        if top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {top_n}")
        pool = self.candidates(user)
        if not pool:
            _LOG.debug("no candidate partners for user %r", user)
            return []
        _LOG.debug("scoring %d candidate partners for user %r", len(pool), user)
        with span("recommend.score", candidates=len(pool)):
            features = self.extractor.extract_batch([(user, c) for c in pool])
        scores = self.model.decision_scores(features)
        order = np.argsort(-scores, kind="mergesort")[:top_n]
        return [Suggestion(node=pool[int(i)], score=float(scores[int(i)])) for i in order]

    def _most_active(self, count: int) -> list[Node]:
        """The ``count`` nodes of highest multigraph degree, ties in
        snapshot (insertion) order."""
        snapshot = self.extractor.snapshot
        indptr, ts_indptr = snapshot.indptr, snapshot.ts_indptr
        degree = ts_indptr[indptr[1:]] - ts_indptr[indptr[:-1]]
        order = np.argsort(-degree, kind="stable")[:count]
        return [snapshot.label_of(int(i)) for i in order]


def hit_rate_at_n(
    network: DynamicNetwork,
    *,
    top_n: int = 10,
    n_users: int = 30,
    model: str = "linear",
    seed: int = 0,
) -> float:
    """Offline recommendation quality: train on history, ask for top-N
    suggestions for users who actually formed a new link at the last
    timestamp, and report the fraction whose true new partner appears.

    A product-level metric complementing AUC: it measures the ranking
    head, which is what a recommendation surface exposes.
    """
    if n_users < 1:
        raise ValueError(f"n_users must be >= 1, got {n_users}")
    rng = ensure_rng(seed)
    present = network.last_timestamp()
    history = network.slice(network.first_timestamp(), present)
    # users with a NEW partner at the last timestamp
    truth: dict[Node, set[Node]] = {}
    for u, v, ts in network.edges():
        if ts == present and history.has_node(u) and history.has_node(v):
            if not history.has_edge(u, v):
                truth.setdefault(u, set()).add(v)
                truth.setdefault(v, set()).add(u)
    users = sorted(truth, key=repr)
    if not users:
        raise ValueError("no user formed a new link at the last timestamp")
    if len(users) > n_users:
        idx = rng.choice(len(users), size=n_users, replace=False)
        users = [users[int(i)] for i in idx]

    recommender = LinkRecommender.fit(history, model=model, seed=seed)
    hits = 0
    for user in users:
        suggestions = {s.node for s in recommender.recommend(user, top_n=top_n)}
        if suggestions & truth[user]:
            hits += 1
    return hits / len(users)
