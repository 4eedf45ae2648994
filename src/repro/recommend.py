"""Link recommendation — the paper's motivating application.

The introduction motivates link prediction with "personalized
recommendation in social or e-commerce networks".  The recommender
itself is :class:`repro.serve.ServingRecommender`: its ``fit`` trains
an SSF model on the network's own last timestamp (exactly the paper's
task), and it ranks the candidate partners most likely to link next.
This module holds what it ranks with and how it is judged:

* :class:`Suggestion` — one recommended partner and its score;
* :func:`candidate_pool` — candidate generation after standard
  recommender practice: the friends-of-friends ball around the user (2
  hops by default, where almost all new links form) minus existing
  partners, topped up with globally active nodes so cold-ish users
  still get suggestions;
* :func:`hit_rate_at_n` — the offline ranking-head metric.

Example::

    from repro.serve import ServingRecommender

    recommender = ServingRecommender.fit(network)
    for suggestion in recommender.recommend("alice", top_n=5):
        print(suggestion.node, suggestion.score)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.graph.csr import CSRSnapshot, hop_ball
from repro.graph.temporal import DynamicNetwork
from repro.utils.rng import ensure_rng

Node = Hashable


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
    ``repr``; the ball comes back as its sorted snapshot ids.
    :class:`~repro.serve.ServingRecommender` draws every pool here, with
    its decayed-activity hubs.
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
    head, which is what a recommendation surface exposes.  The model is
    :meth:`ServingRecommender.fit <repro.serve.ServingRecommender.fit>`
    on the history before the last timestamp, and the sampled users are
    ranked in one ``recommend_many`` batch.
    """
    if n_users < 1:
        raise ValueError(f"n_users must be >= 1, got {n_users}")
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
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

    # imported here: repro.serve.frontend imports this module
    from repro.serve import ServingRecommender

    recommender = ServingRecommender.fit(history, model=model, seed=seed)
    answers = recommender.recommend_many([(user, top_n) for user in users])
    hits = sum(
        1
        for user, suggestions in zip(users, answers)
        if truth[user] & {s.node for s in suggestions}
    )
    return hits / len(users)
