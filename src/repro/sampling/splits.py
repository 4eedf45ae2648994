"""The paper's evaluation split (Sec. VI-C2).

Protocol: choose the last timestamp ``l_t`` of the dynamic network as the
present time; node pairs that create a link at ``l_t`` are the *positive*
samples (70% train / 30% test); an equal number of *fake links* —
uniformly random node pairs with no link at ``l_t`` — are the negatives.
Every method observes only the history ``G_[first, l_t)``.

By default negatives are also required to have no *historical* link,
making the task "which genuinely new pairs connect next" rather than
"separate pairs with history from pairs without"; pass
``exclude_history_negatives=False`` for the laxer reading.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from repro.graph.temporal import DynamicNetwork
from repro.sampling.negatives import sample_negative_pairs
from repro.utils.rng import RngLike, ensure_rng

Node = Hashable
Pair = tuple[Node, Node]


class NetworkTooSmallError(ValueError):
    """The network has too few stamps or positive pairs to split.

    Raised for the shape of the input network, never for a bad
    argument, so the CLI reports it as a usage error.
    """


@dataclass
class LinkPredictionTask:
    """One realised evaluation split.

    Attributes:
        history: the observed network ``G_[first, present_time)``.
        present_time: the prediction timestamp ``l_t``.
        train_pairs / train_labels: training node pairs and 0/1 labels.
        test_pairs / test_labels: held-out pairs and labels.
    """

    history: DynamicNetwork
    present_time: float
    train_pairs: list[Pair]
    train_labels: np.ndarray
    test_pairs: list[Pair]
    test_labels: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.train_pairs) != len(self.train_labels):
            raise ValueError("train pairs/labels must align")
        if len(self.test_pairs) != len(self.test_labels):
            raise ValueError("test pairs/labels must align")

    def summary(self) -> dict:
        """Sample counts, for logging and the benchmark harness."""
        return {
            "present_time": self.present_time,
            "train_total": len(self.train_pairs),
            "train_positive": int(self.train_labels.sum()),
            "test_total": len(self.test_pairs),
            "test_positive": int(self.test_labels.sum()),
            "history_nodes": self.history.number_of_nodes(),
            "history_links": self.history.number_of_links(),
        }


def build_link_prediction_task(
    network: DynamicNetwork,
    *,
    train_fraction: float = 0.7,
    negative_ratio: float = 1.0,
    exclude_history_negatives: bool = True,
    negative_strategy: "str | None" = None,
    max_positives: "int | None" = None,
    seed: RngLike = 0,
) -> LinkPredictionTask:
    """Build the Sec. VI-C2 split from a full dynamic network.

    Args:
        network: the complete network (history + the final timestamp).
        train_fraction: share of positive pairs used for training (paper:
            0.7).
        negative_ratio: negatives per positive in each split (paper: 1.0).
        exclude_history_negatives: also forbid negatives that had
            historical links (see module docstring).
        negative_strategy: overrides ``exclude_history_negatives`` when
            given — one of :data:`repro.sampling.negatives.STRATEGIES`
            (``"uniform"``, ``"no_history"``, ``"two_hop"``); the
            ``"two_hop"`` setting yields *hard* negatives that share a
            neighbour with each other in the observed history.
        max_positives: subsample the positive pairs to at most this many
            (keeps the full benchmark harness fast on dense datasets);
            ``None`` keeps all, the faithful protocol.
        seed: RNG seed for the split and the negative sampling.

    Raises:
        NetworkTooSmallError: if the network has no links or fewer than
            two distinct timestamps (no history before the last one), or
            if fewer than two distinct positive pairs emerge at the last
            timestamp.
    """
    if network.number_of_links() == 0:
        raise NetworkTooSmallError("cannot build a task from an empty network")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if negative_ratio <= 0:
        raise ValueError(f"negative_ratio must be > 0, got {negative_ratio}")
    if negative_strategy is None:
        negative_strategy = (
            "no_history" if exclude_history_negatives else "uniform"
        )

    rng = ensure_rng(seed)
    present_time = network.last_timestamp()
    first_time = network.first_timestamp()
    if first_time == present_time:
        raise NetworkTooSmallError(
            f"every link has timestamp {present_time!r}; need at least two "
            "distinct timestamps for a history before the last one"
        )
    history = network.slice(first_time, present_time)

    positives = _positive_pairs(network, present_time)
    if len(positives) < 2:
        raise NetworkTooSmallError(
            f"only {len(positives)} positive pair(s) at the last timestamp; "
            "need at least 2 to split"
        )
    rng.shuffle(positives)
    if max_positives is not None and len(positives) > max_positives:
        positives = positives[:max_positives]

    n_train = max(1, int(round(len(positives) * train_fraction)))
    n_train = min(n_train, len(positives) - 1)  # both splits stay non-empty
    train_pos = positives[:n_train]
    test_pos = positives[n_train:]

    forbidden = {frozenset((u, v)) for u, v in positives}
    n_train_neg = max(1, int(round(len(train_pos) * negative_ratio)))
    n_test_neg = max(1, int(round(len(test_pos) * negative_ratio)))
    negatives = sample_negative_pairs(
        network,
        history,
        n_train_neg + n_test_neg,
        forbidden,
        strategy=negative_strategy,
        seed=rng,
    )
    train_neg = negatives[:n_train_neg]
    test_neg = negatives[n_train_neg:]

    train_pairs = list(train_pos) + list(train_neg)
    train_labels = np.array([1] * len(train_pos) + [0] * len(train_neg))
    test_pairs = list(test_pos) + list(test_neg)
    test_labels = np.array([1] * len(test_pos) + [0] * len(test_neg))

    order = rng.permutation(len(train_pairs))
    train_pairs = [train_pairs[i] for i in order]
    train_labels = train_labels[order]
    order = rng.permutation(len(test_pairs))
    test_pairs = [test_pairs[i] for i in order]
    test_labels = test_labels[order]

    return LinkPredictionTask(
        history=history,
        present_time=present_time,
        train_pairs=train_pairs,
        train_labels=train_labels,
        test_pairs=test_pairs,
        test_labels=test_labels,
        metadata={
            "train_fraction": train_fraction,
            "negative_ratio": negative_ratio,
            "exclude_history_negatives": exclude_history_negatives,
            "negative_strategy": negative_strategy,
        },
    )


def _positive_pairs(network: DynamicNetwork, present_time: float) -> list[Pair]:
    """Distinct node pairs with at least one link at the last timestamp.

    ``present_time`` is the network's largest stamp, so a pair has a link
    at it exactly when its sorted stamp list ends there.
    """
    return [
        (u, v)
        for u, v, stamps in network.pair_stamps()
        if stamps[-1] == present_time
    ]
