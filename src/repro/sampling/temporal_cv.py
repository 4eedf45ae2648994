"""Temporal cross-validation: evaluating at several prediction times.

The paper evaluates at a single prediction time (the last timestamp),
which gives one point estimate per method.  A natural strengthening is a
*rolling-origin* evaluation: slide the prediction time over the last few
timestamps, rebuild the Sec. VI-C2 split at each, and aggregate — giving
mean ± std instead of a single number, and exercising the methods on
histories of different lengths.

``G_[first, t)`` is the observed history for prediction time ``t``; pairs
linking at exactly ``t`` are the positives.  Folds whose timestamp has
too few positive pairs are skipped (reported in the result).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.temporal import DynamicNetwork
from repro.sampling.splits import (
    LinkPredictionTask,
    NetworkTooSmallError,
    build_link_prediction_task,
)


@dataclass
class TemporalFolds:
    """The realised folds of one rolling-origin evaluation."""

    tasks: list[LinkPredictionTask]
    prediction_times: list[float]
    skipped_times: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)


def build_temporal_folds(
    network: DynamicNetwork,
    *,
    n_folds: int = 3,
    min_positives: int = 10,
    train_fraction: float = 0.7,
    negative_ratio: float = 1.0,
    exclude_history_negatives: bool = True,
    max_positives: "int | None" = None,
    seed: int = 0,
) -> TemporalFolds:
    """Build up to ``n_folds`` tasks at the last distinct timestamps.

    Fold ``i`` predicts the ``i``-th most recent timestamp from everything
    strictly before it.  Timestamps yielding fewer than ``min_positives``
    positive pairs are skipped and recorded.

    Raises:
        NetworkTooSmallError: if no usable fold exists.
    """
    if n_folds < 1:
        raise ValueError(f"n_folds must be >= 1, got {n_folds}")
    if min_positives < 2:
        raise ValueError(f"min_positives must be >= 2, got {min_positives}")

    stamps = sorted(network.timestamp_set(), reverse=True)
    first = network.first_timestamp()
    tasks: list[LinkPredictionTask] = []
    times: list[float] = []
    skipped: list[float] = []
    for offset, stamp in enumerate(stamps):
        if len(tasks) >= n_folds:
            break
        if stamp <= first:
            break
        window = network.slice(first, stamp + 0.5)  # history + fold stamp
        positives = {
            frozenset((u, v))
            for u, v, ts in window.edges()
            if ts == stamp
        }
        if len(positives) < min_positives:
            skipped.append(stamp)
            continue
        task = build_link_prediction_task(
            window,
            train_fraction=train_fraction,
            negative_ratio=negative_ratio,
            exclude_history_negatives=exclude_history_negatives,
            max_positives=max_positives,
            seed=seed + offset,
        )
        tasks.append(task)
        times.append(stamp)
    if not tasks:
        raise NetworkTooSmallError(
            f"no timestamp yields >= {min_positives} positive pairs"
        )
    return TemporalFolds(tasks=tasks, prediction_times=times, skipped_times=skipped)


@dataclass(frozen=True)
class CrossValidationResult:
    """Aggregated AUC/F1 over temporal folds for one method."""

    method: str
    auc_values: tuple[float, ...]
    f1_values: tuple[float, ...]

    @property
    def auc_mean(self) -> float:
        return float(np.mean(self.auc_values))

    @property
    def auc_std(self) -> float:
        return float(np.std(self.auc_values))

    @property
    def f1_mean(self) -> float:
        return float(np.mean(self.f1_values))

    @property
    def f1_std(self) -> float:
        return float(np.std(self.f1_values))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.method}: AUC={self.auc_mean:.3f}±{self.auc_std:.3f} "
            f"F1={self.f1_mean:.3f}±{self.f1_std:.3f} "
            f"({len(self.auc_values)} folds)"
        )


def cross_validate_method(
    network: DynamicNetwork,
    method: str,
    *,
    config=None,
    n_folds: int = 3,
    min_positives: int = 10,
    seed: int = 0,
) -> CrossValidationResult:
    """Run one Table III method over rolling temporal folds.

    Args:
        network: the full dynamic network.
        method: a method name from the experiment registry.
        config: an :class:`~repro.experiments.config.ExperimentConfig`.
        n_folds / min_positives / seed: fold construction (see
            :func:`build_temporal_folds`).
    """
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import LinkPredictionExperiment

    config = config or ExperimentConfig()
    folds = build_temporal_folds(
        network,
        n_folds=n_folds,
        min_positives=min_positives,
        train_fraction=config.train_fraction,
        negative_ratio=config.negative_ratio,
        exclude_history_negatives=config.exclude_history_negatives,
        max_positives=config.max_positives,
        seed=seed,
    )
    aucs: list[float] = []
    f1s: list[float] = []
    for task in folds:
        experiment = LinkPredictionExperiment(task.history, config, task=task)
        result = experiment.run_method(method)
        aucs.append(result.auc)
        f1s.append(result.f1)
    return CrossValidationResult(
        method=method, auc_values=tuple(aucs), f1_values=tuple(f1s)
    )
