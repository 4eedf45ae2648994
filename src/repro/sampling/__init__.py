"""Train/test construction for the link-prediction task (Sec. VI-C2)."""

from repro.sampling.negatives import STRATEGIES, sample_negative_pairs
from repro.sampling.splits import (
    LinkPredictionTask,
    NetworkTooSmallError,
    build_link_prediction_task,
)
from repro.sampling.temporal_cv import (
    CrossValidationResult,
    TemporalFolds,
    build_temporal_folds,
    cross_validate_method,
)

__all__ = [
    "LinkPredictionTask",
    "NetworkTooSmallError",
    "build_link_prediction_task",
    "STRATEGIES",
    "sample_negative_pairs",
    "TemporalFolds",
    "build_temporal_folds",
    "CrossValidationResult",
    "cross_validate_method",
]
