"""Running methods on datasets — the engine behind Table III and Fig. 7.

:class:`LinkPredictionExperiment` owns one dataset's split and a feature
cache; methods are evaluated on demand.  Feature kinds map to extractor
runs, and the two SSF variants ("ssf" temporal entries, "ssf_w" count
entries) share one subgraph pass per pair batch:
:func:`~repro.core.parallel.parallel_extract_batch` with ``modes=``
runs :meth:`~repro.core.feature.SSFExtractor.extract_multi_batch` in
each chunk.

Module-level helpers :func:`run_dataset` and :func:`run_table3` regenerate
entire table columns / the full table.

Fault tolerance: pass a :class:`~repro.robust.checkpoint.RunCheckpoint`
(or ``checkpoint_dir`` to :func:`run_table3`) and every completed
``(dataset, method)`` cell — plus the extracted feature matrices, which
dominate the cost — is persisted as it lands.  A killed run resumed into
the same directory recomputes only the missing cells and produces
``MethodResult``\\ s equal to an uninterrupted run (``repro table3
--resume <dir>``; see docs/ROBUSTNESS.md).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines import WLFExtractor
from repro.core.feature import SSFConfig
from repro.datasets.catalog import DatasetSpec, get_dataset
from repro.experiments.config import ExperimentConfig
from repro.experiments.methods import (
    FEATURE_METHODS,
    METHOD_ORDER,
    RANKING_METHODS,
    MethodResult,
    validate_method_name,
)
from repro.graph.temporal import DynamicNetwork
from repro.metrics.classification import f1_score, roc_auc_score
from repro.models.linear import LinearRegressionModel
from repro.models.neural import NeuralMachine
from repro.models.ranking import ThresholdClassifier
from repro.obs import get_logger, heartbeat_tick, incr, set_phase, span, tracemalloc_stage
from repro.robust import RetryPolicy
from repro.robust.checkpoint import RunCheckpoint
from repro.sampling.splits import LinkPredictionTask, build_link_prediction_task

#: the feature kinds the cache understands
_FEATURE_KINDS = ("wlf", "ssf", "ssf_w")

_LOG = get_logger("experiments.runner")


class LinkPredictionExperiment:
    """One dataset, one split, all methods.

    Example:
        >>> from repro.datasets import get_dataset
        >>> net = get_dataset("co-author").generate(seed=0, scale=0.2)
        >>> exp = LinkPredictionExperiment(net, ExperimentConfig().fast())
        >>> result = exp.run_method("CN")
        >>> 0.0 <= result.auc <= 1.0
        True
    """

    def __init__(
        self,
        network: DynamicNetwork,
        config: "ExperimentConfig | None" = None,
        task: "LinkPredictionTask | None" = None,
        *,
        checkpoint: "RunCheckpoint | None" = None,
        dataset_name: str = "dataset",
    ) -> None:
        """Args:
        network: the full dynamic network (history + final timestamp).
        config: hyper-parameters; defaults to :class:`ExperimentConfig`.
        task: a pre-built split (otherwise built from ``network`` with
            the config's split settings).
        checkpoint: when given, completed method results and feature
            matrices are persisted there and reloaded instead of
            recomputed (crash/resume support).
        dataset_name: the checkpoint cell key for this experiment's
            dataset.
        """
        self.config = config or ExperimentConfig()
        self.network = network
        self.checkpoint = checkpoint
        self.dataset_name = dataset_name
        self.task = task or build_link_prediction_task(
            network,
            train_fraction=self.config.train_fraction,
            negative_ratio=self.config.negative_ratio,
            exclude_history_negatives=self.config.exclude_history_negatives,
            max_positives=self.config.max_positives,
            seed=self.config.seed,
        )
        self._feature_cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # feature extraction (cached)
    # ------------------------------------------------------------------
    def feature_matrices(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """(train, test) feature matrices for a feature kind.

        ``"ssf"`` and ``"ssf_w"`` are computed together on first request.
        """
        if kind not in _FEATURE_KINDS:
            raise ValueError(f"unknown feature kind {kind!r}; one of {_FEATURE_KINDS}")
        cached = self._feature_cache.get(kind)
        if cached is not None:
            incr("runner.feature_cache.hits")
            return cached
        incr("runner.feature_cache.misses")
        if self._load_checkpointed_features(kind):
            return self._feature_cache[kind]

        if kind == "wlf":
            with span("runner.extract_features", kind="wlf"):
                with tracemalloc_stage("extract_wlf"):
                    extractor = WLFExtractor(self.task.history, k=self.config.k)
                    self._feature_cache["wlf"] = (
                        extractor.extract_batch(self.task.train_pairs),
                        extractor.extract_batch(self.task.test_pairs),
                    )
        else:
            with span("runner.extract_features", kind="ssf"):
                with tracemalloc_stage("extract_ssf"):
                    self._extract_ssf_features()
        self._checkpoint_features(("wlf",) if kind == "wlf" else ("ssf", "ssf_w"))
        _LOG.debug(
            "feature matrices ready for kind=%s (%d train / %d test pairs)",
            kind,
            len(self.task.train_pairs),
            len(self.task.test_pairs),
        )
        return self._feature_cache[kind]

    def _load_checkpointed_features(self, kind: str) -> bool:
        """Fill the cache for ``kind`` from the checkpoint, if possible.

        The two SSF kinds are extracted together, so both must be
        present for either to load — otherwise a resumed run would pay
        the shared extraction again anyway.
        """
        if self.checkpoint is None:
            return False
        kinds = ("wlf",) if kind == "wlf" else ("ssf", "ssf_w")
        loaded = {
            k: self.checkpoint.load_features(self.dataset_name, k) for k in kinds
        }
        if any(v is None for v in loaded.values()):
            return False
        for k, matrices in loaded.items():
            assert matrices is not None
            self._feature_cache[k] = matrices
        _LOG.info(
            "feature matrices for %s kind(s) %s restored from checkpoint",
            self.dataset_name,
            ", ".join(kinds),
        )
        return True

    def _checkpoint_features(self, kinds: "tuple[str, ...]") -> None:
        if self.checkpoint is None:
            return
        for kind in kinds:
            train, test = self._feature_cache[kind]
            self.checkpoint.save_features(self.dataset_name, kind, train, test)

    def _extract_ssf_features(self) -> None:
        """Fill the cache for both SSF variants with shared extraction."""
        from repro.core.parallel import parallel_extract_batch
        from repro.graph.csr import CSRSnapshot

        config = SSFConfig(k=self.config.k, theta=self.config.theta)
        # "temporal" entries are the SSF default (see repro.core.feature);
        # "count" entries are the static SSF-W variant's 0/k encoding.
        modes = ("temporal", "count")
        # On the csr backend, freeze ONE snapshot for the whole observed
        # window and reuse it across the train and test batches (and every
        # pool worker) so the freeze cost is paid once per history.
        backend = self.config.backend
        history = (
            CSRSnapshot.from_dynamic(self.task.history)
            if backend == "csr"
            else self.task.history
        )

        retry = RetryPolicy(
            max_retries=self.config.max_retries,
            chunk_timeout=self.config.chunk_timeout,
        )

        def batch(pairs: Sequence[tuple]) -> dict[str, np.ndarray]:
            return parallel_extract_batch(
                history,
                config,
                pairs,
                present_time=self.task.present_time,
                modes=modes,
                workers=self.config.n_jobs,
                backend=backend,
                retry=retry,
            )

        train = batch(self.task.train_pairs)
        test = batch(self.task.test_pairs)
        self._feature_cache["ssf"] = (train["temporal"], test["temporal"])
        self._feature_cache["ssf_w"] = (train["count"], test["count"])

    # ------------------------------------------------------------------
    # method evaluation
    # ------------------------------------------------------------------
    def run_method(self, name: str) -> MethodResult:
        """Evaluate one Table III method on this experiment's split.

        With a checkpoint attached, a cell completed by an earlier
        (possibly killed) run is returned straight from disk.
        """
        validate_method_name(name)
        if self.checkpoint is not None:
            restored = self.checkpoint.load_result(self.dataset_name, name)
            if restored is not None:
                incr("robust.resumed_cells")
                _LOG.info(
                    "cell (%s, %s) restored from checkpoint", self.dataset_name, name
                )
                return restored
        if name in RANKING_METHODS:
            result = self._run_ranking(name)
        else:
            result = self._run_feature_model(name)
        if self.checkpoint is not None:
            self.checkpoint.save_result(self.dataset_name, result)
        return result

    def run_methods(
        self, names: "Sequence[str] | None" = None
    ) -> dict[str, MethodResult]:
        """Evaluate several methods (defaults to the full Table III set).

        Progress is published live: the run phase tracks the current
        ``dataset/method`` cell (served by the telemetry ``/healthz``
        endpoint) and the heartbeat file advances one beat per cell.
        """
        selected = list(names or METHOD_ORDER)
        out: dict[str, MethodResult] = {}
        for position, name in enumerate(selected):
            set_phase(f"table3:{self.dataset_name}/{name}")
            heartbeat_tick(
                f"methods:{self.dataset_name}",
                done=position,
                total=len(selected),
                force=True,
            )
            out[name] = self.run_method(name)
        heartbeat_tick(
            f"methods:{self.dataset_name}",
            done=len(selected),
            total=len(selected),
            force=True,
        )
        return out

    def _run_ranking(self, name: str) -> MethodResult:
        scorer = RANKING_METHODS[name](self.config)
        classifier = ThresholdClassifier(scorer).fit(
            self.task.history, self.task.train_pairs, self.task.train_labels
        )
        scores = classifier.decision_scores(self.task.test_pairs)
        predictions = classifier.predict(self.task.test_pairs)
        return self._result(name, scores, predictions, threshold=classifier.threshold)

    def _run_feature_model(self, name: str) -> MethodResult:
        feature_kind, model_kind = FEATURE_METHODS[name]
        x_train, x_test = self.feature_matrices(feature_kind)
        if model_kind == "linear":
            model = LinearRegressionModel().fit(x_train, self.task.train_labels)
        else:
            model = NeuralMachine(
                input_dim=x_train.shape[1],
                learning_rate=self.config.learning_rate,
                batch_size=self.config.batch_size,
                epochs=self.config.epochs,
                seed=self.config.seed,
            ).fit(x_train, self.task.train_labels)
        scores = model.decision_scores(x_test)
        predictions = model.predict(x_test)
        return self._result(name, scores, predictions)

    def _result(
        self,
        name: str,
        scores: np.ndarray,
        predictions: np.ndarray,
        **extras,
    ) -> MethodResult:
        labels = self.task.test_labels
        return MethodResult(
            method=name,
            auc=roc_auc_score(labels, scores),
            f1=f1_score(labels, predictions),
            # raw test scores feed the significance testing downstream
            extras=dict(extras, test_scores=scores),
        )


def run_dataset(
    dataset: "str | DatasetSpec | DynamicNetwork",
    *,
    config: "ExperimentConfig | None" = None,
    methods: "Sequence[str] | None" = None,
    seed: int = 0,
    scale: float = 1.0,
    checkpoint: "RunCheckpoint | None" = None,
    dataset_name: "str | None" = None,
) -> dict[str, MethodResult]:
    """All (or selected) methods on one dataset.

    ``dataset`` may be a catalog name, a :class:`DatasetSpec`, or an
    already-built network.  With ``checkpoint``, completed cells are
    persisted as they land and reloaded on a resumed run.
    """
    if isinstance(dataset, DynamicNetwork):
        network = dataset
        name = dataset_name or "dataset"
    else:
        spec = get_dataset(dataset) if isinstance(dataset, str) else dataset
        network = spec.generate(seed=seed, scale=scale)
        name = dataset_name or spec.name
    experiment = LinkPredictionExperiment(
        network, config, checkpoint=checkpoint, dataset_name=name
    )
    return experiment.run_methods(methods)


def table3_manifest(
    datasets: "Sequence[str] | None",
    config: "ExperimentConfig | None",
    methods: "Sequence[str] | None",
    seed: int,
    scale: float,
) -> dict:
    """The settings fingerprint recorded in a Table-3 run directory.

    Resuming with a different fingerprint is refused — mixing settings
    across a resume would silently corrupt the table.
    """
    from dataclasses import asdict

    return {
        "experiment": "table3",
        "datasets": list(datasets) if datasets is not None else None,
        "methods": list(methods) if methods is not None else None,
        "seed": seed,
        "scale": scale,
        "config": asdict(config or ExperimentConfig()),
    }


def run_table3(
    datasets: "Sequence[str] | None" = None,
    *,
    config: "ExperimentConfig | None" = None,
    methods: "Sequence[str] | None" = None,
    seed: int = 0,
    scale: float = 1.0,
    checkpoint_dir: "str | None" = None,
) -> dict[str, dict[str, MethodResult]]:
    """Regenerate Table III: ``{dataset: {method: result}}``.

    With ``checkpoint_dir``, per-cell results are persisted there as the
    run progresses; re-running into the same directory (``repro table3
    --resume <dir>``) skips everything already completed.
    """
    from repro.datasets.catalog import DATASETS

    checkpoint: "RunCheckpoint | None" = None
    if checkpoint_dir is not None:
        checkpoint = RunCheckpoint(checkpoint_dir)
        checkpoint.ensure_manifest(
            table3_manifest(datasets, config, methods, seed, scale)
        )
    out: dict[str, dict[str, MethodResult]] = {}
    for name in datasets or list(DATASETS):
        out[name] = run_dataset(
            name,
            config=config,
            methods=methods,
            seed=seed,
            scale=scale,
            checkpoint=checkpoint,
        )
    return out
