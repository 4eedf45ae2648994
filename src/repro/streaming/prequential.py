"""Prequential ("test-then-train") evaluation over the link stream.

Sec. III frames a dynamic network as a *stream* of timestamped links.
The paper evaluates one frozen split; a streaming system would instead
interleave prediction and learning: at every timestamp ``t`` the model —
trained on everything before ``t`` — predicts which pairs link at ``t``,
is scored, and then absorbs timestamp ``t``'s links before moving on.
This module provides that protocol:

* :class:`StreamingSSFPredictor` — an online SSF model: it maintains the
  growing history network, refits its downstream model (linear or
  neural) every ``refit_every`` timestamps on a sliding window of
  labelled pairs, and answers ``score(pairs)`` at any point of the
  stream.
* :func:`prequential_evaluate` — drives any scorer factory through the
  stream, collecting per-timestamp AUC and the running mean.

This is an extension beyond the paper (its natural deployment mode for a
systems venue) and doubles as a harder robustness test: the model is
evaluated on *every* prediction time, not one cherry-picked split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np

from repro.core.feature import BACKENDS, SSFConfig, SSFExtractor
from repro.graph.csr import CSRSnapshot
from repro.graph.temporal import DynamicNetwork, median_timestamp_gap
from repro.metrics.classification import roc_auc_score
from repro.models.linear import LinearRegressionModel
from repro.models.neural import NeuralMachine
from repro.obs import emit_alert, get_logger, heartbeat_tick, incr, observe, set_gauge, span
from repro.sampling.splits import NetworkTooSmallError
from repro.utils.rng import ensure_rng

Node = Hashable
Pair = tuple[Node, Node]

_LOG = get_logger("streaming.prequential")


class StreamingSSFPredictor:
    """An SSF link predictor that learns as the stream advances.

    Lifecycle: ``observe(edges_of_t)`` per timestamp; ``score(pairs)``
    may be called at any time and uses the model trained on the history
    seen so far.  Training pairs are harvested online: each observed
    timestamp contributes its new positive pairs plus matched random
    negatives, kept in a sliding window of the most recent
    ``window_size`` labelled pairs.

    Args:
        config: SSF hyper-parameters.
        model: ``"linear"`` (cheap, default for streams) or ``"neural"``.
        refit_every: refit the downstream model after this many observed
            timestamps (1 = every timestamp).
        window_size: labelled-pair memory; older pairs are dropped so the
            model tracks drift.
        epochs: neural-machine epochs per refit (ignored for linear).
        backend: SSF extraction substrate.  Each observed timestamp
            extracts its labelled pairs in ONE ``extract_batch`` call over
            the history so far.  The default ``"csr"`` freezes that history
            once per state (``score`` and the ``observe`` of the same stamp
            share the snapshot) and runs the batched engine, which pays for
            the freeze (see docs/PERFORMANCE.md, "Choosing a backend");
            ``"dict"`` is the reference it is checked against, with
            bit-identical features.
        seed: RNG for negative harvesting and model init.
    """

    def __init__(
        self,
        config: "SSFConfig | None" = None,
        *,
        model: str = "linear",
        refit_every: int = 1,
        window_size: int = 600,
        epochs: int = 30,
        backend: str = "csr",
        seed: int = 0,
    ) -> None:
        if model not in ("linear", "neural"):
            raise ValueError(f"model must be 'linear' or 'neural', got {model!r}")
        if refit_every < 1:
            raise ValueError(f"refit_every must be >= 1, got {refit_every}")
        if window_size < 10:
            raise ValueError(f"window_size must be >= 10, got {window_size}")
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        self.config = config or SSFConfig()
        self.backend = backend
        self.model_kind = model
        self.refit_every = refit_every
        self.window_size = window_size
        self.epochs = epochs
        self._rng = ensure_rng(seed)
        self._seed = seed

        self.history = DynamicNetwork()
        # the csr freeze of ``history``, kept until observe() changes it
        self._snapshot: "CSRSnapshot | None" = None
        self._observed_times: list[float] = []
        self._window_pairs: list[Pair] = []
        self._window_labels: list[int] = []
        self._window_features: list[np.ndarray] = []
        self._model: "LinearRegressionModel | NeuralMachine | None" = None
        self._observed_stamps = 0
        self._current_time: "float | None" = None

    # ------------------------------------------------------------------
    # stream ingestion
    # ------------------------------------------------------------------
    def observe(self, edges: Sequence[tuple[Node, Node, float]]) -> None:
        """Absorb one timestamp's batch of links (test-then-train order:
        call :meth:`score` for this timestamp *before* observing it)."""
        if not edges:
            return
        stamps = {float(ts) for _, _, ts in edges}
        if len(stamps) != 1:
            raise ValueError("observe() expects links of a single timestamp")
        stamp = stamps.pop()
        if self._current_time is not None and stamp <= self._current_time:
            raise ValueError(
                f"stream must advance: got {stamp} after {self._current_time}"
            )

        # Harvest labelled pairs BEFORE updating the history, so their
        # features reflect exactly the pre-stamp knowledge.  Only pairs
        # whose endpoints the history already knows qualify: a node
        # arriving with this very stamp has the degenerate empty-history
        # feature vector, and labelling it 1 while negatives are sampled
        # from observed nodes would teach the model "degenerate ⇒
        # positive" (the same filter prequential_evaluate applies before
        # scoring a window).
        positives = [
            (u, v)
            for u, v in self._new_positive_pairs(edges)
            if self.history.has_node(u) and self.history.has_node(v)
        ]
        if positives and self.history.number_of_links():
            negatives = self._sample_negatives(len(positives), positives)
            pairs = positives + negatives
            extractor = SSFExtractor(
                self._substrate(), self.config, present_time=stamp, backend=self.backend
            )
            self._window_pairs.extend(pairs)
            self._window_labels.extend([1] * len(positives) + [0] * len(negatives))
            self._window_features.extend(extractor.extract_batch(pairs))
            overflow = len(self._window_pairs) - self.window_size
            if overflow > 0:
                del self._window_pairs[:overflow]
                del self._window_labels[:overflow]
                del self._window_features[:overflow]

        for u, v, ts in edges:
            self.history.add_edge(u, v, ts)
        self._snapshot = None
        self._current_time = stamp
        self._observed_times.append(stamp)
        self._observed_stamps += 1
        if self._observed_stamps % self.refit_every == 0:
            self._refit()

    def _substrate(self) -> "DynamicNetwork | CSRSnapshot":
        """The history as the extractors read it: live on dict, frozen
        once per history state on csr."""
        if self.backend == "dict":
            return self.history
        if self._snapshot is None:
            self._snapshot = CSRSnapshot.from_dynamic(self.history)
        return self._snapshot

    def _new_positive_pairs(self, edges) -> list[Pair]:
        seen: set[frozenset] = set()
        out: list[Pair] = []
        for u, v, _ in edges:
            key = frozenset((u, v))
            if key not in seen:
                seen.add(key)
                out.append((u, v))
        return out

    def _sample_negatives(self, count: int, positives: list[Pair]) -> list[Pair]:
        """Random non-linked pairs to pair with this stamp's positives.

        A negative must be genuinely unlinked *in the knowledge the
        features are extracted from*: pairs already connected somewhere
        in the observed history are rejected alongside the current
        stamp's positives — labelling a historical link 0 would feed the
        model contradictory training data.
        """
        nodes = self.history.nodes
        if len(nodes) < 3:
            return []
        forbidden = {frozenset(p) for p in positives}
        out: list[Pair] = []
        attempts = 0
        while len(out) < count and attempts < 50 * count:
            attempts += 1
            i, j = self._rng.integers(len(nodes)), self._rng.integers(len(nodes))
            if i == j:
                continue
            u, v = nodes[int(i)], nodes[int(j)]
            key = frozenset((u, v))
            if key in forbidden:
                continue
            if self.history.has_edge(u, v):
                continue
            forbidden.add(key)
            out.append((u, v))
        return out

    def _refit(self) -> None:
        labels = np.array(self._window_labels)
        if len(labels) < 10 or len(set(labels.tolist())) < 2:
            return
        features = np.stack(self._window_features)
        if self.model_kind == "linear":
            self._model = LinearRegressionModel().fit(features, labels)
        else:
            self._model = NeuralMachine(
                input_dim=features.shape[1],
                epochs=self.epochs,
                seed=self._seed,
            ).fit(features, labels)

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    @property
    def is_ready(self) -> bool:
        """Whether at least one refit has produced a usable model."""
        return self._model is not None

    def _stream_step(self) -> float:
        """The stream's characteristic inter-stamp spacing.

        Delegates to :func:`repro.graph.temporal.median_timestamp_gap`
        (shared with the recommender's serving clock): the median gap
        between observed timestamps, falling back to 1.0 until two
        stamps have been observed (a single stamp has no gap to
        measure).
        """
        return median_timestamp_gap(self._observed_times)

    def scoring_time(self) -> float:
        """The ``present_time`` used by :meth:`score`.

        One stream step past the last observed stamp, where the step is
        the observed median inter-stamp gap (:meth:`_stream_step`).  A
        hard-coded ``+1.0`` would distort the ``exp(-θ·Δt)`` influence
        whenever the stream's stamps are not unit-spaced: on a stream
        with spacing 100 it would treat every historical link as ~one
        step fresher than it is about to be at the next real stamp.
        """
        if self._current_time is None:
            return 1.0
        return self._current_time + self._stream_step()

    def score(self, pairs: Sequence[Pair]) -> np.ndarray:
        """Scores for candidate pairs at the current stream position.

        Before the first refit every pair scores 0 (no model yet).
        Features are extracted at :meth:`scoring_time` — one observed
        median inter-stamp gap past the newest history.
        """
        if not pairs:
            return np.zeros(0)
        if self._model is None or self.history.number_of_links() == 0:
            return np.zeros(len(pairs))
        extractor = SSFExtractor(
            self._substrate(),
            self.config,
            present_time=self.scoring_time(),
            backend=self.backend,
        )
        features = extractor.extract_batch(list(pairs))
        return self._model.decision_scores(features)


@dataclass
class PrequentialResult:
    """Per-timestamp AUCs of one prequential run.

    ``alerts`` holds one dict per drift-threshold crossing (timestamp,
    window auc, running mean, drift, threshold) — the same facts the
    structured ``obs.alert`` log record carried when it fired.
    """

    timestamps: list[float] = field(default_factory=list)
    aucs: list[float] = field(default_factory=list)
    skipped: list[float] = field(default_factory=list)
    alerts: list[dict] = field(default_factory=list)

    @property
    def mean_auc(self) -> float:
        return float(np.mean(self.aucs)) if self.aucs else float("nan")

    def summary(self) -> str:
        """How many windows were scored and skipped, then the mean AUC
        when at least one was scored (never ``nan``)."""
        counts = f"windows: {len(self.aucs)} scored, {len(self.skipped)} skipped"
        return f"{counts}, mean AUC={self.mean_auc:.3f}" if self.aucs else counts

    def __str__(self) -> str:
        return f"prequential {self.summary()}"


def prequential_evaluate(
    network: DynamicNetwork,
    predictor: StreamingSSFPredictor,
    *,
    warmup_fraction: float = 0.5,
    min_positives: int = 5,
    negative_ratio: float = 1.0,
    seed: int = 0,
    drift_threshold: "float | None" = 0.2,
) -> PrequentialResult:
    """Drive ``predictor`` through ``network``'s stream, test-then-train.

    The first ``warmup_fraction`` of timestamps are only observed; each
    later timestamp with at least ``min_positives`` new positive pairs is
    scored (positives vs. random negatives) before being absorbed.

    Every scored window also feeds the live quality monitors: gauges
    ``stream.last_window_auc``, ``stream.auc_drift`` (window AUC minus
    the running mean of previous windows), ``stream.positive_rate`` and
    ``stream.score_shift`` (window mean score minus the mean of previous
    windows' mean scores).  When a window's AUC falls more than
    ``drift_threshold`` below the running mean, one structured
    ``auc_drift`` alert fires per crossing (``obs.alert`` log record,
    ``stream.drift_alerts`` counter, and an entry in ``result.alerts``).
    ``drift_threshold=None`` disables alerting; any other value must be
    positive and finite (a NaN or an infinity would never fire).  The
    gauges cost nothing unless observability is enabled.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    if drift_threshold is not None and not 0 < drift_threshold < float("inf"):
        raise ValueError(
            f"drift_threshold must be a positive finite number or None, "
            f"got {drift_threshold}"
        )
    rng = ensure_rng(seed)
    stamps = sorted(network.timestamp_set())
    if len(stamps) < 2:
        raise NetworkTooSmallError(
            f"{len(stamps)} distinct timestamp(s); need at least two to stream"
        )
    by_stamp: dict[float, list[tuple]] = {s: [] for s in stamps}
    for u, v, ts in network.edges():
        by_stamp[ts].append((u, v, ts))

    warmup_end = stamps[int(len(stamps) * warmup_fraction)]
    result = PrequentialResult()
    window_mean_scores: list[float] = []
    for stamp_index, stamp in enumerate(stamps):
        edges = by_stamp[stamp]
        heartbeat_tick("stream", done=stamp_index, total=len(stamps))
        if stamp > warmup_end and predictor.is_ready:
            positives = predictor._new_positive_pairs(edges)
            positives = [
                (u, v)
                for u, v in positives
                if predictor.history.has_node(u) and predictor.history.has_node(v)
            ]
            if len(positives) >= min_positives:
                # Negatives come from the nodes the predictor has
                # actually seen — exactly the pool the positives were
                # filtered to.  Sampling from the *full* network would
                # admit nodes that only appear at future timestamps,
                # whose degenerate (empty-history) features are trivial
                # to rank below any real pair and inflate the AUC.
                negatives = _random_negatives(
                    predictor.history.nodes,
                    int(len(positives) * negative_ratio),
                    {frozenset(p) for p in positives},
                    rng,
                )
                pairs = positives + negatives
                labels = np.array([1] * len(positives) + [0] * len(negatives))
                with span("stream.window", timestamp=stamp):
                    scores = predictor.score(pairs)
                auc = roc_auc_score(labels, scores)
                # live quality monitors: absolute window quality, its
                # distance from the run so far, the class balance scored,
                # and how far the score distribution itself moved.
                set_gauge("stream.last_window_auc", auc)
                set_gauge("stream.positive_rate", len(positives) / len(pairs))
                window_mean = float(np.mean(scores))
                if window_mean_scores:
                    set_gauge(
                        "stream.score_shift",
                        window_mean - float(np.mean(window_mean_scores)),
                    )
                window_mean_scores.append(window_mean)
                if result.aucs:
                    # drift: how far this window sits from the mean so
                    # far — a sustained negative gauge means the model is
                    # falling behind the stream.
                    drift = auc - result.mean_auc
                    set_gauge("stream.auc_drift", drift)
                    if drift_threshold is not None and -drift > drift_threshold:
                        incr("stream.drift_alerts")
                        alert = {
                            "timestamp": float(stamp),
                            "auc": float(auc),
                            "mean_auc": float(result.mean_auc),
                            "drift": float(-drift),
                            "threshold": float(drift_threshold),
                        }
                        result.alerts.append(alert)
                        emit_alert(
                            "auc_drift",
                            f"window t={stamp} AUC {auc:.3f} fell "
                            f"{-drift:.3f} below running mean "
                            f"{result.mean_auc:.3f}",
                            **alert,
                        )
                incr("stream.windows_scored")
                observe("stream.window_auc", auc)
                result.timestamps.append(stamp)
                result.aucs.append(auc)
                _LOG.debug(
                    "prequential window t=%s: AUC=%.3f over %d pairs "
                    "(running mean %.3f)",
                    stamp,
                    auc,
                    len(pairs),
                    result.mean_auc,
                )
            else:
                incr("stream.windows_skipped")
                result.skipped.append(stamp)
        predictor.observe(edges)
    heartbeat_tick("stream", done=len(stamps), total=len(stamps), force=True)
    _LOG.info("prequential run complete: %s", result.summary())
    return result


def _random_negatives(nodes, count, forbidden, rng) -> list[Pair]:
    out: list[Pair] = []
    attempts = 0
    while len(out) < count and attempts < 100 * max(count, 1):
        attempts += 1
        i, j = rng.integers(len(nodes)), rng.integers(len(nodes))
        if i == j:
            continue
        u, v = nodes[int(i)], nodes[int(j)]
        key = frozenset((u, v))
        if key in forbidden:
            continue
        forbidden.add(key)
        out.append((u, v))
    return out
