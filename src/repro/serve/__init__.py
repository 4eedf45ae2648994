"""Online serving layer: incremental ingestion + async recommendation.

The offline pipeline freezes one :class:`~repro.graph.csr.CSRSnapshot`
per experiment; serving cannot afford that rebuild per edge event.  This
package provides the serving-side substrate and surface:

* :class:`DeltaCSRSnapshot` — append edge events, materialise snapshots
  by vectorised delta merge, bit-identical to a full rebuild.
* :class:`DecayedInfluenceIndex` — O(1)-per-event decayed activity
  summaries for recency-aware candidate ranking.
* :class:`FeatureCache` — LRU feature cache keyed on
  :func:`~repro.serve.cache.pair_key`, invalidated on each row's grown
  footprint.
* :class:`ServingRecommender` / :class:`AsyncScoringFrontend` — the
  one recommender (``ServingRecommender.fit`` trains it), a batched
  scoring core, and its coalescing asyncio front-end.
* :func:`run_replay` — the measured replay harness behind
  ``repro serve --replay`` and the CI serving smoke step.

See docs/SERVING.md for the architecture and the cache's one opt-in
approximation.
"""

from repro.serve.cache import DEFAULT_CACHE_ENTRIES, CacheEntry, FeatureCache, pair_key
from repro.serve.delta import DecayedInfluenceIndex, DeltaCSRSnapshot
from repro.serve.frontend import (
    DEFAULT_MAX_BATCH,
    AsyncScoringFrontend,
    ServingRecommender,
    ServingTimeout,
)
from repro.serve.replay import ReplayResult, run_replay, split_replay_stream

__all__ = [
    "AsyncScoringFrontend",
    "CacheEntry",
    "DecayedInfluenceIndex",
    "DeltaCSRSnapshot",
    "DEFAULT_CACHE_ENTRIES",
    "DEFAULT_MAX_BATCH",
    "FeatureCache",
    "ReplayResult",
    "ServingRecommender",
    "ServingTimeout",
    "pair_key",
    "run_replay",
    "split_replay_stream",
]
