"""Online serving layer: incremental ingestion + async recommendation.

The offline pipeline freezes one :class:`~repro.graph.csr.CSRSnapshot`
per experiment; serving cannot afford that rebuild per edge event.  This
package provides the serving-side substrate and surface:

* :class:`DeltaCSRSnapshot` — append edge events, materialise snapshots
  by vectorised delta merge, bit-identical to a full rebuild; its
  ``most_active`` ranks hubs by decayed activity read from the
  snapshot's own Eq. 2 influence table.
* :class:`FeatureCache` — LRU feature cache keyed on
  :func:`~repro.serve.cache.pair_key`; an ingest drops exactly the rows
  its events can change (an endpoint in a row's inner ball, or one
  event joining two nodes of its grown footprint).
* :class:`ServingRecommender` / :class:`AsyncScoringFrontend` — the
  one recommender (``ServingRecommender.fit`` trains it), a batched
  scoring core, and its coalescing asyncio front-end.  Its ``ingest``
  owns the serving clock: an ingest that moves it empties the cache
  and the result memo, so every served row and ranking equals a cold
  recomputation.
* :func:`run_replay` — the measured replay harness behind
  ``repro serve --replay`` and the CI serving smoke step.

See docs/SERVING.md for the architecture and why the cache is exact.
"""

from repro.serve.cache import DEFAULT_CACHE_ENTRIES, FeatureCache, pair_key
from repro.serve.delta import DeltaCSRSnapshot
from repro.serve.frontend import (
    DEFAULT_MAX_BATCH,
    AsyncScoringFrontend,
    ServingRecommender,
    ServingTimeout,
)
from repro.serve.replay import ReplayResult, run_replay, split_replay_stream

__all__ = [
    "AsyncScoringFrontend",
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
