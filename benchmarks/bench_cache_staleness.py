"""What the feature cache's one opt-in approximation costs.

``FeatureCache(max_staleness=None)`` keeps serving a row, and the
result memo keeps serving a ranking, after the serving clock has moved,
so the row's ``exp(-θ·Δt)`` factors lag the clock.  The default
(``max_staleness=0.0``) is exact: a moved clock is a miss.

This script fits one recommender on the oldest 80% of ``co-author``'s
stamps and builds two serving cores around its model, one per setting.  Both cores serve the 64
most active users, then ingest the stream's next events in batches of 4.
After each batch every hot user's top-N is compared between the cores:
the mean overlap ``|A ∩ B| / N`` and the share of identical lists.  The
cache misses of each core (each one an extraction) show what the
approximation saves.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_cache_staleness.py --ingests 4
"""

from __future__ import annotations

import argparse
import json

from repro.core.feature import SSFConfig
from repro.datasets.catalog import get_dataset
from repro.serve import (
    DeltaCSRSnapshot,
    FeatureCache,
    ServingRecommender,
    split_replay_stream,
)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dataset", default="co-author")
    parser.add_argument("--ingests", type=int, default=4)
    parser.add_argument("--events-per-ingest", type=int, default=4)
    parser.add_argument("--users", type=int, default=64)
    parser.add_argument("--top-n", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    network = get_dataset(args.dataset).generate(seed=0)
    history, tail = split_replay_stream(network, 0.2)
    config = SSFConfig(k=10, theta=0.5)
    exact = ServingRecommender.fit(history, config=config, seed=args.seed)
    lagging = ServingRecommender(
        DeltaCSRSnapshot.from_dynamic(history, theta=config.theta),
        exact.model,
        config,
        cache=FeatureCache(max_staleness=None),
    )
    users = exact.delta.most_active(args.users)
    for user in users:
        exact.recommend(user, top_n=args.top_n)
        lagging.recommend(user, top_n=args.top_n)

    step = args.events_per_ingest
    rows = []
    for number in range(args.ingests):
        batch = tail[number * step : (number + 1) * step]
        clock = exact.delta.scoring_time()
        for core in (exact, lagging):
            core.ingest(batch)
        overlap = identical = 0.0
        for user in users:
            a = [s.node for s in exact.recommend(user, top_n=args.top_n)]
            b = [s.node for s in lagging.recommend(user, top_n=args.top_n)]
            overlap += len(set(a) & set(b)) / args.top_n
            identical += a == b
        rows.append(
            {
                "ingest": number + 1,
                "clock_moved": exact.delta.scoring_time() != clock,
                "mean_overlap": round(overlap / len(users), 3),
                "identical_share": round(identical / len(users), 3),
                "cache_misses_exact": exact.cache.misses,
                "cache_misses_lagging": lagging.cache.misses,
            }
        )
        print(json.dumps(rows[-1]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
