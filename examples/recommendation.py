"""Partner recommendation — the paper's motivating application surface.

Trains a recommender on a co-author network's history (self-supervised,
the paper's exact task), then (1) shows top-5 collaborator suggestions
for the most active researchers and (2) scores the offline hit rate:
for users who really did gain a new co-author at the last timestamp,
how often does the true partner appear in the top-10?

Run:  python examples/recommendation.py
"""

from repro.datasets import get_dataset
from repro.recommend import hit_rate_at_n
from repro.serve import ServingRecommender
from repro.tuning import grid_search


def main() -> None:
    network = get_dataset("co-author").generate(seed=0, scale=0.5)
    print(
        f"co-author network: {network.number_of_nodes()} researchers, "
        f"{network.number_of_links()} collaborations\n"
    )

    print("tuning K on earlier timestamps (final year held out)...")
    tuned = grid_search(
        network, "SSFLR", {"k": (5, 10, 15)}, n_folds=2, min_positives=5
    )
    print(tuned.format())
    best_k = tuned.best_params["k"]

    from repro.core import SSFConfig

    recommender = ServingRecommender.fit(
        network, config=SSFConfig(k=best_k), model="linear", seed=0
    )
    active = sorted(network.nodes, key=network.degree, reverse=True)[:3]
    for user in active:
        suggestions = recommender.recommend(user, top_n=5)
        pretty = ", ".join(str(s) for s in suggestions)
        print(f"\nsuggested collaborators for {user!r}: {pretty}")

    rate = hit_rate_at_n(network, top_n=10, n_users=25, seed=0)
    print(f"\noffline hit rate@10 (users with a truly new partner): {rate:.2f}")


if __name__ == "__main__":
    main()
