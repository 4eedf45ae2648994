"""Tests for the link recommender."""

import pytest

from repro.core.feature import SSFConfig, SSFExtractor
from repro.graph.csr import CSRSnapshot
from repro.graph.temporal import DynamicNetwork, median_timestamp_gap
from repro.models.linear import LinearRegressionModel
from repro.recommend import Suggestion, hit_rate_at_n
from repro.serve import ServingRecommender
from repro.serve.delta import DeltaCSRSnapshot
from repro.utils.rng import ensure_rng


@pytest.fixture(scope="module")
def network():
    from repro.datasets.catalog import get_dataset

    return get_dataset("co-author").generate(seed=0, scale=0.25)


@pytest.fixture(scope="module")
def recommender(network):
    return ServingRecommender.fit(network, model="linear", seed=0)


class TestCandidates:
    def test_excludes_current_partners_and_self(self, network, recommender):
        user = max(network.nodes, key=network.degree)
        pool = recommender.candidates(user)
        partners = network.neighbors(user)
        assert user not in pool
        assert not partners & set(pool)

    def test_includes_friends_of_friends(self, network, recommender):
        user = max(network.nodes, key=network.degree)
        partners = network.neighbors(user)
        two_hop = set()
        for p in partners:
            two_hop |= network.neighbors(p)
        two_hop -= partners | {user}
        if two_hop:
            assert two_hop & set(recommender.candidates(user))

    def test_unknown_user(self, recommender):
        with pytest.raises(KeyError):
            recommender.candidates("nope")


def _reference_pool(network, user, hops, hubs):
    """The ``hops``-hop ball by BFS over the dict network, plus hubs,
    minus the user's partners and the user."""
    seen, frontier = {user}, [user]
    for _ in range(hops):
        reached = {nb for node in frontier for nb in network.neighbor_view(node)}
        frontier = sorted(reached - seen, key=repr)
        seen.update(frontier)
    pool = (seen | set(hubs)) - network.neighbors(user) - {user}
    return sorted(pool, key=repr)


class TestCandidatesMatchDictReference:
    @pytest.fixture(scope="class")
    def tied(self):
        """Short paths around a few busy nodes: 1-, 2- and 3-hop balls
        differ, and the 3 hubs add nodes to most pools."""
        return DynamicNetwork(
            [
                ("h", "i", 1), ("a", "b", 1), ("c", "d", 1), ("e", "f", 2),
                ("b", "c", 2), ("g", "h", 3), ("d", "e", 3), ("f", "g", 4),
                ("j", "h", 5), ("a", "j", 5), ("k", "l", 5), ("a", "b", 6),
                ("m", "k", 6), ("k", "n", 6), ("k", "c", 7),
            ]
        )

    def test_offline_pools_on_a_catalog_graph(self, network, recommender):
        hubs = recommender._hubs()
        assert len(hubs) == recommender.global_candidates
        for user in network.nodes[::7]:
            assert recommender.candidates(user) == _reference_pool(
                network, user, recommender.candidate_hops, hubs
            ), user

    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_serving_pools(self, tied, hops):
        core = ServingRecommender(
            DeltaCSRSnapshot.from_dynamic(tied),
            LinearRegressionModel(),
            SSFConfig(k=4),
            candidate_hops=hops,
            global_candidates=3,
        )
        for user in tied.nodes:
            assert core.candidates(user) == _reference_pool(
                tied, user, hops, core._hubs()
            ), user


class TestRecommend:
    def test_top_n_sorted(self, network, recommender):
        user = max(network.nodes, key=network.degree)
        suggestions = recommender.recommend(user, top_n=5)
        assert len(suggestions) <= 5
        assert all(isinstance(s, Suggestion) for s in suggestions)
        scores = [s.score for s in suggestions]
        assert scores == sorted(scores, reverse=True)

    def test_deterministic(self, network, recommender):
        user = max(network.nodes, key=network.degree)
        a = recommender.recommend(user, top_n=5)
        b = recommender.recommend(user, top_n=5)
        assert [s.node for s in a] == [s.node for s in b]

    def test_top_n_validation(self, network, recommender):
        user = network.nodes[0]
        with pytest.raises(ValueError):
            recommender.recommend(user, top_n=0)

    def test_model_validation(self, network):
        with pytest.raises(ValueError):
            ServingRecommender.fit(network, model="bogus")


class TestFit:
    def test_fit_freezes_the_full_network_once(self, network, monkeypatch):
        """The training history and the full network are frozen once
        each: the delta substrate is the only freeze of the network."""
        frozen = []
        freeze = CSRSnapshot.from_dynamic.__func__

        def counting(cls, source):
            frozen.append(source)
            return freeze(cls, source)

        monkeypatch.setattr(CSRSnapshot, "from_dynamic", classmethod(counting))
        ServingRecommender.fit(network, seed=0)
        assert sum(source is network for source in frozen) == 1
        assert len(frozen) == 2


class TestServingClock:
    """Regression: the serving extractor's present time must sit one
    *observed median gap* past the last stamp, not a hard-coded +1.0 —
    on decade-spaced stamps that off-by-nine makes exp(-θ·Δt) treat
    every link as far fresher than it is."""

    @staticmethod
    def _spaced_network(step):
        rng = ensure_rng(0)
        events = []
        for stamp in range(1, 9):
            for _ in range(6):
                u, v = rng.integers(0, 16, size=2)
                if u != v:
                    events.append((f"n{u}", f"n{v}", float(stamp * step)))
        return DynamicNetwork(events)

    def test_present_time_is_last_plus_median_gap(self):
        network = self._spaced_network(step=10.0)
        recommender = ServingRecommender.fit(network, seed=0)
        expected = network.last_timestamp() + median_timestamp_gap(
            network.timestamp_set()
        )
        assert recommender.extractor.present_time == expected == 90.0

    def test_hit_rate_on_wide_spacing(self):
        """hit_rate_at_n on stamps spaced by 100: with the old +1.0
        clock every influence entry collapsed toward exp(-θ·100)≈0; the
        median-gap clock keeps the evaluation meaningful and bounded."""
        wide = self._spaced_network(step=100.0)
        rate = hit_rate_at_n(wide, top_n=5, n_users=8, seed=0)
        assert 0.0 <= rate <= 1.0


class TestHitRate:
    def test_in_unit_interval_and_better_than_nothing(self, network):
        rate = hit_rate_at_n(network, top_n=10, n_users=15, seed=0)
        assert 0.0 <= rate <= 1.0

    @pytest.fixture
    def no_fit(self, monkeypatch):
        """Fail on any fitting: ``ServingRecommender.fit``, or the
        feature extraction every fit runs."""

        def fail(*args, **kwargs):
            raise AssertionError("fitted before validating the arguments")

        monkeypatch.setattr(ServingRecommender, "fit", fail)
        monkeypatch.setattr(SSFExtractor, "extract_batch", fail)

    @pytest.mark.parametrize("n_users", [0, -1])
    def test_n_users_validated_before_fitting(self, network, no_fit, n_users):
        with pytest.raises(ValueError, match="n_users"):
            hit_rate_at_n(network, n_users=n_users)

    @pytest.mark.parametrize("top_n", [0, -1])
    def test_top_n_validated_before_fitting(self, network, no_fit, top_n):
        with pytest.raises(ValueError, match="top_n"):
            hit_rate_at_n(network, top_n=top_n)

    def test_larger_n_never_hurts(self, network):
        small = hit_rate_at_n(network, top_n=3, n_users=15, seed=0)
        large = hit_rate_at_n(network, top_n=30, n_users=15, seed=0)
        assert large >= small
