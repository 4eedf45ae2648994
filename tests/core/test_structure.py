"""Tests for structure combination (Algorithm 1, Defs. 4–6)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.structure import StructureNode, combine_structures
from repro.core.subgraph import h_hop_node_set
from repro.graph.temporal import DynamicNetwork
from repro.obs.metrics import get_registry


def _members(subgraph):
    return {frozenset(node.members) for node in subgraph.nodes}


def _random_hub_network(rng: random.Random, n: int, n_hubs: int) -> DynamicNetwork:
    """Random multigraph on ``n`` nodes; nodes ``0..n_hubs-1`` are hubs."""
    g = DynamicNetwork()
    for _ in range(rng.randint(n, 3 * n)):
        u, v = rng.sample(range(n), 2)
        g.add_edge(u, v, rng.randint(1, 30))
    for hub in range(n_hubs):
        for v in rng.sample(range(n), rng.randint(n // 4, n - 1)):
            if v != hub:
                g.add_edge(hub, v, rng.randint(1, 30))
    return g


class TestStructureNode:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            StructureNode(frozenset())

    def test_len_contains(self):
        node = StructureNode(frozenset({"a", "b"}))
        assert len(node) == 2
        assert "a" in node
        assert "z" not in node

    def test_representative_deterministic(self):
        node = StructureNode(frozenset({"b", "a", "c"}))
        assert node.representative() == "a"


class TestCombineStructuresFig3:
    """The paper's own worked example (Fig. 3)."""

    def test_fig3_merge(self, fig3_network):
        nodes = h_hop_node_set(fig3_network, "A", "B", 1)
        sub = combine_structures(fig3_network, nodes, "A", "B")
        assert _members(sub) == {
            frozenset({"A"}),
            frozenset({"B"}),
            frozenset({"G", "H", "I"}),
            frozenset({"D", "E"}),
            frozenset({"C"}),
        }

    def test_endpoints_pinned_first(self, fig3_network):
        nodes = h_hop_node_set(fig3_network, "A", "B", 1)
        sub = combine_structures(fig3_network, nodes, "A", "B")
        assert sub.nodes[0].members == frozenset({"A"})
        assert sub.nodes[1].members == frozenset({"B"})

    def test_structure_links(self, fig3_network):
        nodes = h_hop_node_set(fig3_network, "A", "B", 1)
        sub = combine_structures(fig3_network, nodes, "A", "B")
        leaves_a = next(
            i for i, n in enumerate(sub.nodes) if n.members == {"G", "H", "I"}
        )
        assert sub.has_structure_link(0, leaves_a)
        assert not sub.has_structure_link(1, leaves_a)
        # all G/H/I - A timestamps collected
        assert sub.link_timestamps(0, leaves_a) == (1.0, 2.0, 3.0)
        assert sub.link_count(0, leaves_a) == 3


class TestMergeSemantics:
    def test_endpoint_not_merged_with_twin(self):
        # x has exactly the same neighbourhood as end node a, but stays apart
        g = DynamicNetwork([("a", "c", 1), ("x", "c", 2), ("b", "c", 3)])
        sub = combine_structures(g, {"a", "b", "c", "x"}, "a", "b")
        assert frozenset({"a"}) in _members(sub)
        assert frozenset({"x"}) in _members(sub)

    def test_hub_merge(self):
        g = DynamicNetwork(
            [
                ("a", "h1", 1),
                ("a", "h2", 2),
                ("b", "h1", 3),
                ("b", "h2", 4),
                ("l1", "a", 5),
                ("l2", "b", 6),
            ]
        )
        sub = combine_structures(
            g, {"a", "b", "h1", "h2", "l1", "l2"}, "a", "b"
        )
        # h1, h2 share {a, b} -> merged; l1 ({a}) vs l2 ({b}) differ.
        assert frozenset({"h1", "h2"}) in _members(sub)

    def test_second_round_merge(self):
        # Leaves l1/l2 hang off hubs h1/h2.  The leaves could merge only
        # after the hubs did, but the hubs are twins only if each sees
        # both leaves, which would make the leaves twins in the first
        # grouping already.  Here h1 sees {a, b, l1} and h2 {a, b, l2},
        # so nothing merges and every node stays a singleton: Algorithm
        # 1 never needs a second round.
        g = DynamicNetwork(
            [
                ("a", "h1", 1),
                ("a", "h2", 2),
                ("b", "h1", 3),
                ("b", "h2", 4),
                ("l1", "h1", 5),
                ("l2", "h2", 6),
            ]
        )
        sub = combine_structures(
            g, {"a", "b", "h1", "h2", "l1", "l2"}, "a", "b"
        )
        assert frozenset({"h1"}) in _members(sub)
        assert frozenset({"l1"}) in _members(sub)

    def test_merged_nodes_share_neighbourhood(self, small_dataset):
        pairs = list(small_dataset.pair_iter())
        a, b = pairs[0]
        nodes = h_hop_node_set(small_dataset, a, b, 1)
        sub = combine_structures(small_dataset, nodes, a, b)
        for node in sub.nodes:
            neighbourhoods = {
                frozenset(m for m in small_dataset.neighbor_view(member) if m in nodes)
                for member in node.members
            }
            assert len(neighbourhoods) == 1

    def test_no_two_nonend_nodes_share_structure(self, small_dataset):
        """Fixed point: no further merge is possible (Algorithm 1's goal)."""
        pairs = list(small_dataset.pair_iter())
        a, b = pairs[3]
        nodes = h_hop_node_set(small_dataset, a, b, 1)
        sub = combine_structures(small_dataset, nodes, a, b)
        adjacency_sets = [frozenset(sub.adjacency(i)) for i in range(len(sub.nodes))]
        non_end = adjacency_sets[2:]
        assert len(set(non_end)) == len(non_end)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(20, 60),
        n_hubs=st.integers(0, 4),
        h=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_round_is_the_fixed_point(self, n, n_hubs, h, seed):
        """The first same-neighbourhood grouping never merges further:
        the reference records one merge round, and its non-end
        structure nodes have pairwise distinct adjacencies."""
        rng = random.Random(seed)
        g = _random_hub_network(rng, n, n_hubs)
        a, b = rng.sample(g.nodes, 2)
        nodes = h_hop_node_set(g, a, b, h)
        get_registry().reset()
        obs.enable()
        try:
            sub = combine_structures(g, nodes, a, b)
            rounds = get_registry().snapshot()["histograms"]["structure.merge_rounds"]
        finally:
            obs.disable()
            get_registry().reset()
        assert (rounds["count"], rounds["max"]) == (1, 1.0)
        non_end = [frozenset(sub.adjacency(i)) for i in range(2, len(sub.nodes))]
        assert len(set(non_end)) == len(non_end)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(20, 60),
        n_hubs=st.integers(0, 4),
        h=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_adjacent_structure_nodes_are_completely_joined(
        self, n, n_hubs, h, seed
    ):
        """Every member of one structure node links to every member of an
        adjacent one (twins share restricted neighbourhoods), so a
        structure link's member-level links are exactly I × J — what the
        batched engine's on-demand slot lookup relies on."""
        rng = random.Random(seed)
        g = _random_hub_network(rng, n, n_hubs)
        a, b = rng.sample(g.nodes, 2)
        sub = combine_structures(g, h_hop_node_set(g, a, b, h), a, b)
        for i, j in sub.structure_link_pairs():
            total = 0
            for u in sub.nodes[i].members:
                row = g.neighbor_view(u)
                for v in sub.nodes[j].members:
                    assert v in row, (u, v)
                    total += len(row[v])
            assert sub.link_count(i, j) == total

    def test_topology_conserved(self, fig3_network):
        """Member-level adjacency is recoverable from the structure level."""
        nodes = h_hop_node_set(fig3_network, "A", "B", 1)
        sub = combine_structures(fig3_network, nodes, "A", "B")
        for i, j in sub.structure_link_pairs():
            assert sub.link_count(i, j) > 0
        # total member links across structure links == induced subgraph links
        total = sum(sub.link_count(i, j) for i, j in sub.structure_link_pairs())
        induced = fig3_network.subgraph(nodes).number_of_links()
        assert total == induced


class TestValidation:
    def test_endpoints_must_be_in_node_set(self, fig3_network):
        with pytest.raises(ValueError):
            combine_structures(fig3_network, {"A", "C"}, "A", "B")

    def test_distinct_endpoints(self, fig3_network):
        with pytest.raises(ValueError):
            combine_structures(fig3_network, {"A", "C"}, "A", "A")

    def test_structure_node_of(self, fig3_network):
        nodes = h_hop_node_set(fig3_network, "A", "B", 1)
        sub = combine_structures(fig3_network, nodes, "A", "B")
        assert sub.structure_node_of("A") == 0
        idx = sub.structure_node_of("G")
        assert sub.nodes[idx].members == frozenset({"G", "H", "I"})
        with pytest.raises(KeyError):
            sub.structure_node_of("F")

    def test_internal_link_query_rejected(self, fig3_network):
        nodes = h_hop_node_set(fig3_network, "A", "B", 1)
        sub = combine_structures(fig3_network, nodes, "A", "B")
        with pytest.raises(ValueError):
            sub.link_timestamps(0, 0)


class TestDistances:
    def test_distances_to_target(self, fig3_network):
        nodes = h_hop_node_set(fig3_network, "A", "B", 2)
        sub = combine_structures(fig3_network, nodes, "A", "B")
        dist = sub.distances_to_target()
        assert dist[0] == 0 and dist[1] == 0
        f_idx = sub.structure_node_of("F")
        assert dist[f_idx] == 2

    def test_unreachable_marked(self, two_components):
        sub = combine_structures(two_components, {"a", "b", "c", "d"}, "a", "b")
        dist = sub.distances_to_target()
        c_idx = sub.structure_node_of("c")
        assert dist[c_idx] == -1

    def test_distances_from_endpoint(self, fig3_network):
        nodes = h_hop_node_set(fig3_network, "A", "B", 2)
        sub = combine_structures(fig3_network, nodes, "A", "B")
        from_a = sub.distances_from(0)
        leaves_b = sub.structure_node_of("D")
        # D is 2 hops from A (via... A-C-B? no: A-C, C-B, B-D -> 3)
        assert from_a[leaves_b] == 3

    def test_bad_start_index(self, fig3_network):
        nodes = h_hop_node_set(fig3_network, "A", "B", 1)
        sub = combine_structures(fig3_network, nodes, "A", "B")
        with pytest.raises(IndexError):
            sub.distances_from(99)
