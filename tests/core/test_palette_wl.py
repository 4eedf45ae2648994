"""Tests for the Palette-WL ordering (Algorithm 2)."""

import pytest

from repro.core.palette_wl import (
    bilateral_distance_scores,
    palette_wl_order,
)
from repro.core.structure import combine_structures
from repro.core.subgraph import h_hop_node_set


def _fig3_subgraph(fig3_network, h=1):
    nodes = h_hop_node_set(fig3_network, "A", "B", h)
    return combine_structures(fig3_network, nodes, "A", "B")


class TestEndpointAnchoring:
    def test_endpoints_orders_1_and_2(self, fig3_network):
        sub = _fig3_subgraph(fig3_network)
        order = palette_wl_order(sub)
        assert order[0] == 1
        assert order[1] == 2

    def test_anchoring_on_generated_graph(self, small_dataset):
        pairs = list(small_dataset.pair_iter())[:10]
        for a, b in pairs:
            nodes = h_hop_node_set(small_dataset, a, b, 1)
            sub = combine_structures(small_dataset, nodes, a, b)
            order = palette_wl_order(sub)
            assert order[0] == 1 and order[1] == 2


class TestOrderProperties:
    def test_strict_permutation(self, fig3_network):
        sub = _fig3_subgraph(fig3_network, h=2)
        order = palette_wl_order(sub)
        assert sorted(order) == list(range(1, len(order) + 1))

    def test_deterministic(self, fig3_network):
        sub = _fig3_subgraph(fig3_network, h=2)
        assert palette_wl_order(sub) == palette_wl_order(sub)

    def test_common_neighbour_before_one_sided(self, fig3_network):
        """The bilateral init ranks C (adjacent to both ends) first."""
        sub = _fig3_subgraph(fig3_network)
        order = palette_wl_order(sub)
        c_idx = sub.structure_node_of("C")
        for other in range(2, len(order)):
            if other != c_idx:
                assert order[c_idx] < order[other]

    def test_farther_nodes_higher_order(self, fig3_network):
        sub = _fig3_subgraph(fig3_network, h=2)
        order = palette_wl_order(sub)
        f_idx = sub.structure_node_of("F")
        c_idx = sub.structure_node_of("C")
        assert order[f_idx] > order[c_idx]

    def test_tie_break_scores_reorder_ties(self, two_components):
        # c-d component unreachable: two singleton structure nodes tied.
        from repro.graph.temporal import DynamicNetwork

        g = DynamicNetwork([("a", "b", 1), ("a", "x", 2), ("a", "y", 3)])
        # make x and y symmetric twins -> they merge into one structure
        # node, so build an asymmetric tie instead via distances:
        sub = combine_structures(g, {"a", "b", "x", "y"}, "a", "b")
        n = sub.number_of_structure_nodes()
        baseline = palette_wl_order(sub)
        flipped = palette_wl_order(sub, tie_break=[0.0] * n)
        assert baseline == flipped  # zero tie-break is a no-op

    def test_tie_break_length_checked(self, fig3_network):
        sub = _fig3_subgraph(fig3_network)
        with pytest.raises(ValueError):
            palette_wl_order(sub, tie_break=[0.0])


class TestBilateralScores:
    def test_common_neighbour_scores_two(self, fig3_network):
        sub = _fig3_subgraph(fig3_network)
        scores = bilateral_distance_scores(sub)
        c_idx = sub.structure_node_of("C")
        assert scores[c_idx] == 2.0  # 1 + 1

    def test_one_sided_scores_more(self, fig3_network):
        sub = _fig3_subgraph(fig3_network)
        scores = bilateral_distance_scores(sub)
        g_idx = sub.structure_node_of("G")
        assert scores[g_idx] > 2.0

    def test_unreachable_penalised(self, two_components):
        sub = combine_structures(two_components, {"a", "b", "c", "d"}, "a", "b")
        scores = bilateral_distance_scores(sub)
        c_idx = sub.structure_node_of("c")
        assert scores[c_idx] > scores[0]


class TestSymmetry:
    def test_symmetric_twins_get_adjacent_orders(self):
        """Structurally identical one-sided fans merge, so each remaining
        structure node is distinguishable — orders are stable under
        relabelling of members within a structure node."""
        from repro.graph.temporal import DynamicNetwork

        g1 = DynamicNetwork([("a", "c", 1), ("b", "c", 2), ("a", "p", 3), ("a", "q", 4)])
        g2 = DynamicNetwork([("a", "c", 1), ("b", "c", 2), ("a", "q", 3), ("a", "p", 4)])
        sub1 = combine_structures(g1, {"a", "b", "c", "p", "q"}, "a", "b")
        sub2 = combine_structures(g2, {"a", "b", "c", "p", "q"}, "a", "b")
        assert palette_wl_order(sub1) == palette_wl_order(sub2)
