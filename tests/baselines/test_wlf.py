"""Tests for the WLF (WLNM enclosing-subgraph) baseline feature."""

import numpy as np
import pytest

from repro.baselines.wlf import WLFExtractor
from repro.core.feature import ssf_feature_dim
from repro.graph.temporal import DynamicNetwork


class TestFeatureDim:
    def test_matches_ssf_convention(self, fig3_network):
        assert WLFExtractor(fig3_network, k=10).feature_dim == ssf_feature_dim(10) == 44

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            ssf_feature_dim(1)
        with pytest.raises(ValueError):
            WLFExtractor(DynamicNetwork(), k=2)


class TestExtraction:
    def test_length(self, fig3_network):
        ext = WLFExtractor(fig3_network, k=6)
        assert ext.extract("A", "B").shape == (ssf_feature_dim(6),)

    def test_binary_entries(self, fig3_network):
        vec = WLFExtractor(fig3_network, k=6).extract("A", "B")
        assert set(np.unique(vec)) <= {0.0, 1.0}

    def test_deterministic(self, small_dataset):
        ext = WLFExtractor(small_dataset, k=8)
        pairs = list(small_dataset.pair_iter())[:5]
        for a, b in pairs:
            assert np.allclose(ext.extract(a, b), ext.extract(a, b))

    def test_unknown_nodes_zero(self, fig3_network):
        ext = WLFExtractor(fig3_network, k=6)
        assert np.allclose(ext.extract("A", "ghost"), 0.0)

    def test_small_component_padded(self):
        g = DynamicNetwork([("x", "y", 1)])
        assert np.allclose(WLFExtractor(g, k=5).extract("x", "y"), 0.0)

    def test_ignores_timestamps(self):
        g1 = DynamicNetwork([("a", "c", 1), ("b", "c", 2)])
        g2 = DynamicNetwork([("a", "c", 9), ("b", "c", 9)])
        v1 = WLFExtractor(g1, k=3).extract("a", "b")
        v2 = WLFExtractor(g2, k=3).extract("a", "b")
        assert np.allclose(v1, v2)

    def test_ignores_multiplicity(self):
        g1 = DynamicNetwork([("a", "c", 1), ("b", "c", 2)])
        g2 = DynamicNetwork([("a", "c", 1), ("a", "c", 2), ("b", "c", 3)])
        v1 = WLFExtractor(g1, k=3).extract("a", "b")
        v2 = WLFExtractor(g2, k=3).extract("a", "b")
        assert np.allclose(v1, v2)

    def test_batch(self, fig3_network):
        ext = WLFExtractor(fig3_network, k=6)
        batch = ext.extract_batch([("A", "B"), ("A", "C")])
        assert batch.shape == (2, ssf_feature_dim(6))

    def test_no_structure_merging(self, fig3_network):
        """WLF keeps plain nodes: with K=8 on Fig. 3 all 8 one-hop nodes
        appear as distinct enclosing-subgraph nodes (unlike SSF's 5
        structure nodes)."""
        for backend in ("dict", "csr"):
            extractor = WLFExtractor(fig3_network, k=8, backend=backend)
            ks = extractor.k_structure_subgraph("A", "B")
            assert ks.number_selected() == 8, backend
            assert all(len(ks.node(order)) == 1 for order in range(1, 9)), backend
