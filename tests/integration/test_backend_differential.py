"""Differential tests: the CSR array backend against the dict reference.

The ``backend="csr"`` pipeline (array BFS, array structure combination,
precomputed influence table) promises **bit-identical** SSF features to
the dict-of-dict reference path.  These property-style tests generate
randomized networks sweeping the regimes that historically break
array/dict parity — density extremes, heavy multi-links, duplicate
timestamps, isolated components — and assert exact ``np.array_equal``
(not allclose) for every entry mode, both backends, both argument orders
of the target pair.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.feature import ENTRY_MODES, SSFConfig, SSFExtractor
from repro.graph.csr import CSRSnapshot
from repro.graph.temporal import DynamicNetwork

#: (name, n_nodes, n_edges, n_timestamps) — density / collision regimes
REGIMES = [
    ("sparse", 40, 50, 40),
    ("medium", 30, 120, 25),
    ("dense", 18, 200, 20),
    ("multilink", 12, 160, 4),  # few stamps → many duplicate timestamps
]


def _random_network(seed: int, n_nodes: int, n_edges: int, n_ts: int) -> DynamicNetwork:
    rng = np.random.default_rng(seed)
    g = DynamicNetwork()
    for _ in range(n_edges):
        u, v = rng.integers(0, n_nodes, size=2)
        if u != v:
            g.add_edge(int(u), int(v), float(rng.integers(1, n_ts + 1)))
    g.add_node("isolated")  # known node with zero links
    return g


def _sample_pairs(network: DynamicNetwork, seed: int, count: int = 8):
    rng = np.random.default_rng(seed + 1000)
    nodes = [n for n in network.nodes if n != "isolated"]
    pairs = []
    for _ in range(count):
        a, b = rng.choice(len(nodes), size=2, replace=False)
        pairs.append((nodes[int(a)], nodes[int(b)]))
    return pairs


@pytest.mark.parametrize("regime", REGIMES, ids=[r[0] for r in REGIMES])
@pytest.mark.parametrize("seed", range(4))
def test_csr_matches_dict_bit_for_bit(regime, seed):
    _, n_nodes, n_edges, n_ts = regime
    network = _random_network(seed, n_nodes, n_edges, n_ts)
    pairs = _sample_pairs(network, seed)
    for mode in ENTRY_MODES:
        config = SSFConfig(k=6, entry_mode=mode)
        dict_ex = SSFExtractor(network, config, backend="dict")
        csr_ex = SSFExtractor(network, config, backend="csr")
        assert dict_ex.backend == "dict"
        assert csr_ex.backend == "csr"
        for a, b in pairs:
            expected = dict_ex.extract(a, b)
            got = csr_ex.extract(a, b)
            assert np.array_equal(expected, got), (mode, a, b)
            # pair-order invariance must hold identically on both paths
            assert np.array_equal(dict_ex.extract(b, a), csr_ex.extract(b, a))


@pytest.mark.parametrize("seed", range(3))
def test_extract_multi_parity(seed):
    network = _random_network(seed, 25, 100, 12)
    pairs = _sample_pairs(network, seed, count=5)
    config = SSFConfig(k=6)
    dict_ex = SSFExtractor(network, config, backend="dict")
    snapshot = CSRSnapshot.from_dynamic(network)
    csr_ex = SSFExtractor(snapshot, config)
    for a, b in pairs:
        expected = dict_ex.extract_multi(a, b, ENTRY_MODES)
        got = csr_ex.extract_multi(a, b, ENTRY_MODES)
        for mode in ENTRY_MODES:
            assert np.array_equal(expected[mode], got[mode]), (mode, a, b)


def test_adjacency_matrix_parity():
    network = _random_network(7, 20, 90, 10)
    config = SSFConfig(k=6)
    dict_ex = SSFExtractor(network, config, backend="dict")
    csr_ex = SSFExtractor(network, config, backend="csr")
    for a, b in _sample_pairs(network, 7, count=5):
        assert np.array_equal(
            dict_ex.adjacency_matrix(a, b), csr_ex.adjacency_matrix(a, b)
        )


def test_isolated_and_unknown_endpoints():
    network = _random_network(2, 20, 60, 8)
    config = SSFConfig(k=6)
    dict_ex = SSFExtractor(network, config, backend="dict")
    csr_ex = SSFExtractor(network, config, backend="csr")
    some = next(iter(network.pair_iter()))[0]
    for pair in [
        ("isolated", some),  # known node, no links
        (some, "isolated"),
        ("ghost", some),  # unknown endpoint → all-zero feature
        ("ghost", "phantom"),
    ]:
        expected = dict_ex.extract(*pair)
        got = csr_ex.extract(*pair)
        assert np.array_equal(expected, got), pair


def test_hops_ordering_parity():
    network = _random_network(5, 22, 100, 10)
    config = SSFConfig(k=6, ordering="hops")
    dict_ex = SSFExtractor(network, config, backend="dict")
    csr_ex = SSFExtractor(network, config, backend="csr")
    for a, b in _sample_pairs(network, 5, count=5):
        assert np.array_equal(dict_ex.extract(a, b), csr_ex.extract(a, b))


def test_max_hop_parity():
    network = _random_network(9, 30, 70, 10)
    config = SSFConfig(k=6, max_hop=2)
    dict_ex = SSFExtractor(network, config, backend="dict")
    csr_ex = SSFExtractor(network, config, backend="csr")
    for a, b in _sample_pairs(network, 9, count=5):
        assert np.array_equal(dict_ex.extract(a, b), csr_ex.extract(a, b))


@pytest.mark.parametrize("regime", REGIMES, ids=[r[0] for r in REGIMES])
def test_delta_snapshot_matches_dict_bit_for_bit(regime):
    """Three-way differential: features over a delta-ingested snapshot
    must match both the full CSR rebuild and the dict reference."""
    from repro.serve.delta import DeltaCSRSnapshot

    _, n_nodes, n_edges, n_ts = regime
    source = _random_network(17, n_nodes, n_edges, n_ts)
    edges = sorted(source.edges(), key=lambda e: (e[2], repr(e[0]), repr(e[1])))
    cut = len(edges) // 2
    delta = DeltaCSRSnapshot.from_dynamic(DynamicNetwork(edges[:cut]))
    delta.apply(edges[cut:])
    # the dict reference replays the SAME event order the delta saw, so
    # node insertion order (and with it id-based tie-breaks) agrees
    network = DynamicNetwork(edges)
    pairs = _sample_pairs(network, 17)
    present = float(network.last_timestamp()) + 1.0
    for mode in ENTRY_MODES:
        config = SSFConfig(k=6, entry_mode=mode)
        dict_ex = SSFExtractor(
            network, config, backend="dict", present_time=present
        )
        delta_ex = SSFExtractor(delta.snapshot(), config, present_time=present)
        for a, b in pairs:
            assert np.array_equal(
                dict_ex.extract(a, b), delta_ex.extract(a, b)
            ), (mode, a, b)


@pytest.mark.parametrize("backend", ["auto", "sparse"])
def test_unknown_backend_rejected(backend):
    network = _random_network(0, 10, 20, 5)
    with pytest.raises(ValueError, match="backend must be one of"):
        SSFExtractor(network, SSFConfig(k=6), backend=backend)


def test_dict_backend_rejects_snapshot():
    network = _random_network(0, 10, 20, 5)
    snapshot = CSRSnapshot.from_dynamic(network)
    with pytest.raises(ValueError):
        SSFExtractor(snapshot, SSFConfig(k=6), backend="dict")
