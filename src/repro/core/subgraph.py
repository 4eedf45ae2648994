"""h-hop subgraph extraction (Definition 3 of the paper).

The h-hop subgraph of a target link ``e_t = (a, b)`` is the sub-multigraph
induced on all nodes within distance ``h`` of the link (Eq. 1 distances),
keeping every timestamped link between those nodes.

Two forms are provided:

* :func:`h_hop_node_set` — just the node set ``V_h`` (what the optimized
  SSF extractor consumes; it never materialises the subgraph copy),
* :func:`extract_h_hop_subgraph` — a materialised
  :class:`~repro.graph.temporal.DynamicNetwork` copy, the faithful Def. 3
  object used by tests and exploratory analysis.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.distance import distances_to_link
from repro.graph.temporal import DynamicNetwork
from repro.obs import observe, span

Node = Hashable


def h_hop_node_set(network: DynamicNetwork, a: Node, b: Node, h: int) -> set[Node]:
    """The node set ``V_h`` of the h-hop subgraph of target link ``(a, b)``.

    Args:
        h: hop radius, ``h >= 0`` (``h = 0`` yields just the end nodes).
    """
    if h < 0:
        raise ValueError(f"hop radius must be >= 0, got {h}")
    with span("subgraph_growth", h=h):
        nodes = set(distances_to_link(network, a, b, max_hop=h))
    observe("subgraph.nodes", len(nodes))
    return nodes


def extract_h_hop_subgraph(
    network: DynamicNetwork, a: Node, b: Node, h: int
) -> DynamicNetwork:
    """Materialise the h-hop subgraph ``G_{h -> e_t}`` (Def. 3).

    The returned network contains every node within distance ``h`` of the
    target link and every timestamped link among those nodes — including
    any historical links between ``a`` and ``b`` themselves.
    """
    return network.subgraph(h_hop_node_set(network, a, b, h))
