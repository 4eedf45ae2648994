"""Node-to-target-link distances (Eq. 1 of the paper).

The distance from a node ``n`` to a target link ``e_t = (a, b)`` is

    d(n, e_t) = min(|P(n, a)|, |P(n, b)|),

the smaller of the shortest-path lengths to the two end nodes.  These
distances drive both h-hop subgraph extraction (Def. 3) and the initial
Palette-WL ordering (Algorithm 2, line 1).
"""

from __future__ import annotations

from typing import Hashable

from repro.graph.temporal import DynamicNetwork

Node = Hashable


def distances_to_link(
    network: DynamicNetwork,
    a: Node,
    b: Node,
    max_hop: "int | None" = None,
) -> dict[Node, int]:
    """Distances ``d(n, e_t)`` for every node within ``max_hop`` of ``(a, b)``.

    A multi-source BFS from both end nodes; the target link itself is not
    assumed to exist (it is the link being predicted), but any *historical*
    links between ``a`` and ``b`` are traversed like all other links.

    Args:
        network: the observed dynamic network ``G_[tp, tq)``.
        a: first end node of the target link (must exist in ``network``).
        b: second end node of the target link (must exist in ``network``).
        max_hop: stop the BFS at this depth; ``None`` explores the whole
            reachable component.

    Returns:
        Mapping from node to distance; ``a`` and ``b`` map to 0.
    """
    if not network.has_node(a):
        raise KeyError(f"end node {a!r} not in network")
    if not network.has_node(b):
        raise KeyError(f"end node {b!r} not in network")
    if a == b:
        raise ValueError("target link end nodes must be distinct")

    dist: dict[Node, int] = {a: 0, b: 0}
    frontier: list[Node] = [a, b]
    depth = 0
    while frontier and (max_hop is None or depth < max_hop):
        depth += 1
        nxt: list[Node] = []
        for node in frontier:
            for nb in network.neighbor_view(node):
                if nb not in dist:
                    dist[nb] = depth
                    nxt.append(nb)
        frontier = nxt
    return dist


def node_link_distance(
    network: DynamicNetwork,
    node: Node,
    a: Node,
    b: Node,
    max_hop: "int | None" = None,
) -> "int | None":
    """``d(node, e_t)`` for a single node, or ``None`` when unreachable.

    Convenience wrapper over :func:`distances_to_link`; prefer the batch
    form when distances for many nodes are needed.
    """
    return distances_to_link(network, a, b, max_hop=max_hop).get(node)
