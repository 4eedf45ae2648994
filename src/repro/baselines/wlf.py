"""WLF — the Weisfeiler–Lehman link feature of Zhang & Chen (KDD 2017).

The baseline the paper's SSF is designed against (Table I: "universal" but
not "dynamic").  For a target link, the *enclosing subgraph* of the K
nearest plain nodes is extracted, ordered with the same Palette-WL
algorithm, and its 0/1 upper-triangle adjacency (minus the target entry)
is unfolded into a vector of length ``K(K-1)/2 - 1`` — consumed by the
WLLR (linear regression) and WLNM (neural machine) baselines.

WLF is the SSF pipeline with Algorithm 1 off: every plain node is its own
structure node, so growth stops at K nodes or an exhausted component,
Palette-WL orders by hop distances alone (``ordering="hops"``) and the
entries are 0/1 (``entry_mode="binary"``); timestamps and multiplicities
are never read.  The dict backend is the oracle; on csr single pairs run
the per-pair array path and batches the batched engine, bit for bit.
"""

from __future__ import annotations

from repro.core.feature import SSFConfig, SSFExtractor
from repro.graph.csr import CSRSnapshot
from repro.graph.temporal import DynamicNetwork


class WLFExtractor(SSFExtractor):
    """Extracts WLF vectors for target links of one observed network.

    Example:
        >>> from repro.graph import DynamicNetwork
        >>> g = DynamicNetwork([("a", "c", 1), ("b", "c", 2), ("c", "d", 3)])
        >>> WLFExtractor(g, k=4).extract("a", "b")
        array([1., 1., 0., 0., 1.])
    """

    _merge = False

    def __init__(
        self,
        network: "DynamicNetwork | CSRSnapshot",
        k: int = 10,
        backend: str = "csr",
    ) -> None:
        """Args:
        network: the observed history — a :class:`DynamicNetwork` or a
            prebuilt :class:`CSRSnapshot`; only its static structure is
            read (the paper's "static version" protocol).
        k: number of enclosing-subgraph nodes (paper default 10).
        backend: ``"csr"`` (the default; a :class:`DynamicNetwork` is
            frozen here, as :class:`SSFExtractor` does) or ``"dict"``
            (the reference).  Both give bit-identical features.
        """
        super().__init__(
            network,
            SSFConfig(k=k, entry_mode="binary", ordering="hops"),
            backend=backend,
        )
