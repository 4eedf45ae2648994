"""The paper's 11 baseline link-prediction methods (Table I / Sec. VI-C1).

Heuristic scorers operate on the static projection of the observed dynamic
network; rWRA additionally uses multi-link counts as weights; NMF
factorises the adjacency matrix; WLF is the Weisfeiler–Lehman enclosing
subgraph feature of Zhang & Chen (KDD 2017) consumed by the WLLR/WLNM
models.
"""

from repro.baselines.base import LinkScorer
from repro.baselines.embedding import SpectralEmbedding, TemporalNMF
from repro.baselines.local import (
    AdamicAdar,
    CommonNeighbors,
    Jaccard,
    PreferentialAttachment,
    ResourceAllocation,
)
from repro.baselines.nmf import NMFLinkPredictor, nmf_factorize
from repro.baselines.paths import Katz, LocalPath
from repro.baselines.randomwalk import LocalRandomWalk
from repro.baselines.temporal import (
    RecentActivity,
    TemporalCommonNeighbors,
    TemporalResourceAllocation,
)
from repro.baselines.weighted import ReliableWeightedResourceAllocation
from repro.baselines.wlf import WLFExtractor

__all__ = [
    "LinkScorer",
    "CommonNeighbors",
    "Jaccard",
    "PreferentialAttachment",
    "AdamicAdar",
    "ResourceAllocation",
    "ReliableWeightedResourceAllocation",
    "Katz",
    "LocalPath",
    "LocalRandomWalk",
    "TemporalCommonNeighbors",
    "TemporalResourceAllocation",
    "RecentActivity",
    "NMFLinkPredictor",
    "nmf_factorize",
    "TemporalNMF",
    "SpectralEmbedding",
    "WLFExtractor",
]
