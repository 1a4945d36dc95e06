"""Maximum-Sombor trees for a given internal degree sequence.

Builds the candidate maximum tree by greedy subtree decomposition and
merging, and verifies it against an exact free-tree enumeration oracle,
degree-preserving 2-swap local search, and simulated annealing.
"""

from sombortree.graph import (
    DegreeSequence,
    DegreePath,
    LeafLayerProfile,
    Tree,
    canonical_form,
    edge_weight,
    leaf_layer_profile,
    leaf_to_leaf_paths,
    sombor_index,
    validate,
)
from sombortree.construct import (
    RootedSubtree,
    SubtreeSpec,
    attachment_site,
    construct_max_tree,
    decompose,
    materialize,
    merge_once,
)
from sombortree.verify import (
    OracleResult,
    SwapMove,
    anneal_search,
    attachment_profile,
    check_theorem1,
    enumerate_trees,
    is_local_max,
    oracle_max,
    prufer_to_tree,
    two_swap_neighbors,
)

__all__ = [
    "DegreeSequence",
    "DegreePath",
    "LeafLayerProfile",
    "Tree",
    "canonical_form",
    "edge_weight",
    "leaf_layer_profile",
    "leaf_to_leaf_paths",
    "sombor_index",
    "validate",
    "RootedSubtree",
    "SubtreeSpec",
    "attachment_site",
    "construct_max_tree",
    "decompose",
    "materialize",
    "merge_once",
    "OracleResult",
    "SwapMove",
    "anneal_search",
    "attachment_profile",
    "check_theorem1",
    "enumerate_trees",
    "is_local_max",
    "oracle_max",
    "prufer_to_tree",
    "two_swap_neighbors",
]

__version__ = "0.1.0"
