"""Maximum-Sombor trees for a given internal degree sequence.

Builds the candidate maximum tree by greedy subtree decomposition and
merging, and verifies it against an exact free-tree enumeration oracle,
degree-preserving 2-swap local search, and simulated annealing.
"""

from sombortree.graph import Tree, sombor_index, validate
from sombortree.construct import construct_max_tree
from sombortree.verify import (
    anneal_search,
    check_theorem1,
    is_local_max,
    oracle_max,
)

__all__ = [
    "Tree",
    "validate",
    "sombor_index",
    "construct_max_tree",
    "oracle_max",
    "is_local_max",
    "check_theorem1",
    "anneal_search",
]

__version__ = "0.1.0"
