"""The 2-swap neighbourhood by brute force: the tests' independent reference.

is_local_max tests swap validity in O(1) on preorder intervals and the
annealer inlines its own parent walk; these helpers walk the parent array
for every disjoint edge pair and score each swap from its four edge
weights, so both can be checked against them.
"""

from sombortree.graph import Tree, _bfs, weight_table
from sombortree.verify import SwapMove


def _valid_recombination(parent, a: int, b: int, c: int, d: int):
    """(r, x, y, nest): r is the one recombination of the disjoint edges
    (a,b), (c,d) of the tree rooted by parent (-1 at the root) that gives
    a tree again.

    Deleting both edges leaves three components.  The near end of each
    edge (on the other edge's side) lies in the middle one, so it must be
    paired with the far end of the other edge; the other recombination
    closes a cycle.  With x, y the child ends of (a,b), (c,d), the near end
    of (a,b) is x when y lies in x's subtree (nest 1), else x's parent; of
    (c,d), y when x lies in y's (nest 2).  Each test is a walk up, O(depth).
    """
    x = a if parent[a] == b else b
    y = c if parent[c] == d else d
    v = parent[y]
    while v != x and v != -1:
        v = parent[v]
    if v == x:
        nest = 1
    else:
        v = parent[x]
        while v != y and v != -1:
            v = parent[v]
        nest = 2 if v == y else 0
    near_ab = x if nest == 1 else parent[x]
    near_cd = y if nest == 2 else parent[y]
    # pair (a,d),(b,c) when a and c are both near ends, or neither is
    return int((near_cd == c) == (near_ab == a)), x, y, nest


def apply_swap(t: Tree, move: SwapMove) -> Tree:
    """t with the swap made, rebuilt from its edge list."""
    drop = {frozenset(move.edge_a), frozenset(move.edge_b)}
    edges = [e for e in t.edges() if frozenset(e) not in drop]
    edges.extend(move.new_edges())
    return Tree.from_edges(t.n, edges)


def two_swap_neighbors(t: Tree):
    """Stream all valid SwapMoves of t, one per endpoint-disjoint edge pair."""
    edges = t.edges()
    parent = _bfs(t.adj, 0)[1]
    for i in range(len(edges)):
        a, b = edges[i]
        for j in range(i + 1, len(edges)):
            c, d = edges[j]
            if a == c or a == d or b == c or b == d:
                continue
            r = _valid_recombination(parent, a, b, c, d)[0]
            yield SwapMove(edges[i], edges[j], r)


def _delta(W, deg, old1, old2, new1, new2) -> float:
    """Sombor change of replacing edges old1, old2 by new1, new2 with every
    degree untouched: only those four edge weights move."""
    (a, b), (c, d), (p, q), (r, s) = old1, old2, new1, new2
    return (
        W[deg[p]][deg[q]] + W[deg[r]][deg[s]]
        - W[deg[a]][deg[b]] - W[deg[c]][deg[d]]
    )


def swap_delta(t: Tree, move: SwapMove) -> float:
    """Sombor change of a swap."""
    deg = t.degrees()
    return _delta(weight_table(deg), deg, move.edge_a, move.edge_b, *move.new_edges())
