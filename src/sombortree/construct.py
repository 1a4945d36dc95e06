"""Greedy construction of the candidate maximum-Sombor tree.

The degree sequence splits into rooted subtrees, a run of chains and then
one base, each a slice of the sorted degrees.  They are merged back to
front by identifying each chain root with a leaf whose neighbor has the
minimum leaf-adjacent degree.

_chains walks the subtrees back to front; decompose wraps that walk in
SubtreeSpecs, and construct_max_tree reads it in one pass that lays out
only the internal vertices, each with a count of its leaves.  materialize,
merge_once and attachment_site are the same steps on whole Trees, one
merge at a time, checked by Tree.from_edges.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

from sombortree.graph import (
    DegreeSequence,
    InvalidTreeError,
    Tree,
    leaf_layer_profile,
)

CHAIN = "chain"
BASE = "base"


@dataclass(frozen=True)
class SubtreeSpec:
    """Blueprint for one rooted subtree awaiting materialization.

    ``root_degree`` is the degree the root will have in the final tree; a
    chain root keeps one slot open for the merge.
    """

    kind: str
    root_degree: int
    child_degrees: tuple[int, ...]
    filler_leaves: int = 0

    def __post_init__(self):
        slots = len(self.child_degrees) + self.filler_leaves
        if self.kind == CHAIN:
            ok = self.filler_leaves == 0 and slots == self.root_degree - 1
        elif self.kind == BASE:
            ok = slots == self.root_degree
        else:
            raise ValueError(f"unknown subtree kind {self.kind!r}")
        if not ok or not all(c >= 2 for c in self.child_degrees):
            raise ValueError(f"inconsistent {self.kind} subtree spec: {self}")


def _chains(d: DegreeSequence):
    """Yield (kind, root degree, child-degree slice, filler leaves) for the
    base, then each chain back to front, as construct_max_tree lays them
    out; decompose's loop, on integers only, finds the base's slice."""
    deg = d.degrees  # non-increasing, all >= 2: DegreeSequence sorts and checks
    lo, hi = 0, len(deg)
    while deg[hi - 1] <= hi - lo - 2:
        hi -= 1
        lo += deg[hi] - 1
    ds = deg[hi - 1]
    yield BASE, ds, deg[lo : hi - 1], ds - (hi - 1 - lo)
    for ds in deg[hi:]:
        lo -= ds - 1
        yield CHAIN, ds, deg[lo : lo + ds - 1], 0


def decompose(d: DegreeSequence) -> list[SubtreeSpec]:
    """Split a degree sequence into chain specs plus one final base spec.

    Worklist semantics: while the smallest remaining degree ds fits
    ds <= count - 2, emit a chain rooted at degree ds whose children take
    the ds - 1 largest remaining degrees; otherwise emit the base using
    everything left (padded with filler leaves) and stop.  The specs are
    _chains' walk, put back in front-to-back order.
    """
    if d.m < 1:
        raise ValueError("decompose needs at least one internal degree")
    return [SubtreeSpec(*chain) for chain in _chains(d)][::-1]


def materialize(spec: SubtreeSpec) -> Tree:
    """Build the rooted subtree for a spec, its root at vertex 0.

    Vertex ids go in BFS order from the root, children ordered by
    non-increasing degree (filler leaves last); each internal child of
    degree c carries c - 1 leaf children.
    """
    k = len(spec.child_degrees) + spec.filler_leaves
    edges = [(0, c) for c in range(1, k + 1)]
    for cid, cdeg in enumerate(spec.child_degrees, 1):
        for _ in range(cdeg - 1):  # the next free id: one more than the edges
            edges.append((cid, len(edges) + 1))
    return Tree.from_edges(len(edges) + 1, edges)


def attachment_site(t: Tree) -> int:
    """Lowest-id leaf whose neighbor has the minimum leaf-adjacent degree
    (NoLeavesError on the one-vertex tree, from leaf_layer_profile)."""
    return leaf_layer_profile(t).l1m_leaves[0]


def merge_once(t: Tree, s: Tree) -> Tree:
    """Identify s's root, vertex 0, with the attachment site of t.

    Realized as leaf replacement: the chosen leaf's id is taken over by
    the subtree root, so the attachment neighbor's degree is unchanged and
    the merged root gains exactly one incident edge.
    """
    return merge_at(t, s, attachment_site(t))


def merge_at(t: Tree, s: Tree, leaf: int) -> Tree:
    """Merge s into t at an explicit leaf of t: s's root, vertex 0, takes
    the leaf's id, and its vertex v > 0 takes t.n + v - 1."""
    if t.degree(leaf) != 1:
        raise ValueError(f"vertex {leaf} is not a leaf")
    off = t.n - 1
    edges = t.edges()  # s.edges() has u < v, so only u can be the root
    edges.extend((u + off if u else leaf, v + off) for u, v in s.edges())
    return Tree.from_edges(t.n + s.n - 1, edges)


def construct_max_tree(d: DegreeSequence) -> Tree:
    """Lay out the base, then each chain back to front at the attachment
    site, and relabel by BFS from the base root.  The subtrees are _chains'
    slices of the sorted degrees, with no SubtreeSpec.  The layout holds
    only the m internal vertices, each as its internal children plus a
    count of the leaves still hanging on it; a chain root takes one of
    those leaves, as merge_once does, and joins the internal children.

    In materialize + merge_once ids, a leaf's key (neighbor degree, id) is
    fixed once it is laid out, a vertex's leaves have consecutive ids, and
    ids are handed out in ascending order.  So the vertices with a leaf
    waiting queue in one FIFO per neighbor degree, already in key order:
    the attachment site is a leaf of the head of the queue of the smallest
    waiting degree.  That degree never decreases, so a cursor over the
    sorted distinct degrees finds it: a subtree keys its leaves by its
    children's degrees (the base's filler leaves by its root's), and the
    chains, laid out back to front, take their children from the high end
    of the sorted degrees, so each subtree's keys are at least every
    earlier subtree's.

    The layout already holds every vertex's children in final order, by
    non-increasing degree, then id: internal ones as they joined, then
    the leaves.
    - _chains takes chain roots from the low end of the sorted degrees
      and children from the high end, so a chain root's degree is at most
      any child's, and a subtree root's children come before the filler
      leaves laid out beside them;
    - a parent's leaves share one key, so they are taken in id order;
    - chains are laid out by non-increasing root degree.
    So the BFS walks only the internal vertices and gives each one's
    children the next free ids, its leaves a range sharing one parent
    tuple.  Adjacency tuples come out sorted and the Tree is built as is,
    once the BFS numbers all n vertices, m of them internal (else
    InvalidTreeError).

    The empty sequence gives the single edge; m = 1 gives the star.
    """
    if d.m == 0:
        return Tree.from_edges(2, [(0, 1)])
    kids: list[list[int]] = []  # layout id -> its internal children
    left: list[int] = []  # layout id -> the leaves still hanging on it
    waiting: defaultdict[int, deque[int]] = defaultdict(deque)  # key degree -> vertices, FIFO
    keys, k = sorted(set(d.degrees)), 0  # keys[k]: the smallest key with a leaf waiting
    for _, rdeg, degs, f in _chains(d):
        root = len(kids)
        if root:  # a chain: its root takes the first waiting leaf
            while not (q := waiting[keys[k]]):
                k += 1
            kids[q[0]].append(root)
            left[q[0]] -= 1
            if not left[q[0]]:
                q.popleft()
        kids.append(list(range(root + 1, root + 1 + len(degs))))
        left.append(f)
        if f:  # the base's filler leaves wait under the base root's degree
            waiting[rdeg].append(root)
        for cdeg in degs:
            waiting[cdeg].append(len(kids))
            kids.append([])
            left.append(cdeg - 1)
    n = d.vertex_count
    out = [()] * n  # final adjacency: (parent, *children) by final id
    inner, ids = [0], [0]  # layout and final ids of the internal vertices, in BFS order
    nxt = 1
    for i, v in zip(ids, inner):
        lo = nxt
        nxt += len(kids[v]) + left[v]
        out[lo:nxt] = [(i,)] * (nxt - lo)
        out[i] += tuple(range(lo, nxt))
        inner += kids[v]
        ids += range(lo, lo + len(kids[v]))
    if nxt != n or len(inner) != d.m:
        raise InvalidTreeError(f"the layout on {n} vertices is not a tree")
    return Tree(n, tuple(out))
