"""Core tree types, the Sombor index, and leaf-layer bookkeeping.

Trees are undirected, labeled with dense 0-based vertex ids, and immutable
after construction.  A degree sequence here lists only the degrees of
internal (non-leaf) vertices, which DegreeSequence keeps non-increasing;
the leaf count follows from the handshake lemma.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

#: Relative tolerance under which two Sombor values are considered equal.
REL_TOL = 1e-9


class InvalidTreeError(ValueError):
    """Adjacency data does not describe a tree."""


class DegreeSequenceError(ValueError):
    """Raw degree data cannot be a valid internal degree sequence."""


class EntryBelowTwoError(DegreeSequenceError):
    """An internal vertex was declared with degree < 2."""


class NoLeavesError(ValueError):
    """Operation requires a tree with at least one leaf."""


@dataclass(frozen=True)
class Tree:
    """Undirected labeled tree with array-backed adjacency.

    ``adj[v]`` is the sorted tuple of neighbors of vertex ``v``.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges) -> "Tree":
        if n < 1:
            raise InvalidTreeError(f"need at least one vertex, got n={n}")
        edges = [tuple(e) for e in edges]
        if len(edges) != n - 1:
            raise InvalidTreeError(f"tree on {n} vertices needs {n - 1} edges, got {len(edges)}")
        seen = set()
        nbrs = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidTreeError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InvalidTreeError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise InvalidTreeError(f"duplicate edge {key}")
            seen.add(key)
            nbrs[u].append(v)
            nbrs[v].append(u)
        tree = cls(n, tuple(tuple(sorted(ns)) for ns in nbrs))
        if len(_bfs(tree.adj, 0)[0]) != n:
            raise InvalidTreeError("graph is not connected")
        return tree

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(ns) for ns in self.adj)

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) with u < v, lexicographically sorted."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def leaves(self) -> list[int]:
        return [v for v in range(self.n) if len(self.adj[v]) == 1]

    def internal_degrees(self) -> tuple[int, ...]:
        """Degrees of non-leaf vertices, non-increasing."""
        return tuple(sorted((len(ns) for ns in self.adj if len(ns) >= 2), reverse=True))

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        """The bytes of json.dumps({"n": n, "edges": [[u, v], ...]}) over
        edges(), written straight from adj."""
        edges = ", ".join([f"[{u}, {v}]" for u, ns in enumerate(self.adj) for v in ns if u < v])
        return f'{{"n": {self.n}, "edges": [{edges}]}}'

    @classmethod
    def from_json(cls, text: str) -> "Tree":
        try:
            data = json.loads(text)
        except RecursionError:  # json recurses once per nesting level
            raise InvalidTreeError("JSON nested too deeply") from None
        if not isinstance(data, dict) or not _is_int(data.get("n")):
            raise InvalidTreeError('expected an object with an integer "n"')
        edges = data.get("edges")
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))
            for e in edges
        ):
            raise InvalidTreeError('"edges" must be a list of [u, v] integer pairs')
        return cls.from_edges(data["n"], edges)

    def to_dot(self) -> str:
        lines = [f'  {v} [label="v{v} (d={len(ns)})"];' for v, ns in enumerate(self.adj)]
        lines += [f"  {u} -- {v};" for u, v in self.edges()]
        return "\n".join(["graph tree {", *lines, "}"]) + "\n"

    def to_edge_list(self) -> str:
        return "\n".join(f"{u} {v}" for u, v in self.edges()) + "\n"


@dataclass(frozen=True)
class DegreeSequence:
    """Internal-vertex degrees, the problem instance: stored sorted
    non-increasing, every entry at least 2 (else EntryBelowTwoError), so
    the leaf count is at least 2.

    The empty sequence denotes the 2-vertex tree (single edge).
    """

    degrees: tuple[int, ...]

    def __post_init__(self):
        ds = tuple(sorted(self.degrees, reverse=True))
        if ds and ds[-1] < 2:
            raise EntryBelowTwoError(f"internal degree {next(x for x in ds if x < 2)} < 2")
        object.__setattr__(self, "degrees", ds)

    @property
    def m(self) -> int:
        return len(self.degrees)

    @property
    def leaf_count(self) -> int:
        return sum(self.degrees) - 2 * self.m + 2

    @property
    def vertex_count(self) -> int:
        return self.m + self.leaf_count

    def __str__(self) -> str:
        return ",".join(str(d) for d in self.degrees)


def _is_integer(x) -> bool:
    try:
        return int(x) == x
    except (TypeError, ValueError, OverflowError):
        return False


def validate(degrees) -> DegreeSequence:
    """The DegreeSequence of raw integers, which sorts and checks them; an
    entry int() would change or refuses, such as 2.5, "3", "abc", None or
    inf, is a DegreeSequenceError naming it."""
    raw = tuple(degrees)
    try:
        ds = tuple(map(int, raw))
    except (TypeError, ValueError, OverflowError):
        ds = None
    if ds != raw:
        bad = next(x for x in raw if not _is_integer(x))
        raise DegreeSequenceError(f"degree {bad!r} is not an integer")
    return DegreeSequence(ds)


class LeafLayerProfile(NamedTuple):
    """L1 vertices with degrees, their minimum degree, and the L1^m leaves."""

    l1_vertices: tuple[tuple[int, int], ...]  # (vertex, degree), sorted by id
    d_min: int
    l1m_leaves: tuple[int, ...]  # sorted by id


class DegreePath(NamedTuple):
    """A leaf-to-leaf path with the degrees along it."""

    vertices: tuple[int, ...]
    degrees: tuple[int, ...]

    @property
    def interior_count(self) -> int:
        return len(self.vertices) - 2


def edge_weight(x: int, y: int) -> float:
    """Sombor edge contribution sqrt(x^2 + y^2) for endpoint degrees x, y."""
    if x < 1 or y < 1:
        raise ValueError(f"degrees must be >= 1, got ({x}, {y})")
    return math.sqrt(x * x + y * y)


def weight_table(degrees) -> dict[int, dict[int, float]]:
    """edge_weight for every ordered pair of the distinct degrees, one row
    per degree: W[x][y] is the weight of an edge between degrees x and y.

    The one source of edge weights: sombor_index sums its entries, and the
    oracle's skeleton scan, the 2-swap scan and the annealer read the same
    table, so their sums agree with sombor_index bit for bit.  Degree 0
    (a lone vertex) ends no edge and gets an empty row.
    """
    vals = set(degrees)
    return {x: {y: edge_weight(x, y) for y in vals if x and y} for x in vals}


def exceeds(x: float, ref: float) -> bool:
    """True iff the Sombor value x beats ref by more than REL_TOL relative
    to x; the one verdict for "optimal" (not exceeds(max, constructed)) and
    "improved" (exceeds(found, constructed))."""
    return x - ref > REL_TOL * x


def sombor_index(t: Tree) -> float:
    """Sum of edge weights over all edges.

    math.fsum is correctly rounded, so the result is the exact sum of the
    edge weights rounded once: trees with equal multisets of edge weights
    get equal bits, whatever the order of their edges.
    """
    deg = t.degrees()
    W = weight_table(deg)
    return math.fsum(W[deg[u]][deg[v]] for u, v in t.edges())


def leaf_layer_profile(t: Tree) -> LeafLayerProfile:
    """Compute L1 (vertices adjacent to a leaf), d^m, and L1^m."""
    if t.n == 1:
        raise NoLeavesError("single-vertex tree has no leaves")
    deg = t.degrees()
    l1 = sorted({nb for v in range(t.n) if deg[v] == 1 for nb in t.adj[v]})
    d_min = min(deg[v] for v in l1)
    l1m = sorted(
        v for v in range(t.n) if deg[v] == 1 and deg[t.adj[v][0]] == d_min
    )
    return LeafLayerProfile(
        l1_vertices=tuple((v, deg[v]) for v in l1),
        d_min=d_min,
        l1m_leaves=tuple(l1m),
    )


def leaf_to_leaf_paths(t: Tree) -> list[DegreePath]:
    """One DegreePath per unordered leaf pair; C(l, 2) paths for l leaves."""
    deg = t.degrees()
    leaves = t.leaves()
    paths = []
    for idx, a in enumerate(leaves):
        parent = _bfs(t.adj, a)[1]
        for b in leaves[idx + 1 :]:
            verts = [b]
            while verts[-1] != a:
                verts.append(parent[verts[-1]])
            verts.reverse()
            paths.append(
                DegreePath(tuple(verts), tuple(deg[v] for v in verts))
            )
    return paths


def canonical_form(t: Tree) -> str:
    """AHU code rooted at the tree center; equal codes iff isomorphic.

    For bicentric trees the lexicographically smaller of the two rooted
    codes is used.  _placement_code reads it off the skeleton, numbered by
    one BFS from the lower center with the leaves left out; a leaf queues
    nothing, so that is skeleton BFS order (n <= 2: one vertex, degree 0 or 1).
    """
    deg = t.degrees()
    order, parent = _bfs(t.adj, tree_centers(t.adj)[0])
    order = order[:1] + [v for v in order[1:] if deg[v] > 1]
    label = {v: i for i, v in enumerate(order)}
    up = [-1] + [label[parent[v]] for v in order[1:]]
    return _placement_code((up, _skeleton_degrees(up), [deg[v] for v in order]))


def tree_centers(adj) -> list[int]:
    """The one or two center vertices: the middle of a longest path.

    Double sweep: the last vertex a BFS reaches ends a longest path, and a
    second BFS from there ends at the path's other end.
    """
    a = _bfs(adj, 0)[0][-1]
    order, parent = _bfs(adj, a)
    path = [order[-1]]
    while path[-1] != a:
        path.append(parent[path[-1]])
    k = len(path)
    return sorted(path[(k - 1) // 2 : k // 2 + 1])


def _skeleton_degrees(parent) -> list[int]:
    """Each vertex's degree in the tree of a parent array (parent[v] < v)."""
    s = [1] * len(parent)
    s[0] = 0
    for p in islice(parent, 1, None):
        s[p] += 1
    return s


def _placement_code(key) -> str:
    """canonical_form of the tree of a skeleton placement (parent, s, deg):
    vertices 0..m-1, parent[v] < v, deg[v] - s[v] leaves hung on each.  Every
    skeleton leaf carries a hung leaf, so the tree's centers are vertex 0, the
    skeleton's center, and the root of the one branch at 0 taller than all
    others, if there is one.  AHU codes are built bottom-up over parent, hung
    leaves' "()" last: skeleton children's codes start "((" and sort first."""
    parent, s, deg = key
    m = len(deg)
    kids, code, height = [[] for _ in range(m)], [""] * m, [0] * m  # kids: child codes

    def close(v, extra=()):
        return "(" + "".join(sorted([*kids[v], *extra])) + "()" * (deg[v] - s[v]) + ")"

    for v in range(m - 1, 0, -1):
        code[v] = close(v)
        kids[parent[v]].append(code[v])
        height[parent[v]] = max(height[parent[v]], height[v] + 1)
    best = close(0)
    tall = [v for v in range(1, m) if parent[v] == 0 and height[v] + 1 == height[0]]
    if len(tall) == 1:
        kids[0].remove(code[tall[0]])
        best = min(best, close(tall[0], [close(0)]))
    return best


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _bfs(adj, root: int) -> tuple[list[int], list[int]]:
    """Vertices reachable from root in BFS order, neighbors in adj order,
    and each vertex's BFS parent (-1 for root and unreached vertices)."""
    parent = [-1] * len(adj)
    parent[root] = root
    order = [root]
    for v in order:  # order grows while it is walked
        for u in adj[v]:
            if parent[u] == -1:
                parent[u] = v
                order.append(u)
    parent[root] = -1
    return order, parent
