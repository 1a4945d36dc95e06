"""Independent ground truth and theorem probes.

Exact maximum by a scan over free skeleton trees (the trees left after
deleting the leaves, one per isomorphism class) with every placement of
the degrees on them, deduplicated by canonical form; a capped scan walks
the labeled trees of the Prüfer bijection instead.  Also degree-preserving
2-swap local search, path-inequality and attachment-site checkers, and a
seeded simulated annealer for instances beyond exhaustive reach.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from dataclasses import dataclass
from math import factorial

from sombortree.graph import (
    REL_TOL,
    DegreeSequence,
    InvalidTreeError,
    Tree,
    canonical_form,
    leaf_layer_profile,
    sombor_index,
)
from sombortree.construct import (
    RootedSubtree,
    construct_max_tree,
    merge_at,
)

DEFAULT_CAP = 10_000_000
_SAMPLE_TRIES = 300  # draws before the annealer gives up on finding a swap


def _weights(degrees) -> dict[tuple[int, int], float]:
    """Edge weight sqrt(x^2 + y^2) for every ordered pair of the distinct
    degrees; bit-identical to the terms of sombor_index."""
    vals = set(degrees)
    return {(x, y): math.sqrt(x * x + y * y) for x in vals for y in vals}


# ---------------------------------------------------------------------------
# Prüfer bijection


def prufer_to_tree(seq, n: int) -> Tree:
    """Standard Prüfer decode: vertex degree = occurrences + 1."""
    seq = list(seq)
    if n < 2:
        raise ValueError("need n >= 2")
    if len(seq) != n - 2:
        raise ValueError(f"sequence length {len(seq)} != n-2 = {n - 2}")
    deg = [1] * n
    for v in seq:
        if not 0 <= v < n:
            raise ValueError(f"entry {v} out of range 0..{n - 1}")
        deg[v] += 1
    heap = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(heap)
    edges = []
    for v in seq:
        leaf = heapq.heappop(heap)
        edges.append((leaf, v))
        deg[v] -= 1
        if deg[v] == 1:
            heapq.heappush(heap, v)
    u = heapq.heappop(heap)
    v = heapq.heappop(heap)
    edges.append((u, v))
    return Tree.from_edges(n, edges)


def tree_to_prufer(t: Tree) -> tuple[int, ...]:
    """Encode by repeatedly stripping the smallest-id leaf."""
    if t.n < 2:
        raise ValueError("need n >= 2")
    deg = list(t.degrees())
    adj = [set(ns) for ns in t.adj]
    heap = [v for v in range(t.n) if deg[v] == 1]
    heapq.heapify(heap)
    out = []
    for _ in range(t.n - 2):
        leaf = heapq.heappop(heap)
        nb = next(iter(adj[leaf]))
        out.append(nb)
        adj[nb].discard(leaf)
        deg[nb] -= 1
        if deg[nb] == 1:
            heapq.heappush(heap, nb)
    return tuple(out)


def prufer_space_size(d: DegreeSequence) -> int:
    """(n-2)! / prod (d_i - 1)!  — count of labeled trees realizing d."""
    n = d.vertex_count
    if n == 2:
        return 1
    size = factorial(n - 2)
    for di in d.degrees:
        size //= factorial(di - 1)
    return size


def _next_permutation(a: list[int]) -> bool:
    """Advance a to its next lexicographic permutation in place."""
    i = len(a) - 2
    while i >= 0 and a[i] >= a[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = len(a) - 1
    while a[j] <= a[i]:
        j -= 1
    a[i], a[j] = a[j], a[i]
    a[i + 1 :] = a[:i:-1]
    return True


def enumerate_trees(d: DegreeSequence, cap: int = DEFAULT_CAP):
    """Stream every labeled tree realizing d, in lexicographic Prüfer order.

    Internal vertices are 0..m-1 (vertex i with degree d_i), leaves
    m..n-1.  Stops after cap trees.
    """
    n = d.vertex_count
    if n == 2:
        if cap >= 1:
            yield Tree.from_edges(2, [(0, 1)])
        return
    # ascending start: internal vertex i appears d_i - 1 times
    seq = [i for i, di in enumerate(d.degrees) for _ in range(di - 1)]
    count = 0
    while count < cap:
        yield prufer_to_tree(seq, n)
        count += 1
        if not _next_permutation(seq):
            return


# ---------------------------------------------------------------------------
# Free trees (Wright, Richmond, Odlyzko & McKay 1986)


def free_trees(m: int):
    """Stream every free tree on m vertices once, as a parent array.

    Vertex 0 is the root (parent -1) and every other vertex's parent has a
    smaller id.  Walks the canonical level sequences of rooted trees in
    decreasing lexicographic order (Beyer & Hedetniemi), keeps those rooted
    at a center, and from a rejected sequence jumps to the next one that
    can be kept, skipping only sequences that would be rejected too.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if m <= 2:
        yield (-1, 0)[:m]
        return
    # the path rooted at its center is the first sequence kept
    level = list(range(m // 2 + 1)) + list(range(1, (m + 1) // 2))
    while True:
        cut = next((i for i in range(2, m) if level[i] == 1), m)
        if _rooted_at_center(level, cut):
            yield _parents(level)
            p = m - 1
            while level[p] == 1:
                p -= 1
            if p == 0:  # the star is the last rooted tree
                return
        else:
            h = max(level[1:cut]) - 1  # height of the first root subtree
            if m - cut >= h:
                # every later sequence with this first subtree has a rest
                # no taller and no larger, so jump past them all
                p = cut - 1
            elif 2 * h + 2 <= m:
                # a rest of height h needs h vertices; the sequences down to
                # the first subtree cut short by that many are all rejected
                level[m - h :] = range(1, h + 1)
                continue
            else:
                # no tree whose first subtree is this tall has a center root
                p = h + 1
        q = p - 1
        while level[q] != level[p] - 1:
            q -= 1
        for i in range(p, m):
            level[i] = level[i - p + q]


def _rooted_at_center(level: list[int], cut: int) -> bool:
    """Is the root a center, and for bicentral trees the chosen one?

    level[1:cut] is the first (tallest) root subtree.  When the rest of the
    tree is exactly as tall, the other end of the central edge is a center
    too; the rooting whose first subtree is the smaller of the two halves,
    by size and then level sequence, is the one kept.
    """
    first = [x - 1 for x in level[1:cut]]
    rest = [0] + level[cut:]
    if max(rest) != max(first):
        return max(rest) > max(first)
    return (len(first), first) <= (len(rest), rest)


def _parents(level: list[int]) -> tuple[int, ...]:
    parent = [-1] * len(level)
    last = [0] * len(level)  # latest vertex seen on each level
    for v in range(1, len(level)):
        parent[v] = last[level[v] - 1]
        last[level[v]] = v
    return tuple(parent)


# ---------------------------------------------------------------------------
# Exhaustive oracle


@dataclass(frozen=True)
class OracleResult:
    """Exact maximum over all trees realizing a degree sequence."""

    max_so: float
    enumerated: int
    witnesses: tuple[str, ...]  # canonical codes, sorted
    capped: bool
    witness_trees: tuple[Tree, ...] = ()  # one representative per code

    def to_dict(self) -> dict:
        return {
            "max_so": self.max_so,
            "enumerated": self.enumerated,
            "capped": self.capped,
            "witnesses": [
                {"code": c, "tree": json.loads(t.to_json())}
                for c, t in zip(self.witnesses, self.witness_trees)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _skeleton_scan(d: DegreeSequence):
    """Score every tree realizing d as (so, (parent, s, degrees)).

    Deleting the leaves of such a tree leaves a free tree S on its m
    internal vertices, and hanging d(v) - s(v) leaves on each vertex v of
    S, s(v) its degree in S, gives the tree back.  So every placement of
    the multiset d on a free tree S with d(v) >= s(v) is scanned, and the
    score is the fsum of the tree's edge weights, bit-identical to
    sombor_index of the tree.  Isomorphic trees may be scored more than
    once, through automorphisms of S.
    """
    m = d.m
    need = list(d.degrees)  # non-increasing
    W = _weights(need + [1])
    for parent in free_trees(m):
        s = [0] * m
        for v in range(1, m):
            s[v] += 1
            s[parent[v]] += 1
        if any(x > y for x, y in zip(sorted(s, reverse=True), need)):
            continue
        deg = sorted(need)
        while True:
            if all(x >= y for x, y in zip(deg, s)):
                terms = [W[deg[v], deg[parent[v]]] for v in range(1, m)]
                for v in range(m):
                    terms += [W[deg[v], 1]] * (deg[v] - s[v])
                yield math.fsum(terms), (parent, s, tuple(deg))
            if not _next_permutation(deg):
                break


def _hang_leaves(key) -> Tree:
    """The tree of one skeleton placement: internal vertices 0..m-1."""
    parent, s, deg = key
    m = len(deg)
    hung = [v for v in range(m) for _ in range(deg[v] - s[v])]
    edges = [(parent[v], v) for v in range(1, m)]
    edges += [(v, m + i) for i, v in enumerate(hung)]
    return Tree.from_edges(m + len(hung), edges)


def _maximizers(scored, build) -> tuple[float, dict[str, tuple[float, Tree]]]:
    """Max score and its witnesses: code -> (so, tree) for every score
    within REL_TOL of the max, one tree per canonical form."""
    best = cut = 0.0  # every tree has positive Sombor value
    wits: dict[str, tuple[float, Tree]] = {}
    for so, key in scored:
        if so < cut:
            continue
        if so > best:
            best, cut = so, so - REL_TOL * so
            wits = {c: w for c, w in wits.items() if w[0] >= cut}
        tree = build(key)
        wits.setdefault(canonical_form(tree), (so, tree))
    return best, wits


def oracle_max(
    d: DegreeSequence, cap: int = DEFAULT_CAP, workers: int = 1
) -> OracleResult:
    """Exact maximum Sombor value over all trees realizing d.

    Witnesses are all non-isomorphic maximizers within REL_TOL relative
    of the max.  ``enumerated`` is the number of labeled trees covered,
    prufer_space_size(d) or cap.  When that count exceeds cap only the
    first cap labeled trees of enumerate_trees are scanned and the result
    is inconclusive (capped=True); otherwise the scan runs over free
    skeleton trees.  ``workers`` is accepted and ignored.
    """
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    total = prufer_space_size(d)
    capped = total > cap
    # the single edge has no internal vertex to form a skeleton
    if capped or d.m == 0:
        scored = ((sombor_index(t), t) for t in enumerate_trees(d, cap))
        best, wits = _maximizers(scored, lambda t: t)
    else:
        best, wits = _maximizers(_skeleton_scan(d), _hang_leaves)
    codes = sorted(wits)
    return OracleResult(
        max_so=best,
        enumerated=min(total, cap),
        witnesses=tuple(codes),
        capped=capped,
        witness_trees=tuple(wits[c][1] for c in codes),
    )


# ---------------------------------------------------------------------------
# 2-swap neighborhood


@dataclass(frozen=True)
class SwapMove:
    """Degree-preserving exchange of two vertex-disjoint edges.

    recombination 0 pairs (a,c),(b,d); recombination 1 pairs (a,d),(b,c),
    for edge_a = (a,b), edge_b = (c,d).
    """

    edge_a: tuple[int, int]
    edge_b: tuple[int, int]
    recombination: int

    def new_edges(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return _recombine(*self.edge_a, *self.edge_b, self.recombination)


def _recombine(a, b, c, d, r):
    return ((a, c), (b, d)) if r == 0 else ((a, d), (b, c))


def _valid_recombination(adj, a: int, b: int, c: int, d: int) -> int:
    """The one recombination of the disjoint edges (a,b), (c,d) that gives
    a tree again.

    Deleting both edges leaves three components.  The endpoints joined by
    the path between the two edges share the middle one, so each of them
    must be paired with the far endpoint of the other edge; the other
    recombination closes a cycle.  A search from a, cut at (a,b), meets
    the near end of (c,d) first and stops there, so it never crosses
    (c,d); when it meets neither end, b is the near end of (a,b) and a
    second search from b finds the path.  adj[v] iterates v's neighbors.
    """
    for src, other in ((a, b), (b, a)):
        seen = {src, other}
        stack = [src]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    if u == c or u == d:
                        # pair (a,d),(b,c) when a meets c or b meets d
                        return int((u == c) == (src == a))
                    seen.add(u)
                    stack.append(u)
    raise InvalidTreeError(f"edges ({a},{b}) and ({c},{d}) are not on one tree")


def two_swap_neighbors(t: Tree):
    """Stream all valid SwapMoves of t, one per endpoint-disjoint edge pair."""
    edges = t.edges()
    for i in range(len(edges)):
        a, b = edges[i]
        for j in range(i + 1, len(edges)):
            c, d = edges[j]
            if a == c or a == d or b == c or b == d:
                continue
            r = _valid_recombination(t.adj, a, b, c, d)
            yield SwapMove(edges[i], edges[j], r)


def apply_swap(t: Tree, move: SwapMove) -> Tree:
    drop = {frozenset(move.edge_a), frozenset(move.edge_b)}
    edges = [e for e in t.edges() if frozenset(e) not in drop]
    edges.extend(move.new_edges())
    return Tree.from_edges(t.n, edges)


def _delta(W, deg, old1, old2, new1, new2) -> float:
    """Sombor change of replacing edges old1, old2 by new1, new2 with every
    degree untouched: only those four edge weights move."""
    (a, b), (c, d), (p, q), (r, s) = old1, old2, new1, new2
    return (
        W[deg[p], deg[q]] + W[deg[r], deg[s]]
        - W[deg[a], deg[b]] - W[deg[c], deg[d]]
    )


def swap_delta(t: Tree, move: SwapMove) -> float:
    """Sombor change of a swap."""
    deg = t.degrees()
    return _delta(_weights(deg), deg, move.edge_a, move.edge_b, *move.new_edges())


@dataclass(frozen=True)
class LocalMaxReport:
    is_local_max: bool
    base_so: float
    best_move: SwapMove | None
    best_delta: float

    def to_dict(self) -> dict:
        out = {
            "is_local_max": self.is_local_max,
            "base_so": self.base_so,
            "best_delta": self.best_delta,
        }
        if self.best_move is not None:
            out["best_move"] = {
                "edge_a": list(self.best_move.edge_a),
                "edge_b": list(self.best_move.edge_b),
                "recombination": self.best_move.recombination,
            }
        return out


def is_local_max(t: Tree) -> LocalMaxReport:
    """True iff no 2-swap raises the Sombor value by more than REL_TOL
    relative."""
    base = sombor_index(t)
    deg = t.degrees()
    W = _weights(deg)
    best_move = None
    best_delta = 0.0
    for move in two_swap_neighbors(t):
        delta = _delta(W, deg, move.edge_a, move.edge_b, *move.new_edges())
        if delta > best_delta:
            best_delta = delta
            best_move = move
    if best_delta > REL_TOL * base:
        return LocalMaxReport(False, base, best_move, best_delta)
    return LocalMaxReport(True, base, None, best_delta)


# ---------------------------------------------------------------------------
# Path-inequality reporter


@dataclass(frozen=True)
class PathInequalityRecord:
    path: tuple[int, ...]
    i: int
    parity: str  # "odd" | "even"
    inequality: str  # e.g. "d(v1) >= d(v3)"
    lhs_degree: int
    rhs_degree: int
    holds: bool

    def to_dict(self) -> dict:
        return {
            "path": list(self.path),
            "i": self.i,
            "parity": self.parity,
            "inequality": self.inequality,
            "lhs_degree": self.lhs_degree,
            "rhs_degree": self.rhs_degree,
            "holds": self.holds,
        }


@dataclass(frozen=True)
class Theorem1Report:
    records: tuple[PathInequalityRecord, ...]
    paths: int
    checked: int
    violations: int

    def violating_records(self) -> list[PathInequalityRecord]:
        return [r for r in self.records if not r.holds]

    def to_dict(self) -> dict:
        return {
            "paths": self.paths,
            "checked": self.checked,
            "violations": self.violations,
            "records": [r.to_dict() for r in self.violating_records()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def check_theorem1(t: Tree) -> Theorem1Report:
    """Evaluate the degree-alternation inequalities on every leaf-to-leaf path.

    For interior positions v1..vk and i <= ceil((k+1)/2): odd i demands
    d(v_i) >= d(v_{k-i+1}) >= d(v_j), even i the reverse, for
    i+1 <= j <= k-i+1.  Violations are reported, never raised.
    """
    from sombortree.graph import leaf_to_leaf_paths

    records = []
    paths = leaf_to_leaf_paths(t)
    for path in paths:
        degs = path.degrees
        k = len(path.vertices) - 2
        for i in range(1, min(k, (k + 2) // 2) + 1):
            mirror = k - i + 1
            pairs = [(i, mirror)] + [(mirror, j) for j in range(i + 1, mirror + 1)]
            for li, ri in pairs:
                lhs, rhs = degs[li], degs[ri]
                if i % 2 == 1:
                    op, holds = ">=", lhs >= rhs
                else:
                    op, holds = "<=", lhs <= rhs
                records.append(
                    PathInequalityRecord(
                        path=path.vertices,
                        i=i,
                        parity="odd" if i % 2 == 1 else "even",
                        inequality=f"d(v{li}) {op} d(v{ri})",
                        lhs_degree=lhs,
                        rhs_degree=rhs,
                        holds=holds,
                    )
                )
    return Theorem1Report(
        records=tuple(records),
        paths=len(paths),
        checked=len(records),
        violations=sum(1 for r in records if not r.holds),
    )


# ---------------------------------------------------------------------------
# Attachment-site profiling


@dataclass(frozen=True)
class AttachmentEntry:
    leaf: int
    neighbor: int
    neighbor_degree: int
    so: float


@dataclass(frozen=True)
class AttachmentProfile:
    entries: tuple[AttachmentEntry, ...]
    equal_degree_ties_ok: bool  # same neighbor degree => same SO (1e-12 rel)
    non_increasing_ok: bool  # SO non-increasing in neighbor degree
    l1m_attains_max_ok: bool  # every L1^m leaf attains the maximum

    @property
    def ok(self) -> bool:
        return (
            self.equal_degree_ties_ok
            and self.non_increasing_ok
            and self.l1m_attains_max_ok
        )


def attachment_profile(t: Tree, s: RootedSubtree) -> AttachmentProfile:
    """SO of merging s at every leaf of t, with the monotonicity checks."""
    entries = []
    for leaf in t.leaves():
        nb = t.adj[leaf][0]
        merged = merge_at(t, s, leaf)
        entries.append(
            AttachmentEntry(leaf, nb, t.degree(nb), sombor_index(merged))
        )
    tie_tol = 1e-12
    by_degree: dict[int, list[float]] = {}
    for e in entries:
        by_degree.setdefault(e.neighbor_degree, []).append(e.so)
    ties_ok = all(
        max(vals) - min(vals) <= tie_tol * max(vals) for vals in by_degree.values()
    )
    degs = sorted(by_degree)
    reps = [by_degree[g][0] for g in degs]
    mono_ok = all(
        reps[i] >= reps[i + 1] - tie_tol * reps[i] for i in range(len(reps) - 1)
    )
    best = max(e.so for e in entries)
    l1m = set(leaf_layer_profile(t).l1m_leaves)
    l1m_ok = all(
        e.so >= best - REL_TOL * best for e in entries if e.leaf in l1m
    )
    return AttachmentProfile(tuple(entries), ties_ok, mono_ok, l1m_ok)


# ---------------------------------------------------------------------------
# Simulated annealing


@dataclass(frozen=True)
class AnnealResult:
    best_tree: Tree
    best_so: float
    start_so: float
    moves: int
    accepted: int


def _sample_valid_swap(rng: random.Random, edges, adjsets):
    """A uniform-ish random valid swap as (i, j, new_edge_1, new_edge_2).

    Draws i, j and a recombination r, and keeps r only when it is the
    valid one.
    """
    ne = len(edges)
    if ne < 2:
        return None
    for _ in range(_SAMPLE_TRIES):
        i = rng.randrange(ne)
        j = rng.randrange(ne)
        if i == j:
            continue
        a, b = edges[i]
        c, d = edges[j]
        if a == c or a == d or b == c or b == d:
            continue
        r = rng.randrange(2)
        if r == _valid_recombination(adjsets, a, b, c, d):
            return (i, j, *_recombine(a, b, c, d, r))
    return None


def anneal_search(d: DegreeSequence, budget: int, seed: int) -> AnnealResult:
    """Seeded annealing over the 2-swap neighborhood.

    Starts from the constructed tree; geometric cooling (0.999 per move);
    always accepts non-worsening moves, worsening moves with probability
    exp(delta / temperature).  Fully reproducible from the seed.
    """
    rng = random.Random(seed)
    start = construct_max_tree(d)
    start_so = sombor_index(start)
    if budget <= 0:
        return AnnealResult(start, start_so, start_so, 0, 0)

    n = start.n
    deg = start.degrees()
    W = _weights(deg)
    edges = start.edges()
    adjsets = [set(ns) for ns in start.adj]

    # instance-adaptive starting temperature
    deltas = []
    for _ in range(100):
        sample = _sample_valid_swap(rng, edges, adjsets)
        if sample is None:
            break
        i, j, e1, e2 = sample
        deltas.append(abs(_delta(W, deg, edges[i], edges[j], e1, e2)))
    temp = (sum(deltas) / len(deltas)) if deltas else 0.0
    if temp <= 0.0:
        temp = 1e-9

    cur_so = start_so
    best_so = start_so
    best_edges = list(edges)
    moves = accepted = 0
    while moves < budget:
        sample = _sample_valid_swap(rng, edges, adjsets)
        if sample is None:
            break
        moves += 1
        i, j, e1, e2 = sample
        (a, b), (c, dd) = edges[i], edges[j]
        delta = _delta(W, deg, edges[i], edges[j], e1, e2)
        if delta >= 0.0 or rng.random() < math.exp(delta / temp):
            adjsets[a].discard(b)
            adjsets[b].discard(a)
            adjsets[c].discard(dd)
            adjsets[dd].discard(c)
            for p, q in (e1, e2):
                adjsets[p].add(q)
                adjsets[q].add(p)
            edges[i] = e1 if e1[0] < e1[1] else (e1[1], e1[0])
            edges[j] = e2 if e2[0] < e2[1] else (e2[1], e2[0])
            cur_so += delta
            accepted += 1
            if cur_so > best_so:
                best_so = cur_so
                best_edges = list(edges)
        temp *= 0.999
    best = Tree.from_edges(n, best_edges)
    # re-measure so accumulated float drift cannot leak out
    return AnnealResult(best, sombor_index(best), start_so, moves, accepted)
