"""Independent ground truth and theorem probes.

Exact maximum by a scan over free skeleton trees (the trees left after
deleting the leaves, one per isomorphism class) with every placement of
the degrees on them, deduplicated by canonical form; an explicit cap
bounds the placements scored.  Also degree-preserving 2-swap local search
(one swap-validity test on a parent array rooted at vertex 0, reached
only by pairs whose deltas could beat the best), path-inequality and
attachment-site checkers, and a seeded simulated annealer for instances
beyond exhaustive reach.  The path-inequality check tests each pair of
leaf supports once, counts every inequality and builds a record only for
a violation.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from math import factorial

from sombortree.graph import (
    DegreeSequence,
    Tree,
    _bfs,
    canonical_form,
    exceeds,
    leaf_layer_profile,
    sombor_index,
    weight_table,
)
from sombortree.construct import (
    RootedSubtree,
    construct_max_tree,
    merge_at,
)

_SAMPLE_TRIES = 300  # draws before the annealer gives up on finding a swap


# ---------------------------------------------------------------------------
# Labeled count and permutations


def prufer_space_size(d: DegreeSequence) -> int:
    """(n-2)! / prod (d_i - 1)!  — count of labeled trees realizing d."""
    size = factorial(d.vertex_count - 2)
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


# ---------------------------------------------------------------------------
# Free trees (Wright, Richmond, Odlyzko & McKay 1986)


def free_trees(m: int):
    """Stream every free tree on m vertices once, as a parent array.

    Vertex 0 is the root (parent -1) and every other vertex's parent has a
    smaller id.  Walks the canonical level sequences of rooted trees in
    decreasing lexicographic order (Beyer & Hedetniemi), keeps those rooted
    at a center, and from a rejected sequence jumps to the next one that
    can be kept, skipping only sequences that would be rejected too.

    The height h of the first root subtree never grows along the walk, and
    it starts at m // 2 - 1 (the path), so 2 * h + 2 <= m always holds: a
    rest of height h always fits.
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
            else:
                # a rest of height h needs h vertices; the sequences down to
                # the first subtree cut short by that many are all rejected
                level[m - h :] = range(1, h + 1)
                continue
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


def _skeleton_scan(d: DegreeSequence):
    """Score every tree realizing d as (so, (parent, s, degrees)).

    Deleting the leaves of such a tree leaves a free tree S on its m
    internal vertices, and hanging d(v) - s(v) leaves on each vertex v of
    S, s(v) its degree in S, gives the tree back.  So every placement of
    the multiset d on a free tree S with d(v) >= s(v) is scanned, and the
    score is the fsum of the tree's edge weights, bit-identical to
    sombor_index of the tree.  Isomorphic trees may be scored more than
    once, through automorphisms of S.  The single edge (m = 0) is the one
    placement of a degree-1 vertex, with its one leaf, on a lone vertex.
    """
    m = d.m
    if m == 0:
        key = ((-1,), [0], (1,))
        yield sombor_index(_hang_leaves(key)), key
        return
    need = list(d.degrees)  # non-increasing
    W = weight_table(need + [1])
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
                terms = [W[deg[v]][deg[parent[v]]] for v in range(1, m)]
                for v in range(m):
                    terms += [W[deg[v]][1]] * (deg[v] - s[v])
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


def _maximizers(scored) -> tuple[float, dict[str, tuple[float, Tree]]]:
    """Max score and its witnesses over (so, placement) pairs: code -> (so,
    tree) for every score the max does not exceed, one tree per canonical
    form."""
    best = 0.0  # every tree has positive Sombor value
    wits: dict[str, tuple[float, Tree]] = {}
    for so, key in scored:
        if exceeds(best, so):
            continue
        if so > best:
            best = so
            wits = {c: w for c, w in wits.items() if not exceeds(best, w[0])}
        tree = _hang_leaves(key)
        wits.setdefault(canonical_form(tree), (so, tree))
    return best, wits


def oracle_max(d: DegreeSequence, cap: int | None = None) -> OracleResult:
    """Maximum Sombor value over all trees realizing d, by the skeleton scan.

    Witnesses are all non-isomorphic trees whose value the max does not
    exceed (graph.exceeds).  There is no default cap: without one, or with
    one at or above the number of skeleton placements, every placement is
    scored, the result is exact and ``enumerated`` is the labeled tree
    count prufer_space_size(d).  An explicit cap bounds the placements
    scored: when more than cap exist, only the first cap are scored,
    ``enumerated`` is cap and the result is inconclusive (capped=True).
    """
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    scan = _skeleton_scan(d)
    # cap is None or >= 1 here; no scan reaches sys.maxsize, islice's limit
    best, wits = _maximizers(islice(scan, cap and min(cap, sys.maxsize)))
    capped = cap is not None and next(scan, None) is not None
    codes = sorted(wits)
    return OracleResult(
        max_so=best,
        enumerated=cap if capped else prufer_space_size(d),
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
        (a, b), (c, d) = self.edge_a, self.edge_b
        return ((a, c), (b, d)) if self.recombination == 0 else ((a, d), (b, c))


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


def _reroot(parent, x: int, y: int, nest: int) -> None:
    """Keep parent the rooting at 0 after the valid swap of the edges above
    x and y (as _valid_recombination reports them), in place, O(depth)."""
    if nest == 2:
        x, y = y, x
    px, py = parent[x], parent[y]
    if nest == 0:  # both subtrees hang from the top component: trade them
        parent[x], parent[y] = py, px
        return
    # y below x: the part of x's subtree above y now hangs from px by py
    # and holds y's subtree at x, so the path py..x turns around
    u, v = px, py
    while u != x:
        parent[v], u, v = u, v, parent[v]
    parent[y] = x


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
        W[deg[p]][deg[q]] + W[deg[r]][deg[s]]
        - W[deg[a]][deg[b]] - W[deg[c]][deg[d]]
    )


def swap_delta(t: Tree, move: SwapMove) -> float:
    """Sombor change of a swap."""
    deg = t.degrees()
    return _delta(weight_table(deg), deg, move.edge_a, move.edge_b, *move.new_edges())


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
    """True iff no 2-swap gives a Sombor value that exceeds t's.

    One loop over the edge pairs i < j of t.edges(), in order, reading
    edge weights from the rows of weight_table.  For each disjoint
    pair (a,b), (c,d) it computes the deltas of both recombinations, d0
    for (a,c),(b,d) and d1 for (a,d),(b,c), in _delta's operand order.
    When both are at most the best delta so far, neither can become the
    best whichever one is valid, so the pair is skipped; only the others
    go to the validity test (_valid_recombination), and a SwapMove is
    built only for a strictly better delta.  The reported move is thus
    the first best one in two_swap_neighbors order, as a scan of every
    move with swap_delta would find.
    """
    base = sombor_index(t)
    deg = t.degrees()
    W = weight_table(deg)
    parent = _bfs(t.adj, 0)[1]
    # per edge: its ends, their degrees and its weight
    ends = [(c, d, deg[c], deg[d], W[deg[c]][deg[d]]) for c, d in t.edges()]
    best_move = None
    best_delta = 0.0
    for i, (a, b, da, db, wab) in enumerate(ends):
        wa, wb = W[da], W[db]
        for c, d, dc, dd, wcd in ends[i + 1 :]:
            if a == c or a == d or b == c or b == d:
                continue
            d0 = wa[dc] + wb[dd] - wab - wcd
            d1 = wa[dd] + wb[dc] - wab - wcd
            if d0 <= best_delta and d1 <= best_delta:
                continue
            r = _valid_recombination(parent, a, b, c, d)[0]
            delta = d1 if r else d0
            if delta > best_delta:
                best_delta = delta
                best_move = SwapMove((a, b), (c, d), r)
    if exceeds(base + best_delta, base):
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


def _path_pairs(k: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """The (i, li, ri, hi, lo) inequalities on a path with k interior vertices.

    In report order: (i, mirror), then (mirror, j) for i+1 <= j <= mirror,
    for 1 <= i <= min(k, (k+2)//2), where mirror = k-i+1.  For k = 2 and
    i = 2 the mirror lies before i, which leaves the single pair (2, 1).
    Odd i demands d(v_li) >= d(v_ri), even i d(v_li) <= d(v_ri); (hi, lo)
    orders (li, ri) so that each inequality reads d(v_hi) >= d(v_lo), the
    one test.  Callers cache it per tree: a table has O(k^2) entries, so a
    process-wide cache would keep the largest ones alive.
    """
    pairs = []
    for i in range(1, min(k, (k + 2) // 2) + 1):
        mirror = k - i + 1
        for li, ri in [(i, mirror)] + [(mirror, j) for j in range(i + 1, mirror + 1)]:
            pairs.append((i, li, ri, li, ri) if i % 2 else (i, li, ri, ri, li))
    return tuple(pairs)


def _record_fields(degrees, i: int, li: int, ri: int, hi: int, lo: int) -> dict:
    """The fields of the record of one _path_pairs entry but its path, on a
    path whose vertex degrees are degrees (leaf first)."""
    return {
        "i": i,
        "parity": "odd" if i % 2 else "even",
        "inequality": f"d(v{li}) {'>=' if i % 2 else '<='} d(v{ri})",
        "lhs_degree": degrees[li],
        "rhs_degree": degrees[ri],
        "holds": degrees[hi] >= degrees[lo],
    }


@dataclass(frozen=True)
class Theorem1Report:
    """Theorem-1 counts; ``violating`` is built on first read."""

    tree: Tree = field(repr=False, compare=False)
    paths: int
    checked: int
    violations: int
    # s -> {u: (support path s..u, violated entries)}, the lower-id leaf on s
    table: dict = field(repr=False, hash=False)

    @functools.cached_property
    def violating(self) -> tuple[PathInequalityRecord, ...]:
        """The violated inequalities, by leaf pair (by id), then table order."""
        leaves, deg = self.tree.leaves(), self.tree.degrees()
        support = [self.tree.adj[a][0] for a in leaves]
        fields = {}  # s -> {u: (support path s..u, its records' other fields)}
        for s, row in self.table.items():
            out = fields[s] = {}
            for u, (path, hits) in row.items():
                degs = [1] + [deg[v] for v in path]
                out[u] = (path, [_record_fields(degs, *e) for e in hits])
        violating = []
        for x, a in enumerate(leaves):
            if (row := fields.get(support[x])) is None:
                continue
            for b, u in zip(leaves[x + 1 :], support[x + 1 :]):
                if (hit := row.get(u)) is not None:
                    path = (a, *hit[0], b)
                    violating += [PathInequalityRecord(path=path, **f) for f in hit[1]]
        return tuple(violating)

    def to_dict(self) -> dict:
        return {
            "paths": self.paths,
            "checked": self.checked,
            "violations": self.violations,
            "records": [r.to_dict() for r in self.violating],
        }


def check_theorem1(t: Tree) -> Theorem1Report:
    """Evaluate the degree-alternation inequalities on every leaf-to-leaf path.

    For interior positions v1..vk and i <= ceil((k+1)/2): odd i demands
    d(v_i) >= d(v_{k-i+1}) >= d(v_j), even i the reverse, for
    i+1 <= j <= k-i+1.  Violations are reported, never raised.

    Only interior degrees enter the inequalities, and for n > 2 the
    interior of the path from leaf a to leaf b is the path from a's
    support (its one neighbour) to b's.  So the inequalities are tested,
    with int comparisons, once per ordered pair of support vertices, by
    one BFS from each support; both orientations are tested, since the
    lower-id leaf starts its path.  The counts need no record: each table's
    length, and each ordered support pair's violations, count once per leaf
    pair on that support pair (lower-id leaf first).  ``violating`` is built
    from the report's ``table`` of those violations on first read.
    """
    leaves = t.leaves()
    paths = len(leaves) * (len(leaves) - 1) // 2
    if t.n <= 2:  # the lone edge's one path has no interior
        return Theorem1Report(t, paths, 0, 0, {})
    deg = t.degrees()
    support = [t.adj[a][0] for a in leaves]
    count = list(Counter(support).items())  # (support, its leaf count)
    pairs_for = functools.cache(_path_pairs)
    checked = 0
    table = {}  # s -> {u: (support path s..u, its violated entries)}
    for x, (s, cs) in enumerate(count):
        parent = _bfs(t.adj, s)[1]
        for u, cu in count[x:]:
            inner = [u]
            while inner[-1] != s:
                inner.append(parent[inner[-1]])
            pairs = pairs_for(len(inner))
            checked += (cs * (cs - 1) // 2 if s == u else cs * cu) * len(pairs)
            # both orientations: from u to s, then from s to u
            for a, b, path in ((u, s, inner), (s, u, inner[::-1])):
                degs = [1] + [deg[v] for v in path]
                hits = [e for e in pairs if degs[e[3]] < degs[e[4]]]
                if hits:
                    table.setdefault(a, {})[b] = (tuple(path), hits)
    violations, later = 0, Counter()  # the supports of the leaves after this one
    for s in reversed(support):  # from the highest leaf id down
        violations += sum(later[u] * len(h) for u, (_, h) in table.get(s, {}).items())
        later[s] += 1
    return Theorem1Report(t, paths, checked, violations, table)


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
    equal_degree_ties_ok: bool  # same neighbor degree => bit-identical SO
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
    # Leaves with one neighbor degree give merged trees with one multiset of
    # edge weights, and fsum is correctly rounded, so their values are equal
    # bits; rounding is monotone, so it keeps the true order.  Every check
    # is exact.
    by_degree: dict[int, list[float]] = {}
    for e in entries:
        by_degree.setdefault(e.neighbor_degree, []).append(e.so)
    ties_ok = all(len(set(vals)) == 1 for vals in by_degree.values())
    reps = [by_degree[g][0] for g in sorted(by_degree)]
    mono_ok = all(reps[i] >= reps[i + 1] for i in range(len(reps) - 1))
    best = max(e.so for e in entries)
    l1m = set(leaf_layer_profile(t).l1m_leaves)
    l1m_ok = all(e.so == best for e in entries if e.leaf in l1m)
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


def _start_temp(deltas) -> float:
    """The annealer's starting temperature: the mean |delta| of its warm-up
    swaps, or 1e-9 when there are none or all are 0."""
    temp = sum(deltas) / len(deltas) if deltas else 0.0
    return temp if temp > 0.0 else 1e-9


def anneal_search(d: DegreeSequence, budget: int, seed: int) -> AnnealResult:
    """Seeded annealing over the 2-swap neighborhood.

    Starts from the constructed tree; geometric cooling (0.999 per move);
    always accepts non-worsening moves, worsening moves with probability
    exp(delta / temperature).  The starting temperature is the mean |delta|
    of the first 100 valid swaps drawn.  The tree is kept as its edge list
    and its parent array rooted at 0, fixed in place on each accept.

    One loop draws every swap, for the temperature and for the moves: edge
    indices i, j and a recombination r, each by getrandbits plus rejection,
    the same bits rng.randrange draws, so the run is reproducible from the
    seed.  A draw is kept when i, j are disjoint edges and r is their one
    valid recombination (the test of _valid_recombination); _SAMPLE_TRIES
    draws in a row without a kept one end the warm-up, or the search.
    A negative budget raises ValueError.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    rng = random.Random(seed)
    start = construct_max_tree(d)
    start_so = sombor_index(start)
    if budget == 0 or start.n == 2:  # a lone edge has no swap
        return AnnealResult(start, start_so, start_so, 0, 0)

    n = start.n
    deg = start.degrees()
    W = weight_table(deg)
    edges = start.edges()
    parent = _bfs(start.adj, 0)[1]
    ne = len(edges)
    bits, k = rng.getrandbits, ne.bit_length()
    rand, exp = rng.random, math.exp

    deltas = []  # |delta| of the warm-up swaps, None once temp is set
    cur_so = best_so = start_so
    best_edges = list(edges)
    moves = accepted = tries = 0
    while moves < budget:
        if tries == _SAMPLE_TRIES:  # no valid swap in a row of draws
            if deltas is None:
                break
            temp, deltas, tries = _start_temp(deltas), None, 0
        tries += 1
        i = bits(k)
        while i >= ne:
            i = bits(k)
        j = bits(k)
        while j >= ne:
            j = bits(k)
        if i == j:
            continue
        a, b = edges[i]
        c, d = edges[j]
        if a == c or a == d or b == c or b == d:
            continue
        r = bits(2)
        while r >= 2:
            r = bits(2)
        # x, y: the child ends; nest 1 when y lies below x, 2 when x below y
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
        if r != ((near_cd == c) == (near_ab == a)):
            continue
        tries = 0
        p, q = (c, d) if r == 0 else (d, c)  # new edges (a, p), (b, q)
        delta = (
            W[deg[a]][deg[p]] + W[deg[b]][deg[q]]
            - W[deg[a]][deg[b]] - W[deg[c]][deg[d]]
        )
        if deltas is not None:
            deltas.append(abs(delta))
            if len(deltas) == 100:
                temp, deltas = _start_temp(deltas), None
            continue
        moves += 1
        if delta >= 0.0 or rand() < exp(delta / temp):
            _reroot(parent, x, y, nest)
            edges[i] = (a, p) if a < p else (p, a)
            edges[j] = (b, q) if b < q else (q, b)
            cur_so += delta
            accepted += 1
            if cur_so > best_so:
                best_so = cur_so
                best_edges = list(edges)
        temp *= 0.999
    if best_so == start_so:  # no move beat the start: best_edges is its edges
        return AnnealResult(start, start_so, start_so, moves, accepted)
    best = Tree.from_edges(n, best_edges)
    # re-measure so accumulated float drift cannot leak out
    return AnnealResult(best, sombor_index(best), start_so, moves, accepted)
