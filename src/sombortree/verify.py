"""Independent ground truth and theorem probes.

Exact maximum by a scan over free skeleton trees (the trees left after
deleting the leaves, one per isomorphism class; each m's walk is kept once
per process, as flat parent arrays with one degree profile per tree) with
every admissible placement of the degrees on them, scored along the
backtracking that places it; the final ties alone are deduplicated, by a
canonical code read off the skeleton, and each witness tree is written
straight from its placement; an explicit cap bounds the placements scored.
Also degree-preserving 2-swap local search, path-inequality and
attachment-site checkers, and a seeded simulated annealer for instances
beyond exhaustive reach.  Both local checks work by degree class: the
2-swap scan scores each pair of edge classes once and tests validity, O(1)
on preorder intervals, only within class pairs that could beat the best;
the path-inequality check roots the tree once at the first support, scores
each degree pattern between two leaf supports once against the one table
of its path length (kept per process if short, else per call), keeps only
violated entries and walks a path again only when its records are read.
The attachment checker builds no merged tree: one fsum per distinct
neighbor degree of the host's leaves, over the host's and the subtree's
edge weights, in O(n).  The 2-swap scan and the annealer are tested
against the brute-force neighbourhood in tests/swaps.py.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import islice, repeat
from math import factorial
from typing import NamedTuple

from sombortree.graph import (
    DegreeSequence,
    InvalidTreeError,
    NoLeavesError,
    Tree,
    _bfs,
    _placement_code,
    _skeleton_degrees,
    exceeds,
    sombor_index,
    weight_table,
)
from sombortree.construct import construct_max_tree

_SAMPLE_TRIES = 300  # draws before the annealer gives up on finding a swap


# ---------------------------------------------------------------------------
# Labeled count


def prufer_space_size(d: DegreeSequence) -> int:
    """(n-2)! / prod (d_i - 1)!  — count of labeled trees realizing d."""
    size = factorial(d.vertex_count - 2)
    for di in d.degrees:
        size //= factorial(di - 1)
    return size


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


class OracleResult(NamedTuple):
    """Exact maximum over all trees realizing a degree sequence."""

    max_so: float
    enumerated: int
    witnesses: tuple[str, ...]  # canonical codes, sorted
    capped: bool
    witness_trees: tuple[Tree, ...] = ()  # one representative per code


_WALKS: dict[int, tuple] = {}  # m -> (parents, profile ids, profiles)


def _walk_record(m: int):
    """(parents, profiles, trees) for the free trees on m vertices in
    free_trees order: their parent arrays back to back in one flat array,
    and trees yielding (offset into parents, profile id) per tree, where
    profiles[id] is its sorted skeleton degrees, non-increasing.  Read from
    _WALKS once m's walk has run to its end; until then walked lazily and
    kept only at the end, so a scan cut short leaves no partial walk."""
    if m in _WALKS:
        parents, pids, profiles = _WALKS[m]
        return parents, profiles, zip(range(0, len(parents), m), pids)
    from array import array  # here, not at the top: the package import stays as cheap

    parents, pids, profiles, ids = array("b" if m <= 128 else "l"), array("I"), [], {}

    def walk():
        for i, parent in enumerate(free_trees(m)):
            s = _skeleton_degrees(parent)
            s.sort(reverse=True)
            profile = tuple(s)
            pid = ids.setdefault(profile, len(profiles))
            if pid == len(profiles):
                profiles.append(profile)
            parents.fromlist(list(parent))  # grows the array once; extend grows it per item
            pids.append(pid)
            yield i * m, pid
        _WALKS[m] = parents, pids, profiles

    return parents, profiles, walk()


def _skeleton_scan(d: DegreeSequence):
    """Score every tree realizing d as (so, (parent, s, degrees)).

    Deleting the leaves of such a tree leaves a free tree S on its m
    internal vertices, and hanging d(v) - s(v) leaves on each vertex v of
    S, s(v) its degree in S, gives the tree back.  So every placement of
    the multiset d on a free tree S with d(v) >= s(v) is walked, and no
    other (_placements); the score is the fsum of the tree's edge weights,
    bit-identical to sombor_index of the tree.  Isomorphic trees may be
    scored more than once, through automorphisms of S.  The free trees on m
    vertices are walked once per process (_walk_record), and S is
    admissible when its sorted degrees fit under d's, tested once per
    distinct profile.  The single edge (d.m = 0) is scanned as the one
    placement of a degree 1, with its one leaf, on a lone vertex (m = 1).
    """
    need = list(d.degrees) or [1]  # non-increasing: DegreeSequence sorts them
    m = len(need)
    W = weight_table(need + [1])
    vals = sorted(set(need))
    left = [need.count(x) for x in vals]
    parents, profiles, trees = _walk_record(m)
    fits: list[bool] = []  # per profile id
    for i, pid in trees:
        if pid == len(fits):
            fits.append(all(x <= y for x, y in zip(profiles[pid], need)))
        if fits[pid]:
            parent = tuple(parents[i : i + m])
            s = _skeleton_degrees(parent)
            for so, deg in _placements(vals, left[:], parent, s, W):
                yield so, (parent, s, deg)


def _placements(vals, left, parent, s, W):
    """(score, deg) for every tuple deg with left[i] copies of vals[i]
    (ascending) and each deg[v] >= s[v], in lexicographic order, by
    iterative backtracking: each position tries the values still left,
    ascending from the first >= s[v].  Position v pushes its edge to
    parent[v] < v and its deg[v] - s[v] hung leaves onto one stack of edge
    weights, cut back to v's base when v takes another value, and the score
    of a placement is the fsum of the stack: the tree's edge weights."""
    m, k = len(s), len(vals)
    lo = [bisect_left(vals, x) for x in s]
    deg, nxt, v = [0] * m, lo[:], 0  # nxt[v]: the index into vals to try next at v
    terms, base = [], [0] * m  # base[v]: the stack's height below v's terms
    while True:
        i = nxt[v]
        while i < k and not left[i]:
            i += 1
        if i < k:
            left[i] -= 1
            x = deg[v] = vals[i]
            nxt[v] = i + 1
            del terms[base[v] :]
            row = W[x]
            if v:
                terms.append(row[deg[parent[v]]])
            terms += [row[1]] * (x - s[v])
            if v + 1 < m:
                v += 1
                nxt[v], base[v] = lo[v], len(terms)
                continue
            yield math.fsum(terms), tuple(deg)
        elif v:
            v -= 1
        else:
            return
        left[nxt[v] - 1] += 1  # take back the value at v


def _hang_leaves(key) -> Tree:
    """The tree of a placement, written straight from it: v lists its parent,
    skeleton children, then its hung leaves (ids from m up over v = 0, 1, ...),
    so sorted.  A parent[v] outside 0..v-1 is an InvalidTreeError."""
    parent, s, deg = key
    m = len(deg)
    nbrs = [[]] + [[parent[v]] for v in range(1, m)]
    for v in range(1, m):
        if not 0 <= parent[v] < v:
            raise InvalidTreeError(f"parent {parent[v]} of vertex {v} is not in 0..{v - 1}")
        nbrs[parent[v]].append(v)
    hung = []  # the hung leaves' adjacency, (v,) for each
    for v, ns in enumerate(nbrs):
        ns += range(m + len(hung), m + len(hung) + deg[v] - s[v])
        hung += [(v,)] * (deg[v] - s[v])
    return Tree(m + len(hung), (*map(tuple, nbrs), *hung))


def _maximizers(scored) -> tuple[float, dict[str, tuple[float, tuple]]]:
    """Max score and its witnesses over (so, placement) pairs: code -> (so,
    placement) for every score the max does not exceed, the first placement
    in scan order of each canonical form (_placement_code), coding only the
    final ties: isomorphic trees score the same bits, so they go together."""
    best = 0.0  # every tree has positive Sombor value
    ties = []  # (so, placement) that the running best does not exceed, in scan order
    for so, key in scored:
        if exceeds(best, so):
            continue
        if so > best:
            best = so
            ties = [w for w in ties if not exceeds(best, w[0])]
        ties.append((so, key))
    wits: dict[str, tuple[float, tuple]] = {}
    for w in ties:
        wits.setdefault(_placement_code(w[1]), w)
    return best, wits


def oracle_max(d: DegreeSequence, cap: int | None = None) -> OracleResult:
    """Maximum Sombor value over all trees realizing d, by the skeleton scan.

    Witnesses are all non-isomorphic trees whose value the max does not
    exceed (graph.exceeds), a tree written for each from its placement.
    There is no default cap: without one, or with one at or above the
    number of admissible skeleton placements, every placement is scored,
    the result is exact and ``enumerated`` is the labeled tree count
    prufer_space_size(d).  An explicit cap bounds the placements scored:
    when more than cap exist, only the first cap are scored, ``enumerated``
    is cap and the result is inconclusive (capped=True).
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
        witness_trees=tuple(_hang_leaves(wits[c][1]) for c in codes),
    )


# ---------------------------------------------------------------------------
# 2-swap neighborhood


class SwapMove(NamedTuple):
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


def _reroot(parent, x: int, y: int, nest: int) -> None:
    """Keep parent the rooting at 0 after the valid swap of the edges above
    the child ends x and y, nest 1 when y lies below x, 2 when x lies below
    y, else 0, in place, O(depth)."""
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


class LocalMaxReport(NamedTuple):
    is_local_max: bool
    base_so: float
    best_move: SwapMove | None
    best_delta: float
    validity_tests: int = 0  # disjoint pairs tested; takes part in ==, not in to_dict

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


def _edge_intervals(t: Tree, edges) -> list[tuple[int, int, int, int, bool]]:
    """(a, b, pre, end, x == a) per edge (a, b), x its child end in t rooted
    at 0: x's subtree holds the preorder numbers pre..end-1.  One BFS."""
    order, parent = _bfs(t.adj, 0)
    size, pre = [1] * t.n, [0] * t.n
    for v in order[:0:-1]:
        size[parent[v]] += size[v]
    for v in order:  # v's children get blocks the size of their subtrees
        nxt, p = pre[v] + 1, parent[v]
        for u in t.adj[v]:
            if u != p:
                pre[u] = nxt
                nxt += size[u]
    xs = [a if parent[a] == b else b for a, b in edges]
    return [(a, b, pre[x], pre[x] + size[x], x == a) for (a, b), x in zip(edges, xs)]


def is_local_max(t: Tree) -> LocalMaxReport:
    """True iff no 2-swap gives a Sombor value that exceeds t's.

    A swap's delta depends only on the degrees of its four ends, so the
    edges (a,b), a < b, of t.edges() are grouped into classes by
    (d(a), d(b)).  For each ordered pair of classes, P edge first, the
    deltas of both recombinations, d0 for (a,c),(b,d) and d1 for
    (a,d),(b,c), are computed once as new + new - old - old (the two
    orders of a class pair sum the same weights in a different order, so
    their floats may differ).  Class pairs are taken by their larger
    delta, highest first, and the scan stops at the first one below the
    best valid delta so far (0.0 at the start): no later pair can reach
    the best.  Pairs from the class pairs before
    it are tested: disjoint, then r = [a = x] = [c = y] for the child ends
    x, y, negated when the preorder interval of one holds the other
    (_edge_intervals), as a walk up the parent pointers finds.  The move
    is the first (i, j) in edge order with the largest valid delta, as a
    scan of every disjoint pair i < j finds.
    """
    deg = t.degrees()
    W = weight_table(deg)
    edges, weights, classes = [], [], {}  # t.edges(), their weights; degrees -> edge indices
    for a, ns in enumerate(t.adj):  # one pass
        for b in ns:
            if a < b:
                classes.setdefault((deg[a], deg[b]), []).append(len(edges))
                edges.append((a, b))
                weights.append(W[deg[a]][deg[b]])
    base = math.fsum(weights)  # sombor_index(t)
    candidates = []  # (larger delta, d0, d1, P, Q) for an improving class pair
    for (x, y), P in classes.items():
        wx, wy, wp = W[x], W[y], W[x][y]
        for (u, v), Q in classes.items():
            d0 = wx[u] + wy[v] - wp - W[u][v]
            d1 = wx[v] + wy[u] - wp - W[u][v]
            if d0 > 0.0 or d1 > 0.0:
                candidates.append((max(d0, d1), d0, d1, P, Q))
    candidates.sort(key=lambda c: c[0], reverse=True)
    spans = _edge_intervals(t, edges) if candidates else None
    best_delta, best, tested = 0.0, None, 0  # best: (i, j, r) of the best valid swap
    for top, d0, d1, P, Q in candidates:
        if top < best_delta:
            break
        for i in P:
            a, b, pa, ea, fa = spans[i]
            for j in Q[bisect_right(Q, i) :]:
                c, d, pc, ec, fc = spans[j]
                if a == c or a == d or b == c or b == d:
                    continue
                tested += 1
                r = (fa == fc) != (pa <= pc < ea or pc <= pa < ec)
                delta = d1 if r else d0
                if delta > best_delta or (
                    delta == best_delta and best is not None and (i, j) < best[:2]
                ):
                    best_delta, best = delta, (i, j, r)
    if exceeds(base + best_delta, base):  # so best_delta > 0.0: best is set
        i, j, r = best
        move = SwapMove(edges[i], edges[j], int(r))
        return LocalMaxReport(False, base, move, best_delta, tested)
    return LocalMaxReport(True, base, None, best_delta, tested)


# ---------------------------------------------------------------------------
# Path-inequality reporter


class PathInequalityRecord(NamedTuple):
    path: tuple[int, ...]
    i: int
    parity: str  # "odd" | "even"
    inequality: str  # e.g. "d(v1) >= d(v3)"
    lhs_degree: int
    rhs_degree: int
    holds: bool

    def to_dict(self) -> dict:
        return {**self._asdict(), "path": list(self.path)}


_PAIRS_KEPT = 32  # _path_pairs tables for fewer interior vertices are kept per process
_PAIRS: dict[int, tuple] = {}  # k -> _path_pairs(k), for k < _PAIRS_KEPT


def _path_pairs(k: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """The (i, li, ri, hi, lo) inequalities on a path with k interior vertices.

    In report order: (i, mirror), then (mirror, j) for i+1 <= j <= mirror,
    for 1 <= i <= min(k, (k+2)//2), where mirror = k-i+1.  For k = 2 and
    i = 2 the mirror lies before i, which leaves the single pair (2, 1).
    Odd i demands d(v_li) >= d(v_ri), even i d(v_li) <= d(v_ri); (hi, lo)
    orders (li, ri) so that each inequality reads d(v_hi) >= d(v_lo), the
    one test.  A table has O(k^2) entries, so check_theorem1 keeps the
    tables with k < _PAIRS_KEPT in _PAIRS for the process, built on first
    use, and a longer table for the rest of the call only, shared by every
    degree pattern of that length.
    """
    pairs = []
    for i in range(1, min(k, (k + 2) // 2) + 1):
        mirror = k - i + 1
        for li, ri in [(i, mirror)] + [(mirror, j) for j in range(i + 1, mirror + 1)]:
            pairs.append((i, li, ri, li, ri) if i % 2 else (i, li, ri, ri, li))
    return tuple(pairs)


@dataclass(frozen=True)
class Theorem1Report:
    """Theorem-1 counts; ``violating`` is built on first read."""

    tree: Tree = field(repr=False, compare=False)
    paths: int
    checked: int
    violations: int
    # s -> {u: the violated entries on support path s..u}, lower-id leaf on s
    table: dict = field(repr=False, hash=False)

    @functools.cached_property
    def violating(self) -> tuple[PathInequalityRecord, ...]:
        """The violated inequalities, by leaf pair (by id), then table order;
        the support paths are walked here, on the rooting check_theorem1
        counts on: each climbs from u to where it meets s's way up."""
        if not self.table:
            return ()
        leaves, deg = self.tree.leaves(), self.tree.degrees()
        support = [self.tree.adj[a][0] for a in leaves]
        parent = _bfs(self.tree.adj, support[0])[1]
        fields = {}  # s -> {u: (support path s..u, its records' fields but the path)}
        for s, row in self.table.items():
            up, at, v = [s], {s: 0}, s  # s's way up to the root; v -> its index
            while (v := parent[v]) >= 0:
                at[v] = len(up)
                up.append(v)
            out = fields[s] = {}
            for u, hits in row.items():
                along, v = [], u  # from u up to below where it meets s's way up
                while v not in at:
                    along.append(v)
                    v = parent[v]
                path = (*up[: at[v] + 1], *reversed(along))
                degs = (1, *[deg[v] for v in path])
                out[u] = (path, [(i, "odd" if i % 2 else "even",
                                  f"d(v{li}) {'>=' if i % 2 else '<='} d(v{ri})",
                                  degs[li], degs[ri], degs[hi] >= degs[lo])
                                 for i, li, ri, hi, lo in hits])
        violating = []
        for x, a in enumerate(leaves):
            if (row := fields.get(support[x])) is None:
                continue
            for b, u in zip(leaves[x + 1 :], support[x + 1 :]):
                if (hit := row.get(u)) is not None:
                    path = (a, *hit[0], b)
                    violating += [PathInequalityRecord(path, *f) for f in hit[1]]
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
    support (its one neighbour) to b's.  So the inequalities are tested
    once per ordered pair of support vertices.  The tree is rooted once,
    at the first support: it is internal, so the path between two internal
    vertices climbs from one end to the other's way up to the root through
    internal vertices only.  Both orientations are tested, since the
    lower-id leaf starts its path.  Which inequalities fail depends only on
    the degrees along the path, so one lookup per support pair, on its
    degree tuple, gives the pair count and the violated entries from
    either end, computed once per tuple against the one _path_pairs table
    of its length (kept per process if short, else for the call) and
    shared, read only, by the table entries of every path that has it.
    The table keeps only those entries, no path; the counts need no
    record, since each ordered support pair's violations count once per
    leaf pair on it (lower-id leaf first): a violating support pair splits
    its leaf pairs by the lower id's support, all on s when s's leaf ids
    come first (as in every constructed tree), else by bisection over the
    ids.  ``violating`` builds the records on first read, on the same rooting.
    """
    deg = list(map(len, t.adj))
    leaves = [v for v, c in enumerate(deg) if c == 1]
    paths = len(leaves) * (len(leaves) - 1) // 2
    if t.n <= 2:  # the lone edge's one path has no interior
        return Theorem1Report(t, paths, 0, 0, {})
    on = {}  # support -> its leaf ids, ascending, in order of first leaf
    for a in leaves:
        on.setdefault(t.adj[a][0], []).append(a)
    groups = list(on.items())
    parent = _bfs(t.adj, groups[0][0])[1]  # rooted once, at the first support
    seen = {}  # key -> (pair count, violated entries from u, from s)
    longer = {}  # k -> _path_pairs(k), for k >= _PAIRS_KEPT, kept for this call
    checked = violations = 0
    table = defaultdict(dict)  # s -> {u: violated entries on the support path s..u}
    for x, (s, ls) in enumerate(groups):
        # the leaf pairs on s alone have interior s: one entry, d(v1) >= d(v1)
        checked += len(ls) * (len(ls) - 1) // 2
        above, at, v = [deg[s]], {s: 0}, s  # degrees from s up to the root; v -> its index
        while (v := parent[v]) >= 0:
            at[v] = len(above)
            above.append(deg[v])
        for u, lu in groups[x + 1 :]:
            along, v = [], u  # degrees from u up to below where it meets s's way up
            while v not in at:
                along.append(deg[v])
                v = parent[v]
            key = (1, *along, *above[at[v] :: -1])  # a leaf's 1, then the degrees from u to s
            if (hit := seen.get(key)) is None:
                k = len(key) - 1
                store = _PAIRS if k < _PAIRS_KEPT else longer
                if (pairs := store.get(k)) is None:
                    pairs = store[k] = _path_pairs(k)
                rev = (1, *key[:0:-1])  # the same from s; key[-i] would make an int per read past 256
                hit = seen[key] = (len(pairs), [e for e in pairs if key[e[3]] < key[e[4]]],
                                   [e for e in pairs if rev[e[3]] < rev[e[4]]])
            npairs, hu, hs = hit
            if hu:
                table[u][s] = hu
            if hs:
                table[s][u] = hs
            both = len(ls) * len(lu)
            checked += both * npairs
            if hu or hs:  # the leaf pairs whose lower id is on s read the path from s
                from_s = both if ls[-1] < lu[0] else both - sum(map(bisect_right, repeat(lu), ls))
                violations += from_s * len(hs) + (both - from_s) * len(hu)
    return Theorem1Report(t, paths, checked, violations, dict(table))


# ---------------------------------------------------------------------------
# Attachment-site profiling


class AttachmentEntry(NamedTuple):
    leaf: int
    neighbor: int
    neighbor_degree: int
    so: float


class AttachmentProfile(NamedTuple):
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


def attachment_profile(t: Tree, s: Tree) -> AttachmentProfile:
    """SO of merging s (root 0) at every leaf of t, with the monotonicity
    checks, in O(n) and with no tree built.

    Merging s at a leaf whose neighbor has degree g turns that leaf's edge
    from W[g][1] into W[g][r], r one more than the degree of s's root, and
    adds s's edges.  So one list holds the weights of t's edges and of s's
    (its root at degree r), and one fsum per distinct g adds W[g][r] and
    -W[g][1] to it: fsum is correctly rounded, so each value has the bits
    of sombor_index(merge_at(t, s, leaf)).  Every leaf with one g gets
    that one value, so equal_degree_ties_ok holds by construction; rounding
    is monotone, so it keeps the true order and both other checks are
    exact.  The L1^m leaves are those next to the least g.
    """
    if t.n == 1:
        raise NoLeavesError("single-vertex tree has no leaves")
    deg, sdeg = t.degrees(), (s.degree(0) + 1, *s.degrees()[1:])
    W, r = weight_table(deg + sdeg), sdeg[0]
    rest = [W[deg[u]][deg[v]] for u, v in t.edges()]
    rest += [W[sdeg[u]][sdeg[v]] for u, v in s.edges()]
    nb = {a: t.adj[a][0] for a in t.leaves()}
    gs = sorted({deg[v] for v in nb.values()})
    so = {g: math.fsum([*rest, W[g][r], -W[g][1]]) for g in gs}
    entries = tuple(AttachmentEntry(a, v, deg[v], so[deg[v]]) for a, v in nb.items())
    reps = list(so.values())  # by increasing neighbor degree
    mono_ok = all(a >= b for a, b in zip(reps, reps[1:]))
    return AttachmentProfile(entries, True, mono_ok, reps[0] == max(reps))


# ---------------------------------------------------------------------------
# Simulated annealing


class AnnealResult(NamedTuple):
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
    and its parent array rooted at 0, fixed in place on each accept.  The
    start's index is the fsum of its edge weights (sombor_index's bits),
    its parent array is read off its adjacency and its edges off that:
    construct_max_tree numbers vertices in BFS order from 0, so a parent
    is a first neighbor and (parent, child) by child id is start.edges().

    One loop draws every swap, for the temperature and for the moves: edge
    indices i, j and a recombination r, each by getrandbits plus rejection,
    the same bits rng.randrange draws, so the run is reproducible from the
    seed.  A draw is kept when i, j are disjoint edges and r is their one
    valid recombination (walks up the parent array, from internal child ends
    only: 2-swaps keep degrees); a for-else ends the warm-up, or the search,
    after _SAMPLE_TRIES draws in a row without a kept one.
    A negative budget raises ValueError.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    rng = random.Random(seed)
    start = construct_max_tree(d)
    deg = start.degrees()
    W = weight_table(deg)
    n = start.n
    parent = [-1, *(ns[0] for ns in start.adj[1:])]  # start's ids are its BFS order from 0
    edges = list(zip(parent[1:], range(1, n)))  # start.edges(), in its order
    start_so = math.fsum([W[deg[a]][deg[b]] for a, b in edges])  # sombor_index(start)
    if budget == 0 or d.m < 2:  # under two internal vertices: no disjoint edges
        return AnnealResult(start, start_so, start_so, 0, 0)

    ne = len(edges)
    bits, k = rng.getrandbits, ne.bit_length()
    rand, exp = rng.random, math.exp
    row = [W[g] for g in deg]  # row[v][g]: weight of an edge from v to degree g

    deltas = []  # |delta| of the warm-up swaps, None once temp is set
    cur_so = best_so = start_so
    best_edges = list(edges)
    moves = accepted = 0
    while moves < budget:
        for _ in range(_SAMPLE_TRIES):
            i = bits(k)
            while i >= ne:
                i = bits(k)
            j = bits(k)
            while j >= ne:
                j = bits(k)
            (a, b), (c, d) = edges[i], edges[j]
            if a == c or b == d or a == d or b == c:  # also i == j
                continue
            r = bits(2)
            while r >= 2:
                r = bits(2)
            # x, y: the child ends.  r is valid iff it is (x == b) == (y == d),
            # negated when nest is 1 (y lies below x) or 2 (x below y).  0 is
            # no child end; only an internal vertex has vertices below it.
            x = a if parent[a] == b else b
            y = c if parent[c] == d else d
            if deg[x] > 1:
                v = parent[y]
                while v and v != x:
                    v = parent[v]
                if v:
                    if r != ((x == b) == (y == d)):
                        nest = 1
                        break
                    continue
            if deg[y] > 1:
                v = parent[x]
                while v and v != y:
                    v = parent[v]
                if v:
                    if r != ((x == b) == (y == d)):
                        nest = 2
                        break
                    continue
            if r == ((x == b) == (y == d)):
                nest = 0
                break
        else:  # _SAMPLE_TRIES draws in a row with no valid swap
            if deltas is None:
                break
            temp, deltas = _start_temp(deltas), None
            continue
        p, q = (d, c) if r else (c, d)  # new edges (a, p), (b, q)
        delta = row[a][deg[p]] + row[b][deg[q]] - row[a][deg[b]] - row[c][deg[d]]
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
