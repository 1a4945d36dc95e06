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


def _weight_table(degv: list[int]) -> list[list[float]]:
    sqrt = math.sqrt
    return [
        [sqrt(du * du + dv * dv) for dv in degv] for du in degv
    ]


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
    vals = set(need) | {1}
    W = {(a, b): math.sqrt(a * a + b * b) for a in vals for b in vals}
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
        a, b = self.edge_a
        c, d = self.edge_b
        if self.recombination == 0:
            return (a, c), (b, d)
        return (a, d), (b, c)


def _components_without(t: Tree, ea, eb) -> list[int]:
    """Component labels after deleting edges ea and eb (three components)."""
    drop = {frozenset(ea), frozenset(eb)}
    comp = [-1] * t.n
    label = 0
    for s in range(t.n):
        if comp[s] != -1:
            continue
        comp[s] = label
        stack = [s]
        while stack:
            v = stack.pop()
            for u in t.adj[v]:
                if comp[u] == -1 and frozenset((u, v)) not in drop:
                    comp[u] = label
                    stack.append(u)
        label += 1
    return comp


def _swap_is_valid(comp, move: SwapMove) -> bool:
    """The recombination must reconnect the three components into a tree."""
    (p, q), (r, s) = move.new_edges()
    c1 = frozenset((comp[p], comp[q]))
    c2 = frozenset((comp[r], comp[s]))
    return len(c1) == 2 and len(c2) == 2 and c1 != c2


def two_swap_neighbors(t: Tree):
    """Stream all valid SwapMoves of t (endpoint-disjoint edge pairs)."""
    edges = t.edges()
    for i in range(len(edges)):
        a, b = edges[i]
        for j in range(i + 1, len(edges)):
            c, d = edges[j]
            if a == c or a == d or b == c or b == d:
                continue
            comp = _components_without(t, edges[i], edges[j])
            for r in (0, 1):
                move = SwapMove(edges[i], edges[j], r)
                if _swap_is_valid(comp, move):
                    yield move


def apply_swap(t: Tree, move: SwapMove) -> Tree:
    drop = {frozenset(move.edge_a), frozenset(move.edge_b)}
    edges = [e for e in t.edges() if frozenset(e) not in drop]
    edges.extend(move.new_edges())
    return Tree.from_edges(t.n, edges)


def swap_delta(t: Tree, move: SwapMove) -> float:
    """Sombor change of a swap; degrees are untouched, so only the four
    edge weights move."""
    deg = t.degrees()
    a, b = move.edge_a
    c, d = move.edge_b
    (p, q), (r, s) = move.new_edges()

    def w(u, v):
        return math.sqrt(deg[u] * deg[u] + deg[v] * deg[v])

    return w(p, q) + w(r, s) - w(a, b) - w(c, d)


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


def is_local_max(t: Tree, tol: float = REL_TOL) -> LocalMaxReport:
    """True iff no 2-swap raises the Sombor value by more than tol relative."""
    base = sombor_index(t)
    best_move = None
    best_delta = 0.0
    for move in two_swap_neighbors(t):
        delta = swap_delta(t, move)
        if delta > best_delta:
            best_delta = delta
            best_move = move
    if best_delta > tol * base:
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


def _endpoint_labels(adj, a: int, b: int, c: int, d: int) -> dict[int, int]:
    """Component labels of a, b, c, d after deleting edges (a,b) and (c,d).

    adj is a list of neighbor sets; the deletion splits the tree into
    exactly three components.
    """

    def reach(src: int) -> set[int]:
        seen = {src}
        stack = [src]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if (
                    (v == a and u == b)
                    or (v == b and u == a)
                    or (v == c and u == d)
                    or (v == d and u == c)
                ):
                    continue
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return seen

    comp_a = reach(a)
    if c in comp_a:
        return {a: 0, c: 0, b: 1, d: 2}
    if d in comp_a:
        return {a: 0, d: 0, b: 1, c: 2}
    comp_b = reach(b)
    if c in comp_b:
        return {a: 0, b: 1, c: 1, d: 2}
    return {a: 0, b: 1, d: 1, c: 2}


def _sample_valid_swap(rng: random.Random, edges, adjsets, tries: int = 300):
    """A uniform-ish random valid swap as (i, j, new_edge_1, new_edge_2)."""
    ne = len(edges)
    if ne < 2:
        return None
    for _ in range(tries):
        i = rng.randrange(ne)
        j = rng.randrange(ne)
        if i == j:
            continue
        a, b = edges[i]
        c, d = edges[j]
        if a == c or a == d or b == c or b == d:
            continue
        if rng.randrange(2) == 0:
            e1, e2 = (a, c), (b, d)
        else:
            e1, e2 = (a, d), (b, c)
        lbl = _endpoint_labels(adjsets, a, b, c, d)
        pair1 = frozenset((lbl[e1[0]], lbl[e1[1]]))
        pair2 = frozenset((lbl[e2[0]], lbl[e2[1]]))
        if len(pair1) == 2 and len(pair2) == 2 and pair1 != pair2:
            return i, j, e1, e2
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
    W = _weight_table(list(deg))
    edges = start.edges()
    adjsets = [set(ns) for ns in start.adj]

    # instance-adaptive starting temperature
    deltas = []
    for _ in range(100):
        sample = _sample_valid_swap(rng, edges, adjsets)
        if sample is None:
            break
        i, j, e1, e2 = sample
        (a, b), (c, dd) = edges[i], edges[j]
        deltas.append(
            abs(W[e1[0]][e1[1]] + W[e2[0]][e2[1]] - W[a][b] - W[c][dd])
        )
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
        delta = W[e1[0]][e1[1]] + W[e2[0]][e2[1]] - W[a][b] - W[c][dd]
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
