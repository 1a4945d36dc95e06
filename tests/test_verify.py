import hashlib
import heapq
import itertools
import json
import math
import random
from collections import Counter
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sombortree.graph import (
    REL_TOL,
    DegreeSequence,
    InvalidTreeError,
    NoLeavesError,
    Tree,
    _bfs,
    canonical_form,
    exceeds,
    leaf_layer_profile,
    leaf_to_leaf_paths,
    sombor_index,
    tree_centers,
    validate,
    weight_table,
)
from sombortree.construct import (
    SubtreeSpec,
    construct_max_tree,
    materialize,
    merge_at,
)
from sombortree import verify
from sombortree.sweep import generate_degree_sequences
from sombortree.verify import (
    AttachmentEntry,
    AttachmentProfile,
    LocalMaxReport,
    PathInequalityRecord,
    SwapMove,
    Theorem1Report,
    _edge_intervals,
    _hang_leaves,
    _maximizers,
    _path_pairs,
    _placement_code,
    _reroot,
    _skeleton_scan,
    anneal_search,
    attachment_profile,
    check_theorem1,
    free_trees,
    is_local_max,
    oracle_max,
    prufer_space_size,
)

from conftest import time_limit
from labeled import _next_permutation, enumerate_trees, prufer_to_tree
from test_graph import _recursive_canonical_form
from swaps import _delta, _valid_recombination, apply_swap, swap_delta, two_swap_neighbors

CATERPILLAR_322 = Tree.from_edges(6, [(0, 1), (1, 2), (0, 3), (0, 4), (2, 5)])
SPIDER_322 = Tree.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5)])
SO_CATERPILLAR = math.sqrt(13) + math.sqrt(8) + 2 * math.sqrt(10) + math.sqrt(5)
SO_SPIDER = 2 * math.sqrt(13) + math.sqrt(10) + 2 * math.sqrt(5)


def path_tree(n):
    return Tree.from_edges(n, [(i, i + 1) for i in range(n - 1)])


@st.composite
def random_trees(draw, min_n=3, max_n=10):
    n = draw(st.integers(min_n, max_n))
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return prufer_to_tree(seq, n)


# -- Prüfer bijection --------------------------------------------------------


def test_prufer_empty_is_single_edge():
    t = prufer_to_tree([], 2)
    assert t.edges() == [(0, 1)]


def test_prufer_star():
    t = prufer_to_tree([0, 0], 4)
    assert t.degree(0) == 3


def test_prufer_path():
    t = prufer_to_tree([1, 2], 4)
    assert t.edges() == [(0, 1), (1, 2), (2, 3)]


def test_prufer_rejects_bad_entry():
    with pytest.raises(ValueError):
        prufer_to_tree([4], 3)
    with pytest.raises(ValueError):
        prufer_to_tree([0, 0], 3)


def test_prufer_degree_law():
    seq = [3, 3, 1, 4]
    t = prufer_to_tree(seq, 6)
    counts = Counter(seq)
    for v in range(6):
        assert t.degree(v) == counts[v] + 1


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


@given(st.integers(3, 8), st.data())
@settings(max_examples=200)
def test_prufer_bijection_roundtrip(n, data):
    seq = data.draw(
        st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2)
    )
    assert tree_to_prufer(prufer_to_tree(seq, n)) == tuple(seq)


# -- enumeration -------------------------------------------------------------


def test_enumerate_single_star():
    trees = list(enumerate_trees(validate([3])))
    assert len(trees) == 1
    assert trees[0].degree(0) == 3


def test_enumerate_p4_twice():
    trees = list(enumerate_trees(validate([2, 2])))
    assert len(trees) == 2
    assert {canonical_form(t) for t in trees} == {canonical_form(path_tree(4))}


def test_enumerate_322_count():
    trees = list(enumerate_trees(validate([3, 2, 2])))
    assert len(trees) == 12  # 4!/2!
    for t in trees:
        assert t.internal_degrees() == (3, 2, 2)


def test_space_size_matches_enumeration():
    from sombortree.sweep import generate_degree_sequences

    for d in generate_degree_sequences(8):
        assert prufer_space_size(d) == sum(1 for _ in enumerate_trees(d))


# -- free trees --------------------------------------------------------------

# OEIS A000055: free trees on m unlabeled vertices, m = 0, 1, ..., 16
A000055 = [1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320]


@pytest.mark.parametrize("m", range(1, 17))
def test_free_trees_count_and_distinct(m):
    codes = []
    for parent in free_trees(m):
        assert len(parent) == m and parent[0] == -1
        assert all(0 <= parent[v] < v for v in range(1, m))
        edges = [(parent[v], v) for v in range(1, m)]
        codes.append(canonical_form(Tree.from_edges(m, edges)))
    assert len(codes) == A000055[m]
    assert len(set(codes)) == len(codes)


def test_free_trees_rejects_empty():
    with pytest.raises(ValueError):
        list(free_trees(0))


# -- oracle ------------------------------------------------------------------


def labeled_reference(d):
    """Max, witness codes and tree count by brute force over every labeled
    tree realizing d, in the oracle's witness rule."""
    count, best, near = 0, 0.0, []
    for t in enumerate_trees(d):
        count += 1
        so = sombor_index(t)
        if so >= best - REL_TOL * best:
            best = max(best, so)
            near.append((so, canonical_form(t)))
    codes = {code for so, code in near if so >= best - REL_TOL * best}
    return best, tuple(sorted(codes)), count


def test_skeleton_oracle_matches_labeled_reference():
    from sombortree.sweep import generate_degree_sequences

    for d in generate_degree_sequences(10):
        best, codes, count = labeled_reference(d)
        res = oracle_max(d)
        assert not res.capped
        assert res.witnesses == codes, d
        assert res.enumerated == count == prufer_space_size(d)
        assert res.max_so == pytest.approx(best, rel=1e-12, abs=0)
        assert [canonical_form(t) for t in res.witness_trees] == list(codes)
        assert all(sombor_index(t) == res.max_so for t in res.witness_trees)


def test_capped_oracle_matches_placement_prefix():
    # 3,3,3,3,2: 9 placements; the tied witnesses grow at the 2nd and 6th
    d = validate([3, 3, 3, 3, 2])
    for cap in range(1, 9):
        res = oracle_max(d, cap=cap)
        best, wits = _maximizers(itertools.islice(_skeleton_scan(d), cap))
        assert res.capped and res.enumerated == cap and res.max_so == best
        assert res.witnesses == tuple(sorted(wits))
        assert [canonical_form(t) for t in res.witness_trees] == sorted(wits)
    assert [len(oracle_max(d, cap=cap).witnesses) for cap in (1, 2, 6)] == [1, 2, 3]


def reference_scan(d):
    """_skeleton_scan as a walk over every permutation of the degrees on
    each free tree, scoring only the admissible ones: the shape the
    placement generator replaced."""
    m = d.m
    if m == 0:  # the lone edge: a degree-1 vertex with its one leaf
        key = ((-1,), [0], (1,))
        yield sombor_index(placement_tree(key)), key
        return
    need = list(d.degrees)
    W = weight_table(need + [1])
    for parent in free_trees(m):
        s = [0] * m
        for v in range(1, m):
            s[v] += 1
            s[parent[v]] += 1
        deg = sorted(need)
        while True:
            if all(x >= y for x, y in zip(deg, s)):
                terms = [W[deg[v]][deg[parent[v]]] for v in range(1, m)]
                for v in range(m):
                    terms += [W[deg[v]][1]] * (deg[v] - s[v])
                yield math.fsum(terms), (parent, s, tuple(deg))
            if not _next_permutation(deg):
                break


def placement_tree(key):
    """The tree of a placement by Tree.from_edges: skeleton edges, then the
    leaves hung on vertex 0, 1, ... in turn."""
    parent, s, deg = key
    m = len(deg)
    edges = [(parent[v], v) for v in range(1, m)]
    hung = [v for v in range(m) for _ in range(deg[v] - s[v])]
    edges += [(v, m + i) for i, v in enumerate(hung)]
    return Tree.from_edges(m + len(hung), edges)


def sequences_to(n):
    return [validate([])] + generate_degree_sequences(n)


def test_skeleton_scan_matches_permutation_walk():
    walked = 0
    for d in sequences_to(14):
        ref = [(so.hex(), tuple(p), list(s), tuple(g)) for so, (p, s, g) in reference_scan(d)]
        got = [(so.hex(), tuple(p), list(s), tuple(g)) for so, (p, s, g) in _skeleton_scan(d)]
        assert got == ref, d
        walked += len(got)
    assert walked == 9_732


def scan_bits(scan):
    return [(so.hex(), tuple(p), list(s), tuple(g)) for so, (p, s, g) in scan]


def test_walk_record_is_kept_only_once_complete():
    # every m <= 9 walked afresh: at the first sequence of each m a scan cut
    # after half its placements must keep no walk, the first full scan walks
    # m and keeps it, the second reads what was kept; every later sequence
    # reads it three times; each time the stream is the permutation walk's.
    # Largest n first, so that the first sequence of an m has placements on
    # more than one skeleton and the cut falls inside the walk
    for m in range(10):
        verify._WALKS.pop(m, None)
    for d in reversed(sequences_to(12)):
        if d.m > 9:
            continue
        ref = scan_bits(reference_scan(d))
        assert scan_bits(itertools.islice(_skeleton_scan(d), len(ref) // 2)) == ref[: len(ref) // 2]
        assert scan_bits(_skeleton_scan(d)) == ref, d
        assert d.m in verify._WALKS or d.m == 0
        assert scan_bits(_skeleton_scan(d)) == ref, d


def test_profile_fit_matches_per_tree_filter():
    # the scan tests each distinct sorted skeleton-degree profile against d
    # once: the trees it places on must be exactly those the per-tree
    # sorted(s) filter keeps, in walk order
    def profile(parent):
        s = Counter(parent[1:]) + Counter(range(1, len(parent)))
        return tuple(sorted((s[v] for v in range(len(parent))), reverse=True))

    for d in sequences_to(14):
        if d.m == 0:
            continue
        kept = [p for p in free_trees(d.m) if all(x <= y for x, y in zip(profile(p), d.degrees))]
        placed = [p for p, _ in itertools.groupby(p for _, (p, _, _) in _skeleton_scan(d))]
        assert placed == kept, d
    # and each kept walk holds every free tree with its own profile
    for m in range(1, 13):
        parents, pids, profiles = verify._WALKS[m]
        for i, parent in enumerate(free_trees(m)):
            assert tuple(parents[i * m : (i + 1) * m]) == parent
            assert profiles[pids[i]] == profile(parent)
        assert len(parents) == len(pids) * m == (i + 1) * m


def test_placement_code_matches_canonical_form():
    # each placement's tree under a seeded random relabeling, built from its
    # edges in random order and orientation: canonical_form finds the centers
    # and numbers the skeleton itself, from whichever center the labels make
    # the lower, so it reaches the code by another root than the placement's
    # vertex 0 whenever the tree has two centers
    rng = random.Random(14)
    seen, bicentral = 0, 0
    for d in sequences_to(14):
        for _, key in _skeleton_scan(d):
            edges = placement_tree(key).edges()
            n = len(edges) + 1
            label = list(range(n))
            rng.shuffle(label)
            edges = [(label[u], label[v]) if rng.random() < 0.5 else (label[v], label[u])
                     for u, v in edges]
            rng.shuffle(edges)
            tree = Tree.from_edges(n, edges)
            assert canonical_form(tree) == _placement_code(key), key
            seen += 1
            bicentral += len(tree_centers(tree.adj)) == 2
    assert (seen, bicentral) == (9_732, 4_356)


def test_placement_code_matches_recursive_reference():
    # an independent reference for the oracle's codes: the recursive AHU
    # code of each placement's tree, at both centers when there are two;
    # every placement with n <= 14: the lone edge, m = 2, and 4,356 trees
    # with two centers among them.  The tree _hang_leaves writes straight
    # from the placement is the one Tree.from_edges builds from its edges
    seen, bicentral = 0, 0
    for d in sequences_to(14):
        for _, key in _skeleton_scan(d):
            tree = _hang_leaves(key)
            assert tree == placement_tree(key), key
            assert _placement_code(key) == _recursive_canonical_form(tree), key
            seen += 1
            bicentral += len(tree_centers(tree.adj)) == 2
    assert (seen, bicentral) == (9_732, 4_356)


def test_placement_code_deep_skeleton():
    # the path on 3,000 internal vertices: no recursion anywhere
    _, key = next(_skeleton_scan(validate([2] * 3000)))
    assert _placement_code(key) == canonical_form(_hang_leaves(key))


def test_hang_leaves_rejects_a_placement_that_is_not_a_tree():
    # vertices 1 and 2 point at each other, cut off from vertex 0
    with pytest.raises(InvalidTreeError):
        _hang_leaves(((-1, 2, 1), [0, 2, 2], (1, 2, 2)))


@pytest.mark.parametrize("parent", [(-1, -1, 1), (-1, 0, 2), (-1, 0, 3)])
def test_hang_leaves_rejects_a_parent_outside_the_earlier_vertices(parent):
    # a parent of -1, of v itself, or past the skeleton: vertex 3 would be
    # a hung leaf's id, which Tree.from_edges cannot tell from a skeleton one
    with pytest.raises(InvalidTreeError):
        _hang_leaves((parent, [0, 1, 1], (2, 2, 2)))


def coding_every_tie(scored):
    """_maximizers as it coded every placement the running best did not
    exceed, dropping codes as the best rose: the reference for coding the
    final ties only."""
    best, wits = 0.0, {}
    for so, key in scored:
        if exceeds(best, so):
            continue
        if so > best:
            best = so
            wits = {c: w for c, w in wits.items() if not exceeds(best, w[0])}
        wits.setdefault(_placement_code(key), (so, key))
    return best, wits


def test_final_ties_match_coding_every_tie():
    # every sequence with n <= 14, whole and cut after 1, 2, 3, 5, 8 and 13
    # placements: the same max bits and the same first placement per code
    for d in sequences_to(14):
        scored = list(_skeleton_scan(d))
        for cap in (1, 2, 3, 5, 8, 13, None):
            best, wits = _maximizers(scored[:cap])
            ref_best, ref_wits = coding_every_tie(scored[:cap])
            assert best.hex() == ref_best.hex() and wits == ref_wits, (d, cap)


def test_witness_trees_are_their_placements():
    # each witness tree is the first placement in scan order with its code
    for d in sequences_to(12):
        _, wits = _maximizers(_skeleton_scan(d))
        res = oracle_max(d)
        for code, tree in zip(res.witnesses, res.witness_trees):
            assert tree == placement_tree(wits[code][1])


def test_cap_counts_skeleton_placements():
    # 3,3,2,2: 180 labeled trees, 9 placements on its two skeletons
    d = validate([3, 3, 2, 2])
    assert prufer_space_size(d) == 180
    assert sum(1 for _ in _skeleton_scan(d)) == 9
    exact = oracle_max(d)
    at_count = oracle_max(d, cap=9)
    assert not at_count.capped and at_count.enumerated == 180
    assert (at_count.max_so, at_count.witnesses) == (exact.max_so, exact.witnesses)
    below = oracle_max(d, cap=8)
    assert below.capped and below.enumerated == 8
    # a cap past sys.maxsize is exact too, not an islice error
    huge = oracle_max(d, cap=2**64)
    assert not huge.capped and huge.enumerated == 180


def test_cap_one_is_exact_on_one_placement():
    # eleven 2s: 11! labeled trees but one placement, the path's skeleton
    d = validate([2] * 11)
    res = oracle_max(d, cap=1)
    assert not res.capped and res.enumerated == factorial(11)
    assert res.witnesses == (canonical_form(construct_max_tree(d)),)


def test_uncapped_oracle_is_exact_beyond_ten_million_labeled_trees():
    # eleven 2s: 11! labeled trees, one free tree on the skeleton
    d = validate([2] * 11)
    res = oracle_max(d)
    assert not res.capped and res.enumerated == factorial(11) == 39_916_800
    assert res.witnesses == (canonical_form(construct_max_tree(d)),)
    assert res.max_so == math.fsum([math.sqrt(5)] * 2 + [math.sqrt(8)] * 10)


@pytest.mark.parametrize("cap", [0, -5])
def test_oracle_rejects_cap_below_one(cap):
    with pytest.raises(ValueError):
        oracle_max(validate([3, 2, 2]), cap=cap)


def test_oracle_322():
    res = oracle_max(validate([3, 2, 2]))
    assert res.max_so == pytest.approx(SO_CATERPILLAR, rel=1e-12)
    assert res.enumerated == 12
    assert not res.capped
    assert res.witnesses == (canonical_form(CATERPILLAR_322),)
    assert sombor_index(SPIDER_322) == pytest.approx(SO_SPIDER, rel=1e-12)


def test_oracle_33():
    res = oracle_max(validate([3, 3]))
    assert res.max_so == pytest.approx(math.sqrt(18) + 4 * math.sqrt(10), rel=1e-12)
    assert len(res.witnesses) == 1


def test_oracle_path():
    res = oracle_max(validate([2, 2, 2]))
    assert res.max_so == pytest.approx(2 * math.sqrt(5) + 2 * math.sqrt(8), rel=1e-12)


def test_oracle_capped_flag():
    # 3,2,2 has 3 placements, so a cap of 2 stops the scan short
    res = oracle_max(validate([3, 2, 2]), cap=2)
    assert res.capped
    assert res.enumerated == 2


def test_oracle_single_edge():
    res = oracle_max(validate([]))
    assert res.max_so == pytest.approx(math.sqrt(2), rel=1e-12)
    # the lone edge is one placement, so a cap of 1 leaves it exact
    capped = oracle_max(validate([]), cap=1)
    assert not capped.capped and capped.enumerated == 1
    assert capped.max_so == math.sqrt(2)
    assert capped.witnesses == res.witnesses


def test_unsorted_degrees_give_the_sorted_oracle():
    # built directly, not through validate: unsorted, the admissibility
    # filter once dropped a maximiser and reported 83.45358021216622, exact
    raw = oracle_max(DegreeSequence((2, 2, 5, 4, 3, 3, 5)))
    assert raw == oracle_max(validate([5, 5, 4, 3, 3, 2, 2]))
    assert raw.max_so == 83.54782349807991
    assert len(raw.witnesses) == 2 and not raw.capped


def test_shuffled_sequences_give_the_sorted_results(audit_n12):
    rng = random.Random(12)
    for degrees, (_, constructed, oracle) in audit_n12.items():
        raw = list(degrees)
        rng.shuffle(raw)
        d = DegreeSequence(tuple(raw))
        assert oracle_max(d) == oracle, raw
        assert construct_max_tree(d) == constructed, raw


def test_oracle_json_embeds_witness_trees():
    # the witness JSON that `sombor sweep --witness-dir` writes is the
    # tree's own to_json; it round-trips to the witness's canonical form
    res = oracle_max(validate([3, 2, 2]))
    assert res.enumerated == 12 and res.capped is False
    data = json.loads(res.witness_trees[0].to_json())
    assert data["n"] == 6
    tree = Tree.from_json(res.witness_trees[0].to_json())
    assert canonical_form(tree) == res.witnesses[0]


@given(random_trees(max_n=8))
@settings(max_examples=40, deadline=None)
def test_oracle_dominates_constructor(t):
    d = validate(t.internal_degrees())
    res = oracle_max(d)
    c_so = sombor_index(construct_max_tree(d))
    assert res.max_so >= c_so - 1e-9 * res.max_so


# -- 2-swap neighborhood -----------------------------------------------------


def test_p4_has_single_valid_swap():
    moves = list(two_swap_neighbors(path_tree(4)))
    assert len(moves) == 1
    move = moves[0]
    assert {move.edge_a, move.edge_b} == {(0, 1), (2, 3)}
    result = apply_swap(path_tree(4), move)
    assert canonical_form(result) == canonical_form(path_tree(4))


def test_swaps_skip_shared_endpoints():
    # star: every edge pair shares the hub, so no move exists
    star = Tree.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert list(two_swap_neighbors(star)) == []


@given(random_trees())
@settings(max_examples=60, deadline=None)
def test_swaps_preserve_degrees(t):
    base = sorted(t.degrees())
    for move in two_swap_neighbors(t):
        swapped = apply_swap(t, move)
        assert sorted(swapped.degrees()) == base
        assert swap_delta(t, move) == pytest.approx(
            sombor_index(swapped) - sombor_index(t), abs=1e-9
        )


@given(random_trees())
@settings(max_examples=80, deadline=None)
def test_one_valid_recombination_per_disjoint_pair(t):
    edges = t.edges()
    disjoint = [
        (e, f) for i, e in enumerate(edges) for f in edges[i + 1 :] if not set(e) & set(f)
    ]
    moves = list(two_swap_neighbors(t))
    assert [(m.edge_a, m.edge_b) for m in moves] == disjoint
    for move in moves:
        assert apply_swap(t, move).n == t.n
        # from_edges' connectivity check is the independent reference
        other = SwapMove(move.edge_a, move.edge_b, 1 - move.recombination)
        with pytest.raises(InvalidTreeError):
            apply_swap(t, other)


def _root_at_0(n, edges):
    """Reference rooting: parent of every vertex in the tree rooted at 0,
    -1 at the root, by a depth-first walk of the edge set."""
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    parent = [None] * n
    parent[0] = -1
    stack = [0]
    while stack:
        v = stack.pop()
        for u in nbrs[v]:
            if parent[u] is None:
                parent[u] = v
                stack.append(u)
    return parent


def _reference_recombination(n, edges, e, f):
    """The one recombination of e, f that Tree.from_edges accepts."""
    rest = [g for g in edges if g != e and g != f]
    (a, b), (c, d) = e, f
    valid = []
    for r, new in ((0, [(a, c), (b, d)]), (1, [(a, d), (b, c)])):
        try:
            Tree.from_edges(n, rest + new)
        except InvalidTreeError:
            continue
        valid.append(r)
    assert len(valid) == 1
    return valid[0]


@given(random_trees(min_n=4, max_n=40), st.lists(st.integers(0, 10**6), max_size=8))
@settings(max_examples=60, deadline=None)
def test_rooted_kernel_matches_reference_over_swap_runs(t, picks):
    # a run of accepted swaps: after each, the in-place rooting must be the
    # fresh one, and every disjoint pair must get the reference answer
    n, edges = t.n, t.edges()
    parent = _root_at_0(n, edges)
    for pick in [None] + picks:
        if pick is not None:
            (a, b), (c, d) = e, f = pairs[pick % len(pairs)]
            r, x, y, nest = _valid_recombination(parent, a, b, c, d)
            _reroot(parent, x, y, nest)
            edges = [g for g in edges if g != e and g != f]
            edges += [tuple(sorted(g)) for g in SwapMove(e, f, r).new_edges()]
            assert parent == _root_at_0(n, edges)
        pairs = [(e, f) for i, e in enumerate(edges) for f in edges[i + 1 :]
                 if not set(e) & set(f)]
        if not pairs:
            break
        for e, f in pairs:
            kernel = _valid_recombination(parent, *e, *f)[0]
            assert kernel == _reference_recombination(n, edges, e, f)


@given(random_trees(min_n=4, max_n=60))
@settings(max_examples=100, deadline=None)
def test_interval_recombination_matches_parent_walk(t):
    # the O(1) test of is_local_max: r = [a = x] == [c = y], flipped when
    # one child end's preorder interval holds the other's
    parent = _bfs(t.adj, 0)[1]
    spans = _edge_intervals(t, t.edges())
    for i, (a, b, pa, ea, fa) in enumerate(spans):
        for c, d, pc, ec, fc in spans[i + 1 :]:
            if len({a, b, c, d}) < 4:
                continue
            r = (fa == fc) != (pa <= pc < ea or pc <= pa < ec)
            assert int(r) == _valid_recombination(parent, a, b, c, d)[0]


def test_paper_tree_has_neutral_nonisomorphic_swap():
    t = construct_max_tree(validate([5, 5, 5, 4, 3, 3, 2, 2]))
    code = canonical_form(t)
    found = False
    for move in two_swap_neighbors(t):
        if abs(swap_delta(t, move)) <= 1e-12:
            other = apply_swap(t, move)
            if canonical_form(other) != code:
                assert sombor_index(other) == pytest.approx(
                    sombor_index(t), rel=1e-9
                )
                found = True
                break
    assert found


# -- local maximality --------------------------------------------------------


def test_star_is_local_max():
    report = is_local_max(Tree.from_edges(5, [(0, i) for i in range(1, 5)]))
    assert report.is_local_max


def test_caterpillar_local_max():
    assert is_local_max(CATERPILLAR_322).is_local_max


def test_spider_not_local_max():
    report = is_local_max(SPIDER_322)
    assert not report.is_local_max
    assert report.best_delta == pytest.approx(SO_CATERPILLAR - SO_SPIDER, rel=1e-9)
    improved = apply_swap(SPIDER_322, report.best_move)
    assert canonical_form(improved) == canonical_form(CATERPILLAR_322)


def _reference_local_max(t):
    """is_local_max as a scan of every move of two_swap_neighbors, each
    scored by swap_delta's own body (_delta on one degree list and weight
    table per tree): the shape its pruned loop replaced."""
    base = sombor_index(t)
    deg = t.degrees()
    W = weight_table(deg)
    best_move, best_delta = None, 0.0
    for move in two_swap_neighbors(t):
        delta = _delta(W, deg, move.edge_a, move.edge_b, *move.new_edges())
        if delta > best_delta:
            best_move, best_delta = move, delta
    if exceeds(base + best_delta, base):
        return LocalMaxReport(False, base, best_move, best_delta)
    return LocalMaxReport(True, base, None, best_delta)


def assert_local_max_matches_reference(t):
    ref = _reference_local_max(t)
    report = is_local_max(t)
    assert report.to_dict() == ref.to_dict()
    assert report.best_delta.hex() == ref.best_delta.hex()
    assert report.base_so.hex() == ref.base_so.hex()
    assert report.best_move == ref.best_move
    return report


@given(random_trees(max_n=40))
@example(SPIDER_322)
@example(Tree.from_edges(1, []))
@example(Tree.from_edges(2, [(0, 1)]))
@settings(max_examples=300, deadline=None)
def test_pruned_local_max_matches_reference_on_random_trees(t):
    # uniform random trees are rarely local maxima, so most examples carry
    # a best move that the pruned scan must find first in pair order
    assert_local_max_matches_reference(t)


def test_pruned_local_max_matches_reference_on_constructed_trees():
    seqs = generate_degree_sequences(14)
    assert len(seqs) == 271
    for d in seqs:
        assert_local_max_matches_reference(construct_max_tree(d))


def test_seeded_random_trees_are_mostly_not_local_maxima():
    # the identity tests above need improvable trees to test the best move
    rng = random.Random(5)
    trees = []
    for _ in range(200):
        n = rng.randint(3, 40)
        trees.append(prufer_to_tree([rng.randrange(n) for _ in range(n - 2)], n))
    reports = [assert_local_max_matches_reference(t) for t in trees]
    assert sum(not r.is_local_max for r in reports) > len(reports) // 2


def test_class_pairs_limit_validity_tests_m150():
    # the m = 150 list of test_golden.py::test_check_cli_output_m150
    rng = random.Random(7)
    t = construct_max_tree(validate([rng.randint(3, 5) for _ in range(150)]))
    report = is_local_max(t)
    tested = report.validity_tests
    deg = t.degrees()
    W = weight_table(deg)
    edges = t.edges()
    disjoint = positive = 0
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1 :]:
            if len({a, b, c, d}) < 4:
                continue
            disjoint += 1
            old = (a, b), (c, d)
            positive += max(
                _delta(W, deg, *old, (a, c), (b, d)), _delta(W, deg, *old, (a, d), (b, c))
            ) > 0.0
    # a pair is tested only when its class pair has a positive delta
    assert 0 < tested <= positive
    assert 5 * tested < disjoint
    assert report == assert_local_max_matches_reference(t)
    assert report.is_local_max


# -- Theorem 1 reporter ------------------------------------------------------


def test_theorem1_p5_all_hold():
    report = check_theorem1(path_tree(5))
    assert report.violations == 0
    assert report.paths == 1
    assert report.checked > 0


def test_theorem1_caterpillar_322():
    report = check_theorem1(CATERPILLAR_322)
    assert report.violations == 0
    # the path through both degree-2 internals: i=1 gives d(v1)=3 >= d(v3)=2
    records = reference_theorem1(CATERPILLAR_322)[0]
    long_path = [r for r in records if len(r.path) == 5]
    assert any(
        r.i == 1 and r.lhs_degree == 3 and r.rhs_degree == 2 and r.holds
        for r in long_path
    )
    assert_theorem1_matches_reference(CATERPILLAR_322)


def test_theorem1_paper_tree_flags_even_violation():
    t = construct_max_tree(validate([5, 5, 5, 4, 3, 3, 2, 2]))
    report = check_theorem1(t)
    assert report.violations > 0
    assert any(
        r.i == 2 and r.parity == "even" and r.lhs_degree == 3 and r.rhs_degree == 2
        for r in report.violating
    )
    # reporter never raises; JSON form carries the violations
    data = json.loads(json.dumps(report.to_dict()))
    assert data["violations"] == report.violations
    assert len(data["records"]) == report.violations


def reference_theorem1(t):
    """The record-by-record checker: one record for every inequality."""
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
    return records, len(paths)


def assert_theorem1_matches_reference(t):
    records, paths = reference_theorem1(t)
    violating = [r for r in records if not r.holds]
    report = check_theorem1(t)
    assert report.paths == paths
    assert report.checked == len(records)
    assert report.violations == len(violating)
    assert list(report.violating) == violating
    assert json.dumps(report.to_dict()) == json.dumps(
        {
            "paths": paths,
            "checked": len(records),
            "violations": len(violating),
            "records": [r.to_dict() for r in violating],
        }
    )


@given(random_trees(max_n=40))
@settings(max_examples=300, deadline=None)
def test_streamed_theorem1_matches_reference_on_random_trees(t):
    assert_theorem1_matches_reference(t)


def test_streamed_theorem1_matches_reference_on_constructed_trees():
    seqs = generate_degree_sequences(14)
    assert len(seqs) == 271
    for d in seqs:
        assert_theorem1_matches_reference(construct_max_tree(d))


def per_support_theorem1(t):
    """check_theorem1's counts and table by one skeleton BFS from each
    support and a walk up its parents from every later support: the
    reference for rooting the whole tree once.  Returns the report and
    the BFS parents per support, for per_support_records."""
    leaves = t.leaves()
    paths = len(leaves) * (len(leaves) - 1) // 2
    if t.n <= 2:
        return Theorem1Report(t, paths, 0, 0, {}), {}
    deg = t.degrees()
    support = [t.adj[a][0] for a in leaves]
    count = list(Counter(support).items())
    skeleton = [[u for u in ns if deg[u] > 1] if len(ns) > 1 else () for ns in t.adj]
    checked, table, parents = 0, {}, {}
    for x, (s, cs) in enumerate(count):
        checked += cs * (cs - 1) // 2
        parent = parents[s] = _bfs(skeleton, s)[1]
        for u, cu in count[x + 1 :]:
            along, v = [deg[u]], u  # degrees from u up to s
            while v != s:
                v = parent[v]
                along.append(deg[v])
            pairs = _path_pairs(len(along))
            checked += cs * cu * len(pairs)
            for a, b, p in ((u, s, (1, *along)), (s, u, (1, *along[::-1]))):
                if hits := [e for e in pairs if p[e[3]] < p[e[4]]]:
                    table.setdefault(a, {})[b] = hits
    violations, later = 0, Counter()
    for s, run in itertools.groupby(reversed(support)):
        c = len(list(run))
        if row := table.get(s):
            violations += c * sum(later[u] * len(h) for u, h in row.items())
        later[s] += c
    return Theorem1Report(t, paths, checked, violations, table), parents


def per_support_records(t, table, parents):
    """The violated records from the reference's own table and BFS parents,
    with no call into Theorem1Report: for each leaf pair a < b by id whose
    supports' pair has hits, the path walked up from b's support to a's on
    the BFS from a's, and one record per hit in table order."""
    deg, leaves = t.degrees(), t.leaves()
    records = []
    for x, a in enumerate(leaves):
        s = t.adj[a][0]
        for b in leaves[x + 1 :]:
            u = t.adj[b][0]
            if (hits := table.get(s, {}).get(u)) is None:
                continue
            walk = [b, u]
            while walk[-1] != s:
                walk.append(parents[s][walk[-1]])
            path = (a, *walk[::-1])
            for i, li, ri, _, _ in hits:
                lhs, rhs = deg[path[li]], deg[path[ri]]
                op, holds = (">=", lhs >= rhs) if i % 2 else ("<=", lhs <= rhs)
                parity = "odd" if i % 2 else "even"
                ineq = f"d(v{li}) {op} d(v{ri})"
                records.append(PathInequalityRecord(path, i, parity, ineq, lhs, rhs, holds))
    return tuple(records)


def assert_theorem1_matches_per_support(t, records=True):
    report, (ref, parents) = check_theorem1(t), per_support_theorem1(t)
    assert report == ref  # paths, checked, violations and table
    assert [(s, [*row.items()]) for s, row in report.table.items()] == [
        (s, [*row.items()]) for s, row in ref.table.items()
    ]
    if records:
        assert report.violating == per_support_records(t, ref.table, parents)
    return report


@st.composite
def first_support_trees(draw):
    """Random trees relabeled so that vertex 0, the root check_theorem1
    walks from, is a leaf, or so that the lowest-id leaf is one farthest
    from vertex 0: its support's way up then climbs the tree's full depth."""
    t = draw(random_trees(max_n=40))
    leaves = t.leaves()
    if draw(st.booleans()):
        x, y = 0, draw(st.sampled_from(leaves))
    else:
        x, y = leaves[0], _bfs(t.adj, 0)[0][-1]  # the last vertex in BFS order is a leaf
    label = list(range(t.n))
    label[x], label[y] = y, x
    return Tree.from_edges(t.n, [(label[a], label[b]) for a, b in t.edges()])


@given(first_support_trees())
@settings(max_examples=300, deadline=None)
def test_theorem1_matches_per_support_walks(t):
    assert_theorem1_matches_per_support(t)


def test_theorem1_matches_per_support_walks_on_a_deep_caterpillar():
    # the spine 0..1099 with 951 leaves on 0 and 949 on 1099, 3,000
    # vertices: the lowest-id leaf, 1100, hangs on 1099, the tree is rooted
    # at 0, and the one support pair's path climbs 1,099 vertices,
    # past the default recursion limit.  Only leaf 1100 starts a path on
    # 1099 and ends it on 0, where d(v1) >= d(v1100) reads 950 >= 952: 951
    # violations, one per leaf on 0
    hung = {0: range(1101, 2052), 1099: [1100, *range(2052, 3000)]}
    t = _leaves_on(3000, [(i, i + 1) for i in range(1099)], hung)
    assert_theorem1_matches_per_support(t)
    assert check_theorem1(t).violations == 951
    # the table for the 1,100 interior vertices is not kept
    assert 1100 not in verify._PAIRS
    assert all(k < verify._PAIRS_KEPT for k in verify._PAIRS)


def _random_caterpillar(L):
    """The spine 0..L-1 with 2L leaves on spine vertices drawn by
    random.Random(5), and one leaf more at each spine end."""
    rng = random.Random(5)
    edges = [(i, i + 1) for i in range(L - 1)]
    edges += [(rng.randrange(L), L + i) for i in range(2 * L)]
    return Tree.from_edges(3 * L + 2, edges + [(0, 3 * L), (L - 1, 3 * L + 1)])


@time_limit(5)
def test_long_path_pair_tables_are_built_once_per_call(monkeypatch):
    # the 64-vertex spine's random degrees give 33 path lengths of 32 or
    # more interior vertices over hundreds of degree patterns (up to 23 for
    # one length): each length's table is built once and shared
    built, tables = Counter(), {}

    def counted(k):
        built[k] += 1
        tables[k] = _path_pairs(k)
        return tables[k]

    monkeypatch.setattr(verify, "_path_pairs", counted)
    # its 550,577 records are left to the smaller trees' tests
    report = assert_theorem1_matches_per_support(_random_caterpillar(64), records=False)
    assert sorted(k for k in built if k >= verify._PAIRS_KEPT) == list(range(verify._PAIRS_KEPT, 65))
    assert all(c == 1 for c in built.values())
    # no long table outlives the call
    assert all(k < verify._PAIRS_KEPT for k in verify._PAIRS)
    # every violated entry is a built or kept table's own, not a copy
    ids = {id(e) for pairs in [*tables.values(), *verify._PAIRS.values()] for e in pairs}
    assert all(id(e) in ids for row in report.table.values() for hits in row.values() for e in hits)


def test_theorem1_matches_per_support_walks_on_large_check_trees():
    # the large benchmark's check shape: m = 10..18, degrees drawn from 3..5
    for seed in range(30):
        rng = random.Random(seed)
        d = validate([rng.randint(3, 5) for _ in range(rng.randint(10, 18))])
        assert_theorem1_matches_per_support(construct_max_tree(d))


def test_short_path_pair_tables_are_kept_once_per_process():
    t = construct_max_tree(validate([5, 5, 5, 4, 3, 3, 2, 2]))
    first = check_theorem1(t)
    assert first.violations == 80
    kept = dict(verify._PAIRS)
    assert kept and all(k < verify._PAIRS_KEPT for k in kept)
    assert check_theorem1(t) == first
    # a repeat call reads the kept tables, which equal a fresh build
    assert all(verify._PAIRS[k] is pairs for k, pairs in kept.items())
    assert all(pairs == _path_pairs(k) and pairs is not _path_pairs(k) for k, pairs in kept.items())
    # the violated entries a report holds are the kept tables' own
    ids = {id(e) for pairs in verify._PAIRS.values() for e in pairs}
    assert all(id(e) in ids for row in first.table.values() for hits in row.values() for e in hits)


def _leaves_on(n, spine, hung):
    """A tree on the spine edges, with hung[v] leaves added at vertex v in
    the order given by the leaf ids of hung (vertex -> list of leaf ids)."""
    edges = list(spine)
    for v, ids in hung.items():
        edges += [(v, leaf) for leaf in ids]
    return Tree.from_edges(n, edges)


# s = 0 (degree 3), x = 1 (degree 2), u = 2 (degree 4): the support path
# 0,1,2 has interior degrees 3,2,4, and d(v1) >= d(v3) fails on it but not
# on its reverse 4,2,3.  Leaves 3, 6 hang on s and 4, 5, 7 on u, so leaf
# pairs run both ways between the two supports.
ORIENTED = _leaves_on(8, [(0, 1), (1, 2)], {0: [3, 6], 2: [4, 5, 7]})
LEAF_ROOT = _leaves_on(11, [(i, i + 1) for i in range(1, 5)], {1: [6, 9], 3: [7, 10], 5: [0, 8]})

SUPPORT_CASES = {
    "single_vertex": Tree.from_edges(1, []),
    "lone_edge": Tree.from_edges(2, [(0, 1)]),
    "star_k15": Tree.from_edges(6, [(0, i) for i in range(1, 6)]),
    # legs of length 1, 2, 3 and 3 from a degree-4 center
    "spider": Tree.from_edges(
        10, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7), (7, 8), (8, 9)]
    ),
    # spine 0..4; 12 leaves crowd onto vertices 0, 2 and 4, ids interleaved
    "crowded_caterpillar": _leaves_on(
        17,
        [(i, i + 1) for i in range(4)],
        {0: [5, 8, 11, 14], 2: [6, 9, 12, 15], 4: [7, 10, 13, 16]},
    ),
    "oriented_pair": ORIENTED,
    # spine 0..4 with degrees 3,2,4,2,3 and supports 0, 2, 4 (in leaf order):
    # the support path 0,1,2 reads 3,2,4 from 0 (the second orientation of
    # its pair) and so does 4,3,2 from 4 (the first orientation of its pair),
    # while 0..4 reads 3,2,4,2,3 both ways
    "shared_tuple_both_ways": _leaves_on(
        11, [(i, i + 1) for i in range(4)], {0: [5, 8], 2: [6, 9], 4: [7, 10]}
    ),
    # spine 0..3 with degrees 3,4,3,4: the palindromes 3,4,3 and 4,3,4 side
    # by side, and 3,4,3,4 whose reverse differs
    "palindromes": _leaves_on(
        12, [(0, 1), (1, 2), (2, 3)], {0: [4, 8], 1: [5, 9], 2: [6], 3: [7, 10, 11]}
    ),
    # the root, vertex 0, is a leaf: spine 1..5 with degrees 3,2,4,2,3 and
    # leaves 0, 8 on 5, so 1..3 is violated read from 1, 5..3 read from 5
    # and 1..5 read both ways
    "leaf_root": LEAF_ROOT,
}


@pytest.mark.parametrize("name", SUPPORT_CASES)
def test_support_grouping_matches_reference(name):
    assert_theorem1_matches_reference(SUPPORT_CASES[name])
    assert_counts_need_no_records(SUPPORT_CASES[name])


def test_support_pair_orientations_differ():
    report = check_theorem1(ORIENTED)
    # from s to u: (3,4), (3,5), (3,7), (6,7); from u to s: (4,6), (5,6)
    assert report.paths == 10
    assert [r.path for r in report.violating] == [
        (3, 0, 1, 2, 4), (3, 0, 1, 2, 5), (3, 0, 1, 2, 7), (6, 0, 1, 2, 7)
    ]
    assert all(r.inequality == "d(v1) >= d(v3)" for r in report.violating)
    assert_theorem1_matches_reference(ORIENTED)
    # rooted at a leaf: the support path 1..5 is violated from both ends
    ends = {r.path[1:-1] for r in check_theorem1(LEAF_ROOT).violating if len(r.path) == 7}
    assert ends == {(5, 4, 3, 2, 1), (1, 2, 3, 4, 5)}


def test_theorem1_builds_records_only_for_violations(monkeypatch):
    built = []

    class CountedRecord(PathInequalityRecord):
        def __new__(cls, *fields, **named):
            self = super().__new__(cls, *fields, **named)
            built.append(self)
            return self

    monkeypatch.setattr(verify, "PathInequalityRecord", CountedRecord)
    report = check_theorem1(construct_max_tree(validate([5, 5, 5, 4, 3, 3, 2, 2])))
    assert 0 < report.violations < report.checked
    assert built == []  # the counts need no record
    assert len(report.violating) == report.violations
    assert len(built) == report.violations
    report.violating  # cached: a second read builds nothing
    assert len(built) == report.violations


def test_theorem1_records_root_the_tree_once(monkeypatch):
    report = check_theorem1(construct_max_tree(validate([5, 5, 5, 4, 3, 3, 2, 2])))
    assert len(report.table) == 2
    calls = []

    def counted_bfs(adj, root):
        calls.append(root)
        return _bfs(adj, root)

    monkeypatch.setattr(verify, "_bfs", counted_bfs)
    assert len(report.violating) == report.violations
    assert calls == [0]


def assert_counts_need_no_records(t):
    records, paths = reference_theorem1(t)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "PathInequalityRecord", None)  # calling it raises
        report = check_theorem1(t)
        assert (report.paths, report.checked, report.violations) == (
            paths, len(records), sum(not r.holds for r in records)
        )
        assert report == check_theorem1(Tree.from_json(t.to_json()))


@given(random_trees(max_n=40))
@settings(max_examples=200, deadline=None)
def test_theorem1_counts_need_no_records_on_random_trees(t):
    assert_counts_need_no_records(t)


def test_theorem1_counts_need_no_records_on_constructed_trees():
    for d in generate_degree_sequences(14):
        assert_counts_need_no_records(construct_max_tree(d))


# Like ORIENTED, with the leaves of its two supports interleaved by id:
# 1, 5 on s = 0 and 3, 6, 7 on u = 4.  Only s to u violates (d(v1) >= d(v3)
# reads 3 >= 4), so of the six leaf pairs across the two supports the five
# that start on s violate and (3, 5) does not: neither 6 nor 0 (leaf counts
# multiplied, in one orientation or the other) is the count.
INTERLEAVED = _leaves_on(8, [(0, 2), (2, 4)], {0: [1, 5], 4: [3, 6, 7]})


def test_theorem1_counts_interleaved_leaf_pairs():
    report = check_theorem1(INTERLEAVED)
    assert report.violations == 5
    assert [r.path[0] for r in report.violating] == [1, 1, 1, 5, 5]
    assert_counts_need_no_records(INTERLEAVED)
    assert_theorem1_matches_reference(INTERLEAVED)


@time_limit(2)
def test_theorem1_counts_alternating_leaf_ids_per_support_pair():
    # a broom: supports 0 and 10 joined by the path 0..10, with the 4,000
    # leaf ids alternating between them.  Every leaf id starts a run of its
    # own, so a count over run pairs would take 4 million steps; the one
    # support pair's path reads 2001, 2, ..., 2, 2001 both ways and violates
    # nothing
    hung = {0: range(11, 4011, 2), 10: range(12, 4011, 2)}
    report = check_theorem1(_leaves_on(4011, [(i, i + 1) for i in range(10)], hung))
    assert report.paths == math.comb(4000, 2)
    assert report.violations == 0
    assert report.checked == 2 * math.comb(2000, 2) + 2000 * 2000 * len(_path_pairs(11))


def _oriented_count(t):
    """The violations of every leaf pair in its better orientation: over
    support pairs s != u with cs and cu leaves, cs * cu * min(|table[s][u]|,
    |table[u][s]|), a missing entry counting 0.  No leaf id enters it."""
    table = check_theorem1(t).table
    on = Counter(t.adj[a][0] for a in t.leaves())
    return sum(
        on[s] * on[u] * min(len(table.get(s, {}).get(u, ())), len(table.get(u, {}).get(s, ())))
        for s, u in itertools.combinations(on, 2)
    )


def test_33332_maximizer_breaks_alternation_both_ways():
    # a finding, not a verdict: the smallest sequence with an exact maximizer
    # that violates the alternation in both orientations of a leaf pair
    d = validate([3, 3, 3, 3, 2])
    res = oracle_max(d)
    constructed = construct_max_tree(d)
    trees = [*res.witness_trees, constructed]
    for t in trees:
        deg = t.degrees()
        pairs = Counter(tuple(sorted((deg[u], deg[v]))) for u, v in t.edges())
        assert pairs == {(1, 3): 6, (2, 3): 2, (3, 3): 2}
        assert sombor_index(t).hex() == "0x1.155c431d5e8b4p+5"
    oriented = dict(zip(res.witnesses, map(_oriented_count, res.witness_trees)))
    assert oriented == {
        "(((()())(()()))(()()))": 0,
        "(((()())())((()())()))": 4,
        "(((()())())((()()))())": 0,
    }
    assert _oriented_count(constructed) == 0
    # the raw count reads the labels: 16 as constructed, 0 once the leaves
    # 4, 5 become 6, 7, the leaves 6, 7 become 9, 10 and 9, 10 become 4, 5
    assert check_theorem1(constructed).violations == 16
    label = [0, 1, 2, 3, 6, 7, 9, 10, 8, 4, 5]
    relabeled = Tree.from_edges(11, [(label[u], label[v]) for u, v in constructed.edges()])
    assert canonical_form(relabeled) == canonical_form(constructed)
    assert check_theorem1(relabeled).violations == 0
    assert _oriented_count(relabeled) == 0


def test_constructed_trees_have_no_oriented_violations():
    # every constructed tree with n <= 16, then seeded lists at m = 10^2 and
    # 10^3, whose raw counts the leaf ids inflate
    seqs = generate_degree_sequences(16)
    assert sum(_oriented_count(construct_max_tree(d)) for d in seqs) == 0
    for m, raw in [(100, 13_528), (1000, 1_782_304)]:
        rng = random.Random(7)
        t = construct_max_tree(validate([rng.randint(3, 5) for _ in range(m)]))
        assert check_theorem1(t).violations == raw
        assert _oriented_count(t) == 0


def test_no_non_maximal_placement_passes_the_oriented_count():
    # the oriented count separates: every skeleton placement with n <= 14
    # that the maximum exceeds has at least one oriented violation
    beaten = 0
    for d in generate_degree_sequences(14):
        scored = list(_skeleton_scan(d))
        best = max(so for so, _ in scored)
        for so, key in scored:
            if exceeds(best, so):
                beaten += 1
                assert _oriented_count(_hang_leaves(key)) > 0, (d, key)
    assert beaten == 9_139


# -- attachment profile ------------------------------------------------------


def test_attachment_profile_single_vertex_has_no_leaves():
    sub = materialize(SubtreeSpec("chain", 2, (3,)))
    with pytest.raises(NoLeavesError):
        attachment_profile(Tree.from_edges(1, []), sub)


def test_attachment_star_base_all_equal():
    star = Tree.from_edges(5, [(0, i) for i in range(1, 5)])
    sub = materialize(SubtreeSpec("chain", 2, (3,)))
    profile = attachment_profile(star, sub)
    values = {e.so for e in profile.entries}
    assert profile.ok
    assert max(values) - min(values) <= 1e-12 * max(values)


def test_attachment_paper_base_deltas():
    base = materialize(SubtreeSpec("base", 3, (5, 4, 3)))
    sub = materialize(SubtreeSpec("chain", 2, (5,)))
    profile = attachment_profile(base, sub)
    by_deg = {e.neighbor_degree: e.so for e in profile.entries}
    assert profile.ok
    assert by_deg[3] - by_deg[4] == pytest.approx(
        (math.sqrt(13) + math.sqrt(17)) - (math.sqrt(10) + math.sqrt(20)), abs=1e-9
    )
    assert by_deg[3] - by_deg[5] == pytest.approx(
        (math.sqrt(13) + math.sqrt(26)) - (math.sqrt(10) + math.sqrt(29)), abs=1e-9
    )


@given(random_trees(min_n=4, max_n=9), st.integers(2, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_attachment_non_increasing(host, root_degree, data):
    child_degrees = tuple(
        sorted(
            data.draw(
                st.lists(
                    st.integers(2, 5),
                    min_size=root_degree - 1,
                    max_size=root_degree - 1,
                )
            ),
            reverse=True,
        )
    )
    sub = materialize(SubtreeSpec("chain", root_degree, child_degrees))
    profile = attachment_profile(host, sub)
    assert profile.non_increasing_ok
    assert profile.equal_degree_ties_ok
    assert profile.l1m_attains_max_ok


def merged_profile(t: Tree, s: Tree) -> AttachmentProfile:
    """The reference attachment profile: one merged tree scored per leaf,
    the flags regrouped by neighbor degree, L1^m from leaf_layer_profile."""
    l1m = set(leaf_layer_profile(t).l1m_leaves)
    entries = tuple(
        AttachmentEntry(a, t.adj[a][0], t.degree(t.adj[a][0]), sombor_index(merge_at(t, s, a)))
        for a in t.leaves()
    )
    by_degree: dict[int, list[float]] = {}
    for e in entries:
        by_degree.setdefault(e.neighbor_degree, []).append(e.so)
    reps = [by_degree[g][0] for g in sorted(by_degree)]
    best = max(e.so for e in entries)
    return AttachmentProfile(
        entries,
        all(len(set(vals)) == 1 for vals in by_degree.values()),
        all(reps[i] >= reps[i + 1] for i in range(len(reps) - 1)),
        all(e.so == best for e in entries if e.leaf in l1m),
    )


def profile_bits(p: AttachmentProfile):
    return [(*e[:3], e.so.hex()) for e in p.entries], p[1:]


def test_attachment_profile_matches_merging_at_each_leaf():
    rng = random.Random(30)
    single = Tree.from_edges(1, [])
    pairs = []
    for n in range(1, 16):
        for _ in range(12):
            host = prufer_to_tree([rng.randrange(n) for _ in range(n - 2)], n) if n > 1 else single
            k = rng.choice([1, 1, 2, 3, 5, 7])  # one vertex a third of the time
            sub = prufer_to_tree([rng.randrange(k) for _ in range(k - 2)], k) if k > 1 else single
            pairs.append((host, sub))
    rng = random.Random(20260826)  # criterion 5's draws
    for _ in range(1000):
        n = rng.randrange(4, 11)
        host = prufer_to_tree([rng.randrange(n) for _ in range(n - 2)], n)
        root_degree = rng.randrange(2, 6)
        children = sorted((rng.randrange(2, 7) for _ in range(root_degree - 1)), reverse=True)
        pairs.append((host, materialize(SubtreeSpec("chain", root_degree, tuple(children)))))
    for host, sub in pairs:
        if host.n == 1:
            with pytest.raises(NoLeavesError):
                attachment_profile(host, sub)
        else:
            got, want = attachment_profile(host, sub), merged_profile(host, sub)
            assert profile_bits(got) == profile_bits(want), (host, sub)


# -- annealing ---------------------------------------------------------------


def test_anneal_322_reaches_oracle():
    result = anneal_search(validate([3, 2, 2]), budget=100, seed=42)
    assert result.best_so == pytest.approx(SO_CATERPILLAR, rel=1e-9)


def test_anneal_zero_budget_returns_constructed():
    # budget 0 makes no move; nor do the lone edge and the stars at any
    # budget, since no two of their edges are disjoint: both give-ups end them
    for degrees, budget in [([3, 3, 2], 0), ([], 1000), ([12], 1000), ([13], 1000)]:
        d = validate(degrees)
        t = construct_max_tree(d)
        result = anneal_search(d, budget=budget, seed=7)
        assert result.best_tree.edges() == t.edges()
        assert (result.moves, result.accepted) == (0, 0)
        assert result.best_so.hex() == result.start_so.hex() == sombor_index(t).hex()


def test_anneal_rejects_negative_budget():
    with pytest.raises(ValueError, match="budget"):
        anneal_search(validate([3, 2, 2]), budget=-5, seed=1)


@time_limit(5)
def test_anneal_deterministic():
    d = validate([4, 3, 2, 2])
    a = anneal_search(d, budget=2000, seed=123)
    b = anneal_search(d, budget=2000, seed=123)
    assert a.best_tree.edges() == b.best_tree.edges()
    assert (a.best_so, a.moves, a.accepted) == (b.best_so, b.moves, b.accepted)


@time_limit(5)
def test_anneal_never_below_start():
    for seed in (1, 2, 3):
        result = anneal_search(validate([3, 3, 2, 2]), budget=3000, seed=seed)
        assert result.best_so >= result.start_so - 1e-12


def _randbelow(getrandbits, n: int, k: int) -> int:
    """rng.randrange(n) for k = n.bit_length(), drawing the same bits:
    CPython's Random._randbelow_with_getrandbits without the call chain,
    the way anneal_search draws its edge indices and recombination."""
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def test_randbelow_matches_randrange_stream():
    # the annealer draws its indices with _randbelow; it must consume the
    # same bits as randrange on this interpreter, or the seeded streams move
    assert random.Random._randbelow is random.Random._randbelow_with_getrandbits
    for n in range(1, 301):
        ours, ref = random.Random(n), random.Random(n)
        for _ in range(10):
            assert _randbelow(ours.getrandbits, n, n.bit_length()) == ref.randrange(n)
            assert ours.getrandbits(2) == ref.getrandbits(2)
            assert _randbelow(ours.getrandbits, 2, 2) == ref.randrange(2)
            assert ours.random() == ref.random()


def _reference_anneal(d, budget: int, seed: int):
    """anneal_search as a sampler called per swap and two loops, drawing
    with rng.randrange: the shape its one loop replaced.  Returns (moves,
    accepted, best_so, start_so, best tree)."""
    rng = random.Random(seed)
    start = construct_max_tree(d)
    start_so = sombor_index(start)
    if budget <= 0:
        return 0, 0, start_so, start_so, start
    deg = start.degrees()
    W = weight_table(deg)
    edges = start.edges()
    parent = _bfs(start.adj, 0)[1]

    def sample():
        ne = len(edges)
        if ne < 2:
            return None
        for _ in range(300):
            i = rng.randrange(ne)
            j = rng.randrange(ne)
            if i == j:
                continue
            a, b = edges[i]
            c, d = edges[j]
            if a == c or a == d or b == c or b == d:
                continue
            r = rng.randrange(2)
            valid = _valid_recombination(parent, a, b, c, d)
            if r == valid[0]:
                move = SwapMove(edges[i], edges[j], r)
                return (i, j, *move.new_edges(), valid[1:])
        return None

    deltas = []
    for _ in range(100):
        drawn = sample()
        if drawn is None:
            break
        i, j, e1, e2, _ = drawn
        deltas.append(abs(_delta(W, deg, edges[i], edges[j], e1, e2)))
    temp = (sum(deltas) / len(deltas)) if deltas else 0.0
    if temp <= 0.0:
        temp = 1e-9
    cur_so = best_so = start_so
    best_edges = list(edges)
    moves = accepted = 0
    while moves < budget:
        drawn = sample()
        if drawn is None:
            break
        moves += 1
        i, j, e1, e2, split = drawn
        delta = _delta(W, deg, edges[i], edges[j], e1, e2)
        if delta >= 0.0 or rng.random() < math.exp(delta / temp):
            _reroot(parent, *split)
            edges[i] = tuple(sorted(e1))
            edges[j] = tuple(sorted(e2))
            cur_so += delta
            accepted += 1
            if cur_so > best_so:
                best_so = cur_so
                best_edges = list(edges)
        temp *= 0.999
    best = Tree.from_edges(start.n, best_edges)
    return moves, accepted, sombor_index(best), start_so, best


def assert_anneal_matches_reference(d, budget, seed):
    result = anneal_search(d, budget=budget, seed=seed)
    moves, accepted, best_so, start_so, best = _reference_anneal(d, budget, seed)
    assert (result.moves, result.accepted) == (moves, accepted), d
    assert result.best_so.hex() == best_so.hex(), d
    assert result.start_so.hex() == start_so.hex(), d
    assert _sha(result.best_tree) == _sha(best), d
    return result


@st.composite
def degree_lists(draw, max_n=40):
    """Feasible degree sequences with n = 2 + sum(d - 1) <= max_n."""
    degrees, n = [], 2
    for x in draw(st.lists(st.integers(2, 12), max_size=20)):
        if n + x - 1 > max_n:
            break
        degrees.append(x)
        n += x - 1
    return validate(degrees)


def _sha(tree: Tree) -> str:
    return hashlib.sha256(tree.to_json().encode()).hexdigest()


@time_limit(5)
@given(degree_lists(), st.integers(0, 300), st.integers(0, 2**32))
@example(validate([7]), 300, 5)  # the star: no swap exists
@example(validate([]), 300, 5)  # the lone edge
@settings(max_examples=150, deadline=None)
def test_one_loop_anneal_matches_reference_loop(d, budget, seed):
    result = assert_anneal_matches_reference(d, budget, seed)
    if d.m <= 1:
        assert result.moves == 0


@time_limit(5)
def test_anneal_matches_reference_on_n13():
    # the search benchmark's own input shape: every sequence with n = 13,
    # where the kept draws, walks and leaf skips of the draw loop all occur
    seqs = [d for d in generate_degree_sequences(13) if d.vertex_count == 13]
    assert len(seqs) == 56
    for seed, d in enumerate(seqs):
        assert_anneal_matches_reference(d, 1000, seed)


@time_limit(5)
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "degrees", [[1000, 2], [300, 2], [120, 2]], ids=lambda d: ",".join(map(str, d))
)
def test_anneal_gives_up_as_the_reference_does(degrees, seed):
    # a double star: a random pair of edges shares the big hub nearly every
    # time, so _SAMPLE_TRIES draws in a row miss, ending the warm-up early
    # and then the search, far short of the budget
    result = assert_anneal_matches_reference(validate(degrees), 500, seed)
    assert result.moves < 500


@time_limit(5)
def test_unbeaten_anneal_returns_constructed_tree(monkeypatch):
    # an anneal that rebuilds no tree is one where no move beat the start:
    # it must hand back the constructed tree and its exact index, as the
    # reference loop's rebuild and re-measure do
    rebuilt = []
    from_edges = Tree.from_edges
    monkeypatch.setattr(
        Tree, "from_edges",
        classmethod(lambda cls, n, edges: rebuilt.append(n) or from_edges(n, edges)),
    )
    unbeaten = 0
    for d in generate_degree_sequences(12):
        rebuilt.clear()
        result = anneal_search(d, budget=200, seed=1)
        assert result.best_so.hex() == sombor_index(result.best_tree).hex()
        if not rebuilt:
            unbeaten += 1
            assert result.best_tree == construct_max_tree(d)
        moves, accepted, best_so, _, best = _reference_anneal(d, 200, 1)
        assert (result.moves, result.accepted) == (moves, accepted)
        assert result.best_so.hex() == best_so.hex()
        assert result.best_tree == best
    assert unbeaten > 0


def assert_anneal_start_read_off(d, seed):
    # anneal_search roots the constructed tree at 0 by reading each vertex's
    # parent off its first neighbor, reads its edges off those parents, and
    # sums the start's index itself
    t = construct_max_tree(d)
    parent = [-1, *(ns[0] for ns in t.adj[1:])]
    assert _bfs(t.adj, 0)[1] == parent
    assert list(zip(parent[1:], range(1, t.n))) == t.edges()
    assert anneal_search(d, 1, seed).start_so.hex() == sombor_index(t).hex()


def test_anneal_start_every_sequence_to_n12():
    seqs = [validate([])] + generate_degree_sequences(12)
    assert len(seqs) == 139
    for d in seqs:
        assert_anneal_start_read_off(d, 1)


@given(degree_lists(max_n=200), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_anneal_start_read_off_constructed_tree(d, seed):
    assert_anneal_start_read_off(d, seed)


# Seeded runs pinned bit for bit: a change to the annealer's swap sampling
# or edge weights must not move its RNG stream or its result.
ANNEAL_GOLDEN = [
    ((3, 2, 2), 2000, 42, "0x1.dfd3c6f0b5044p+3", 2000, 1239,
     "e5d5ad38cb4fd2ec33990487ac8211b9dfab90d7295d5d9f4edaa2570404c1a6"),
    ((4, 3, 2, 2), 2000, 123, "0x1.d9998b7fc987cp+4", 2000, 1048,
     "e3b0b411a57e0a374faa2bc24fbfbaddb1953a6bf5c7b223cdf1d4bbc36cc036"),
    ((5, 5, 5, 4, 3, 3, 2, 2), 5000, 7, "0x1.aa7347113024fp+6", 5000, 2701,
     "ce0cc22c893b3aee542305bacca7970d2d3a08ee568775003b50ddf171751fab"),
    # ten each of the degrees 8..16: n = 992
    (tuple(8 + (7 * i) % 9 for i in range(90)), 100, 1, "0x1.995d511740670p+13",
     100, 87, "dea685ff43a370df5de0a36b7047466a64fdb0a3451279141aeacfbb4dc30fb9"),
]


@time_limit(5)
@pytest.mark.parametrize(
    "degrees,budget,seed,best_so,moves,accepted,tree_sha",
    ANNEAL_GOLDEN,
    ids=["3,2,2", "4,3,2,2", "paper", "n992"],
)
def test_anneal_matches_recorded_stream(
    degrees, budget, seed, best_so, moves, accepted, tree_sha
):
    result = anneal_search(validate(degrees), budget=budget, seed=seed)
    assert result.best_so.hex() == best_so
    assert (result.moves, result.accepted) == (moves, accepted)
    digest = hashlib.sha256(result.best_tree.to_json().encode()).hexdigest()
    assert digest == tree_sha
