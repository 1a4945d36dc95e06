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
    InvalidTreeError,
    Tree,
    _bfs,
    canonical_form,
    exceeds,
    leaf_to_leaf_paths,
    sombor_index,
    validate,
    weight_table,
)
from sombortree.construct import (
    SubtreeSpec,
    construct_max_tree,
    materialize,
)
from sombortree import verify
from sombortree.sweep import generate_degree_sequences
from sombortree.verify import (
    LocalMaxReport,
    PathInequalityRecord,
    SwapMove,
    _delta,
    _maximizers,
    _reroot,
    _skeleton_scan,
    _valid_recombination,
    anneal_search,
    apply_swap,
    attachment_profile,
    check_theorem1,
    free_trees,
    is_local_max,
    oracle_max,
    prufer_space_size,
    swap_delta,
    two_swap_neighbors,
)

from labeled import enumerate_trees, prufer_to_tree

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
    scored by swap_delta: the shape its pruned loop replaced."""
    base = sombor_index(t)
    best_move, best_delta = None, 0.0
    for move in two_swap_neighbors(t):
        delta = swap_delta(t, move)
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
}


@pytest.mark.parametrize("name", SUPPORT_CASES)
def test_support_grouping_matches_reference(name):
    assert_theorem1_matches_reference(SUPPORT_CASES[name])


def test_support_pair_orientations_differ():
    report = check_theorem1(ORIENTED)
    # from s to u: (3,4), (3,5), (3,7), (6,7); from u to s: (4,6), (5,6)
    assert report.paths == 10
    assert [r.path for r in report.violating] == [
        (3, 0, 1, 2, 4), (3, 0, 1, 2, 5), (3, 0, 1, 2, 7), (6, 0, 1, 2, 7)
    ]
    assert all(r.inequality == "d(v1) >= d(v3)" for r in report.violating)
    assert_theorem1_matches_reference(ORIENTED)


def test_theorem1_builds_records_only_for_violations(monkeypatch):
    built = []

    class CountedRecord(PathInequalityRecord):
        def __init__(self, **fields):
            super().__init__(**fields)
            built.append(self)

    monkeypatch.setattr(verify, "PathInequalityRecord", CountedRecord)
    report = check_theorem1(construct_max_tree(validate([5, 5, 5, 4, 3, 3, 2, 2])))
    assert 0 < report.violations < report.checked
    assert built == []  # the counts need no record
    assert len(report.violating) == report.violations
    assert len(built) == report.violations
    report.violating  # cached: a second read builds nothing
    assert len(built) == report.violations


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


# -- attachment profile ------------------------------------------------------


def test_attachment_star_base_all_equal():
    star = Tree.from_edges(5, [(0, i) for i in range(1, 5)])
    sub = materialize(SubtreeSpec("chain", 2, (3,)))
    profile = attachment_profile(star, sub)
    values = {e.so for e in profile.entries}
    assert profile.ok
    assert max(values) - min(values) <= 1e-12 * max(values)


def test_attachment_paper_base_deltas():
    base = materialize(SubtreeSpec("base", 3, (5, 4, 3))).tree
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


# -- annealing ---------------------------------------------------------------


def test_anneal_322_reaches_oracle():
    result = anneal_search(validate([3, 2, 2]), budget=100, seed=42)
    assert result.best_so == pytest.approx(SO_CATERPILLAR, rel=1e-9)


def test_anneal_zero_budget_returns_constructed():
    d = validate([3, 3, 2])
    result = anneal_search(d, budget=0, seed=7)
    assert result.best_tree.edges() == construct_max_tree(d).edges()
    assert result.moves == 0


def test_anneal_rejects_negative_budget():
    with pytest.raises(ValueError, match="budget"):
        anneal_search(validate([3, 2, 2]), budget=-5, seed=1)


def test_anneal_deterministic():
    d = validate([4, 3, 2, 2])
    a = anneal_search(d, budget=2000, seed=123)
    b = anneal_search(d, budget=2000, seed=123)
    assert a.best_tree.edges() == b.best_tree.edges()
    assert (a.best_so, a.moves, a.accepted) == (b.best_so, b.moves, b.accepted)


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


@given(degree_lists(), st.integers(0, 300), st.integers(0, 2**32))
@example(validate([7]), 300, 5)  # the star: no swap exists
@example(validate([]), 300, 5)  # the lone edge
@settings(max_examples=150, deadline=None)
def test_one_loop_anneal_matches_reference_loop(d, budget, seed):
    result = anneal_search(d, budget=budget, seed=seed)
    moves, accepted, best_so, start_so, best = _reference_anneal(d, budget, seed)
    assert (result.moves, result.accepted) == (moves, accepted)
    assert result.best_so.hex() == best_so.hex()
    assert result.start_so.hex() == start_so.hex()
    assert _sha(result.best_tree) == _sha(best)
    if d.m <= 1:
        assert result.moves == 0


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
