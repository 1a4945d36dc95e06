import hashlib
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sombortree.graph import (
    REL_TOL,
    InvalidTreeError,
    Tree,
    canonical_form,
    sombor_index,
    validate,
)
from sombortree.construct import (
    SubtreeSpec,
    construct_max_tree,
    materialize,
)
from sombortree.verify import (
    SwapMove,
    anneal_search,
    apply_swap,
    attachment_profile,
    check_theorem1,
    enumerate_trees,
    free_trees,
    is_local_max,
    oracle_max,
    prufer_space_size,
    prufer_to_tree,
    swap_delta,
    tree_to_prufer,
    two_swap_neighbors,
)

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


def test_enumerate_respects_cap():
    assert len(list(enumerate_trees(validate([3, 2, 2]), cap=5))) == 5


def test_space_size_matches_enumeration():
    from sombortree.sweep import generate_degree_sequences

    for d in generate_degree_sequences(8):
        assert prufer_space_size(d) == sum(1 for _ in enumerate_trees(d))


# -- free trees --------------------------------------------------------------

# OEIS A000055: free trees on m unlabeled vertices, m = 0, 1, ..., 14
A000055 = [1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159]


@pytest.mark.parametrize("m", range(1, 15))
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


def test_capped_oracle_matches_labeled_prefix():
    d = validate([3, 3, 2, 2])
    res = oracle_max(d, cap=7)
    trees = list(enumerate_trees(d, cap=7))
    best = max(sombor_index(t) for t in trees)
    near = {canonical_form(t) for t in trees if sombor_index(t) >= best - REL_TOL * best}
    assert res.capped and res.enumerated == 7 and res.max_so == best
    assert res.witnesses == tuple(sorted(near))


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
    res = oracle_max(validate([3, 2, 2]), cap=5)
    assert res.capped
    assert res.enumerated == 5


def test_oracle_single_edge():
    res = oracle_max(validate([]))
    assert res.max_so == pytest.approx(math.sqrt(2), rel=1e-12)


def test_oracle_parallel_matches_serial():
    d = validate([3, 3, 2, 2])
    serial = oracle_max(d, workers=1)
    parallel = oracle_max(d, workers=3)
    assert parallel.max_so == serial.max_so
    assert parallel.enumerated == serial.enumerated
    assert parallel.witnesses == serial.witnesses


def test_oracle_json_embeds_witness_trees():
    import json

    res = oracle_max(validate([3, 2, 2]))
    data = json.loads(res.to_json())
    assert data["enumerated"] == 12 and data["capped"] is False
    assert data["witnesses"][0]["tree"]["n"] == 6


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
    long_path = [r for r in report.records if len(r.path) == 5]
    assert any(
        r.i == 1 and r.lhs_degree == 3 and r.rhs_degree == 2 and r.holds
        for r in long_path
    )


def test_theorem1_paper_tree_flags_even_violation():
    t = construct_max_tree(validate([5, 5, 5, 4, 3, 3, 2, 2]))
    report = check_theorem1(t)
    assert report.violations > 0
    assert any(
        r.i == 2 and r.parity == "even" and r.lhs_degree == 3 and r.rhs_degree == 2
        for r in report.violating_records()
    )
    # reporter never raises; JSON form carries the violations
    import json

    data = json.loads(report.to_json())
    assert data["violations"] == report.violations
    assert len(data["records"]) == report.violations


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
