import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sombortree.graph import (
    DegreeSequence,
    DegreeSequenceError,
    EntryBelowTwoError,
    InvalidTreeError,
    NoLeavesError,
    Tree,
    canonical_form,
    edge_weight,
    leaf_layer_profile,
    leaf_to_leaf_paths,
    sombor_index,
    tree_centers,
    validate,
)
from sombortree.construct import SubtreeSpec, construct_max_tree, materialize

from sombortree.sweep import generate_degree_sequences

from labeled import prufer_to_tree


def path_tree(n):
    return Tree.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_tree(n):
    return Tree.from_edges(n, [(0, i) for i in range(1, n)])


@st.composite
def random_trees(draw, min_n=2, max_n=12):
    n = draw(st.integers(min_n, max_n))
    if n == 2:
        return Tree.from_edges(2, [(0, 1)])
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return prufer_to_tree(seq, n)


# -- Tree invariants ---------------------------------------------------------


def test_tree_rejects_wrong_edge_count():
    with pytest.raises(InvalidTreeError):
        Tree.from_edges(3, [(0, 1)])


def test_tree_rejects_self_loop():
    with pytest.raises(InvalidTreeError):
        Tree.from_edges(2, [(0, 0)])


def test_tree_rejects_duplicate_edge():
    with pytest.raises(InvalidTreeError):
        Tree.from_edges(3, [(0, 1), (1, 0)])


def test_tree_rejects_disconnected():
    with pytest.raises(InvalidTreeError):
        Tree.from_edges(4, [(0, 1), (1, 2), (0, 2)])


@pytest.mark.parametrize(
    "n, edges, why",
    [
        (0, [], "at least one vertex"),
        (-1, [], "at least one vertex"),
        (2, [(0, 2)], "out of range"),
        (2, [(-1, 1)], "out of range"),
    ],
)
def test_tree_rejects_vertex_ids_out_of_range(n, edges, why):
    with pytest.raises(InvalidTreeError, match=why):
        Tree.from_edges(n, edges)


def test_tree_json_roundtrip():
    t = star_tree(5)
    assert Tree.from_json(t.to_json()).edges() == t.edges()


@given(random_trees(max_n=40))
@example(Tree.from_edges(1, []))
@example(Tree.from_edges(2, [(0, 1)]))
@settings(max_examples=200, deadline=None)
def test_tree_json_matches_json_dumps(t):
    # to_json writes the string itself; these are the bytes it must match
    edges = [[u, v] for u, v in t.edges()]
    assert t.to_json() == json.dumps({"n": t.n, "edges": edges})


def test_tree_dot_and_edge_list():
    t = path_tree(3)
    dot = t.to_dot()
    assert 'label="v1 (d=2)"' in dot
    assert "0 -- 1;" in dot
    assert t.to_edge_list() == "0 1\n1 2\n"


# -- edge_weight -------------------------------------------------------------


def test_edge_weight_unit():
    assert edge_weight(1, 1) == pytest.approx(math.sqrt(2), rel=1e-12)


def test_edge_weight_pythagorean():
    assert edge_weight(3, 4) == pytest.approx(5.0, rel=1e-12)


def test_edge_weight_closed_form():
    assert edge_weight(5, 1) == pytest.approx(math.sqrt(26), rel=1e-12)


@pytest.mark.parametrize("x,y", [(0, 1), (1, 0), (-2, 3)])
def test_edge_weight_rejects_nonpositive(x, y):
    with pytest.raises(ValueError):
        edge_weight(x, y)


# -- sombor_index ------------------------------------------------------------


def test_sombor_single_edge():
    assert sombor_index(path_tree(2)) == pytest.approx(math.sqrt(2), rel=1e-12)


def test_sombor_star_k13():
    assert sombor_index(star_tree(4)) == pytest.approx(3 * math.sqrt(10), rel=1e-12)


def test_sombor_path_p4():
    assert sombor_index(path_tree(4)) == pytest.approx(
        2 * math.sqrt(5) + math.sqrt(8), rel=1e-12
    )


def test_sombor_caterpillar_322():
    # internal path a(3)-b(2)-c(2); a carries 2 leaves, c carries 1
    t = Tree.from_edges(6, [(0, 1), (1, 2), (0, 3), (0, 4), (2, 5)])
    expected = math.sqrt(13) + math.sqrt(8) + 2 * math.sqrt(10) + math.sqrt(5)
    assert sombor_index(t) == pytest.approx(expected, rel=1e-12)
    # derived: this shape beats the only other realization of (3,2,2)
    spider = Tree.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5)])
    assert sombor_index(spider) < sombor_index(t)


def test_sombor_closed_forms():
    for n in range(3, 51):
        assert sombor_index(star_tree(n)) == pytest.approx(
            (n - 1) * math.sqrt((n - 1) ** 2 + 1), rel=1e-12
        )
    for n in range(4, 51):
        assert sombor_index(path_tree(n)) == pytest.approx(
            2 * math.sqrt(5) + (n - 3) * math.sqrt(8), rel=1e-12
        )


@given(random_trees(), st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_sombor_label_invariant(t, rnd):
    perm = list(range(t.n))
    rnd.shuffle(perm)
    relabeled = Tree.from_edges(t.n, [(perm[u], perm[v]) for u, v in t.edges()])
    assert sombor_index(relabeled) == pytest.approx(sombor_index(t), rel=1e-12)


# -- validate ----------------------------------------------------------------


def test_validate_paper_sequence():
    d = validate([5, 5, 5, 4, 3, 3, 2, 2])
    assert d.m == 8 and d.leaf_count == 15 and d.vertex_count == 23


def test_validate_empty_is_single_edge():
    d = validate([])
    assert d.m == 0 and d.leaf_count == 2 and d.vertex_count == 2


def test_validate_rejects_leaf_entry():
    with pytest.raises(EntryBelowTwoError):
        validate([3, 1])


def test_validate_normalizes_order():
    assert validate([2, 5, 3]).degrees == (5, 3, 2)


@pytest.mark.parametrize(
    "degrees, named",
    [([2.5, 3], "2.5"), (["3", "2"], "'3'"), ([3, 2, 2.0, 4.75, 0.5], "4.75")],
)
def test_validate_rejects_non_integers(degrees, named):
    # int() once truncated 2.5 to 2 and read "3" as 3; the first entry that
    # int() changes is named
    with pytest.raises(DegreeSequenceError, match=f"degree {named} is not"):
        validate(degrees)


@pytest.mark.parametrize(
    "degrees, named",
    [
        ([3, "abc", 2], "'abc'"),  # int() raised ValueError
        ([3, None], "None"),  # TypeError
        ([float("inf"), 3], "inf"),  # OverflowError
        ([3, 2, float("nan")], "nan"),  # ValueError
        ([3, 2.5, None], "2.5"),  # the first bad entry, changed or refused
    ],
)
def test_validate_rejects_entries_int_refuses(degrees, named):
    # int()'s own error once passed through; it is a DegreeSequenceError
    # naming the entry, as for an entry int() changes
    with pytest.raises(DegreeSequenceError, match=f"degree {named} is not"):
        validate(degrees)


def test_validate_reads_integral_floats():
    assert validate([3.0, 2]).degrees == (3, 2)
    assert all(type(x) is int for x in validate([3.0, 2.0]).degrees)


@given(random_trees(min_n=3))
@settings(max_examples=100)
def test_validate_roundtrip_with_tree_degrees(t):
    d = validate(t.internal_degrees())
    assert d.leaf_count == len(t.leaves())
    assert d.vertex_count == t.n


# -- lemma grids -------------------------------------------------------------


def test_lemma1_grid():
    for x in range(1, 51):
        for y in range(x, 51):
            assert edge_weight(x, 1) <= edge_weight(y, 1)


def test_lemma2_grid():
    # f(x) = sqrt(x^2+a^2) - sqrt(x^2+b^2) increases in x when a <= b
    for a in range(1, 51):
        for b in range(a, 51):
            prev = None
            for x in (1, 10, 25, 50):
                cur = math.sqrt(x * x + a * a) - math.sqrt(x * x + b * b)
                if prev is not None:
                    assert prev <= cur + 1e-12
                prev = cur
    # and decreases when a > b
    for x, xp in ((1, 7), (7, 50)):
        for a in range(2, 51):
            for b in range(1, a):
                f = lambda t: math.sqrt(t * t + a * a) - math.sqrt(t * t + b * b)
                assert f(x) >= f(xp) - 1e-12


def test_lemma3_grid():
    for y in range(1, 51):
        for x in range(1, 50):
            assert edge_weight(x, y) < edge_weight(x + 1, y)
            assert edge_weight(y, x) < edge_weight(y, x + 1)


# -- leaf layer profile ------------------------------------------------------


def test_profile_star():
    p = leaf_layer_profile(star_tree(4))
    assert p.l1_vertices == ((0, 3),)
    assert p.d_min == 3
    assert p.l1m_leaves == (1, 2, 3)


def test_profile_p4():
    p = leaf_layer_profile(path_tree(4))
    assert p.l1_vertices == ((1, 2), (2, 2))
    assert p.d_min == 2
    assert p.l1m_leaves == (0, 3)


def test_profile_paper_base():
    base = materialize(SubtreeSpec("base", 3, (5, 4, 3)))
    p = leaf_layer_profile(base)
    assert p.d_min == 3
    # exactly the two leaves hanging off the degree-3 child
    assert len(p.l1m_leaves) == 2
    for leaf in p.l1m_leaves:
        assert base.degree(base.adj[leaf][0]) == 3


def test_profile_requires_leaves():
    with pytest.raises(NoLeavesError):
        leaf_layer_profile(Tree.from_edges(1, []))


# -- leaf-to-leaf paths ------------------------------------------------------


def test_paths_p4():
    paths = leaf_to_leaf_paths(path_tree(4))
    assert len(paths) == 1
    assert paths[0].degrees == (1, 2, 2, 1)


def test_paths_star():
    paths = leaf_to_leaf_paths(star_tree(4))
    assert len(paths) == 3
    assert all(p.interior_count == 1 for p in paths)


def test_paths_count_is_leaf_pairs():
    t = construct_max_tree(validate([5, 5, 5, 4, 3, 3, 2, 2]))
    assert len(leaf_to_leaf_paths(t)) == 105


# -- canonical form ----------------------------------------------------------


def test_canonical_label_invariance():
    t1 = path_tree(4)
    t2 = Tree.from_edges(4, [(2, 0), (0, 3), (3, 1)])  # P4 relabeled
    assert canonical_form(t1) == canonical_form(t2)


def test_canonical_distinguishes_shapes():
    assert canonical_form(path_tree(4)) != canonical_form(star_tree(4))


@given(random_trees(min_n=2, max_n=10), st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_canonical_relabeling_invariant(t, rnd):
    perm = list(range(t.n))
    rnd.shuffle(perm)
    relabeled = Tree.from_edges(t.n, [(perm[u], perm[v]) for u, v in t.edges()])
    assert canonical_form(relabeled) == canonical_form(t)


def _recursive_rooted_code(adj, v, parent=-1):
    kids = sorted(_recursive_rooted_code(adj, u, v) for u in adj[v] if u != parent)
    return "(" + "".join(kids) + ")"


def _recursive_canonical_form(t):
    """The recursive AHU code canonical_form used to compute, as a reference."""
    if t.n == 1:
        return "()"
    return min(_recursive_rooted_code(t.adj, c) for c in tree_centers(t.adj))


@given(random_trees(min_n=2, max_n=40))
@settings(max_examples=200)
def test_canonical_matches_recursive_reference(t):
    assert canonical_form(t) == _recursive_canonical_form(t)


def test_canonical_form_deep_path():
    # the recursive form raised RecursionError on a 3,002-vertex path
    def arm(k):
        return "(" * k + ")" * k

    assert canonical_form(path_tree(5000)) == "(" + arm(2500) + arm(2499) + ")"


def test_canonical_form_smallest_trees():
    # the lone vertex and the lone edge are one-vertex skeleton placements
    assert canonical_form(Tree.from_edges(1, [])) == "()"
    assert canonical_form(Tree.from_edges(2, [(0, 1)])) == "(())"


def test_canonical_matches_recursive_reference_on_constructed_trees():
    # leaf-heavy trees: every constructed tree with n <= 16
    seqs = generate_degree_sequences(16)
    assert len(seqs) == 507
    for d in seqs:
        t = construct_max_tree(d)
        assert canonical_form(t) == _recursive_canonical_form(t), d


def test_degree_sequence_str():
    assert str(DegreeSequence((3, 2, 2))) == "3,2,2"


def test_degree_sequence_sorts_its_degrees():
    d = DegreeSequence([2, 5, 3, 5])
    assert d.degrees == (5, 5, 3, 2)
    assert d == DegreeSequence((5, 5, 3, 2)) == validate([3, 2, 5, 5])
    assert DegreeSequence(()).degrees == ()


@pytest.mark.parametrize("degrees", [(3, 1, -3, 0), (0, 1), (-3,), (2, 2, 2, 0)])
def test_degree_sequence_names_first_entry_below_two(degrees):
    # the first in non-increasing order: the largest entry below 2
    first = max(x for x in degrees if x < 2)
    with pytest.raises(EntryBelowTwoError, match=rf"^internal degree {first} < 2$"):
        DegreeSequence(degrees)


def _eccentricity(adj, v):
    """Distance from v to its farthest vertex: the number of BFS levels."""
    seen = {v}
    level = [v]
    ecc = 0
    while True:
        nxt = []
        for w in level:
            for u in adj[w]:
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        if not nxt:
            return ecc
        level = nxt
        ecc += 1


@given(random_trees(min_n=2, max_n=40))
@settings(max_examples=200)
def test_tree_centers_minimize_eccentricity(t):
    ecc = [_eccentricity(t.adj, v) for v in range(t.n)]
    assert tree_centers(t.adj) == [v for v in range(t.n) if ecc[v] == min(ecc)]
