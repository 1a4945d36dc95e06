import hashlib
import math
import random
from heapq import heappop, heappush

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sombortree import construct
from sombortree.graph import (
    DegreeSequence,
    EntryBelowTwoError,
    InvalidTreeError,
    NoLeavesError,
    Tree,
    canonical_form,
    sombor_index,
    validate,
)
from sombortree.construct import (
    BASE,
    CHAIN,
    SubtreeSpec,
    _chains,
    attachment_site,
    construct_max_tree,
    decompose,
    materialize,
    merge_at,
    merge_once,
)

from labeled import prufer_to_tree


def path_tree(n):
    return Tree.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_tree(n):
    return Tree.from_edges(n, [(0, i) for i in range(1, n)])


@st.composite
def degree_sequences(draw, max_n=11):
    # induced from a random tree, so always feasible
    n = draw(st.integers(3, max_n))
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return validate(prufer_to_tree(seq, n).internal_degrees())


# -- subtree specs -----------------------------------------------------------


@pytest.mark.parametrize(
    "kind, root_degree, child_degrees, filler_leaves",
    [
        (CHAIN, 3, (2,), 0),  # a chain root of degree 3 needs two children
        (CHAIN, 2, (2,), 1),  # chains carry no filler leaves
        (BASE, 3, (2,), 1),  # a base root's slots must add up to its degree
        (CHAIN, 2, (1,), 0),  # internal children have degree >= 2
        ("ring", 2, (2,), 0),
    ],
)
def test_subtree_spec_rejects_inconsistent_specs(
    kind, root_degree, child_degrees, filler_leaves
):
    # a ValueError, not an assert, so that python -O still rejects them
    with pytest.raises(ValueError):
        SubtreeSpec(kind, root_degree, child_degrees, filler_leaves)


# -- decompose ---------------------------------------------------------------


def test_decompose_worked_example():
    specs = decompose(validate([5, 5, 5, 4, 3, 3, 2, 2]))
    assert specs == [
        SubtreeSpec(CHAIN, 2, (5,)),
        SubtreeSpec(CHAIN, 2, (5,)),
        SubtreeSpec(BASE, 3, (5, 4, 3), filler_leaves=0),
    ]


def test_decompose_small_base_only():
    assert decompose(validate([3, 2, 2])) == [
        SubtreeSpec(BASE, 2, (3, 2), filler_leaves=0)
    ]


def test_decompose_all_twos():
    assert decompose(validate([2, 2, 2, 2])) == [
        SubtreeSpec(CHAIN, 2, (2,)),
        SubtreeSpec(BASE, 2, (2,), filler_leaves=1),
    ]


def test_decompose_star():
    assert decompose(validate([7])) == [SubtreeSpec(BASE, 7, (), filler_leaves=7)]


def test_decompose_rejects_the_lone_edge():
    # validate([]) is the lone edge: no internal degree to root a spec at
    with pytest.raises(ValueError, match="at least one internal degree"):
        decompose(validate([]))


@given(degree_sequences())
@settings(max_examples=150)
def test_decompose_partitions_degrees(d):
    specs = decompose(d)
    used = []
    for s in specs:
        used.append(s.root_degree)
        used.extend(s.child_degrees)
    assert sorted(used, reverse=True) == list(d.degrees)
    assert specs[-1].kind == BASE
    assert all(s.kind == CHAIN for s in specs[:-1])


def spec_fields(spec):
    return spec.kind, spec.root_degree, spec.child_degrees, spec.filler_leaves


def worklist_decompose(d):
    """decompose's docstring run literally on a list: pop the smallest
    degree as a chain root while it fits, its children the largest left."""
    rest = list(d.degrees)
    out = []
    while rest[-1] <= len(rest) - 2:
        ds = rest.pop()
        out.append((CHAIN, ds, tuple(rest[: ds - 1]), 0))
        del rest[: ds - 1]
    ds = rest.pop()
    out.append((BASE, ds, tuple(rest), ds - len(rest)))
    return out


@given(
    st.one_of(
        st.lists(st.integers(2, 12), min_size=1, max_size=80),
        st.lists(st.integers(2, 300), min_size=1, max_size=300),
        st.integers(2, 60).map(lambda k: [k]),  # the star
        st.integers(1, 60).map(lambda m: [2] * m),  # the path
    )
)
@example([10**6] * 3 + [2] * 3)  # chains only: construct would lay out 3M vertices
@settings(max_examples=200, deadline=None)
def test_chains_walk_is_decompose_reversed(degrees):
    # the back-to-front walk construct_max_tree reads is decompose, field for
    # field, in reverse; both follow the worklist, which shares no code
    d = validate(degrees)
    specs = [spec_fields(s) for s in decompose(d)]
    assert specs == worklist_decompose(d)
    assert list(_chains(d)) == specs[::-1]


@pytest.mark.parametrize("degrees", [(3, 1), (4, 3, 1, 1), (2, 1), (1,), (2, 2, 2, 0)])
def test_entry_below_two_raises(degrees):
    # the check lives in DegreeSequence, so no sequence construct_max_tree or
    # decompose can be given holds one; building anyway would give, for
    # (3, 1), the star on 4 vertices, which realises (3,)
    with pytest.raises(EntryBelowTwoError):
        DegreeSequence(degrees)


def test_unsorted_degrees_construct_the_sorted_tree():
    # built directly, not through validate: unsorted, this list once gave
    # SO 126.98528242337683 against 129.58687174268195 sorted
    raw = construct_max_tree(DegreeSequence((2, 3, 5, 5, 4, 6, 5)))
    assert raw == construct_max_tree(validate([6, 5, 5, 5, 4, 3, 2]))
    assert sombor_index(raw) == 129.58687174268195


def test_shuffled_lists_construct_the_sorted_tree():
    rng = random.Random(3)
    for _ in range(2000):
        raw = [rng.randint(2, 6) for _ in range(rng.randint(1, 12))]
        ordered = DegreeSequence(tuple(sorted(raw, reverse=True)))
        assert construct_max_tree(DegreeSequence(tuple(raw))) == construct_max_tree(ordered), raw


# -- materialize -------------------------------------------------------------


def test_materialize_chain():
    sub = materialize(SubtreeSpec(CHAIN, 2, (5,)))
    assert sub.n == 6
    assert sub.degree(0) == 1  # one slot reserved for the merge
    assert sub.degree(0) + 1 == 2  # the chain root after its merge
    assert sub.degree(1) == 5


def test_materialize_paper_base():
    sub = materialize(SubtreeSpec(BASE, 3, (5, 4, 3)))
    assert sub.n == 13
    assert sub.degree(0) == 3
    assert sorted(sub.degree(c) for c in sub.adj[0]) == [3, 4, 5]


def test_materialize_base_with_filler_is_p4():
    sub = materialize(SubtreeSpec(BASE, 2, (2,), filler_leaves=1))
    assert canonical_form(sub) == canonical_form(path_tree(4))
    assert sub.degree(0) == 2


@given(degree_sequences())
@settings(max_examples=100)
def test_leaf_bookkeeping(d):
    # each merge consumes one host leaf; chain roots are open slots, not leaves
    specs = decompose(d)
    total_leaves = 0
    for s in specs:
        sub = materialize(s)
        total_leaves += sum(
            1 for v in sub.leaves() if v != 0
        )
    assert total_leaves == d.leaf_count + (len(specs) - 1)


# -- attachment site ---------------------------------------------------------


def test_attachment_site_star():
    assert attachment_site(star_tree(4)) == 1


def test_attachment_site_paper_base():
    base = materialize(SubtreeSpec(BASE, 3, (5, 4, 3)))
    leaf = attachment_site(base)
    assert base.degree(base.adj[leaf][0]) == 3


def test_attachment_site_p4():
    assert attachment_site(path_tree(4)) == 0


def test_attachment_site_single_vertex_has_no_leaves():
    with pytest.raises(NoLeavesError):
        attachment_site(Tree.from_edges(1, []))


# -- merge -------------------------------------------------------------------


def test_merge_paper_first_step():
    base = materialize(SubtreeSpec(BASE, 3, (5, 4, 3)))
    leaf = attachment_site(base)
    anchor = base.adj[leaf][0]
    merged = merge_once(base, materialize(SubtreeSpec(CHAIN, 2, (5,))))
    assert merged.n == base.n + 6 - 1
    # the degree-3 child now touches the base root, one leaf, and the
    # degree-2 merged root
    nbr_degs = sorted(merged.degree(u) for u in merged.adj[anchor])
    assert nbr_degs == [1, 2, 3]
    assert merged.degree(anchor) == base.degree(anchor)


def test_merge_all_twos_gives_p6():
    base = materialize(SubtreeSpec(BASE, 2, (2,), filler_leaves=1))
    merged = merge_once(base, materialize(SubtreeSpec(CHAIN, 2, (2,))))
    assert canonical_form(merged) == canonical_form(path_tree(6))


def test_merge_into_star_is_leaf_symmetric():
    star = star_tree(5)
    sub = materialize(SubtreeSpec(CHAIN, 2, (3,)))
    codes = {canonical_form(merge_at(star, sub, leaf)) for leaf in star.leaves()}
    assert len(codes) == 1


def dict_merge_at(t, s, leaf):
    """merge_at as it read when it mapped s's ids through a dict: the
    reference for the ids merge_at gives."""
    if t.degree(leaf) != 1:
        raise ValueError(f"vertex {leaf} is not a leaf")
    remap = {0: leaf}
    next_id = t.n
    for v in range(s.n):
        if v != 0:
            remap[v] = next_id
            next_id += 1
    edges = t.edges()
    edges.extend((remap[u], remap[v]) for u, v in s.edges())
    return Tree.from_edges(next_id, edges)


@st.composite
def host_trees(draw, max_n=12):
    n = draw(st.integers(2, max_n))
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return prufer_to_tree(seq, n)


@st.composite
def subtree_specs(draw):
    if draw(st.booleans()):
        children = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=4)))
        return SubtreeSpec(CHAIN, len(children) + 1, children)
    children = tuple(draw(st.lists(st.integers(2, 5), max_size=4)))
    fillers = draw(st.integers(0 if children else 1, 3))
    return SubtreeSpec(BASE, len(children) + fillers, children, fillers)


@given(host_trees(), subtree_specs())
@settings(max_examples=200)
def test_merge_at_ids_match_dict_reference(host, spec):
    sub = materialize(spec)
    for leaf in host.leaves():
        assert merge_at(host, sub, leaf) == dict_merge_at(host, sub, leaf)
    for v in range(host.n):
        if host.degree(v) != 1:
            with pytest.raises(ValueError, match="not a leaf"):
                merge_at(host, sub, v)


# SHA-256 over to_json() of every intermediate tree of the stepwise
# construction, recorded when materialize wrapped its tree and merge_at
# mapped ids through a dict.
STEPWISE_IDS = "118e184fe025003db53028a41fb3c488798b93fe095c94d68296dceb24442f22"


def test_stepwise_ids_are_pinned():
    # the base, then the tree after each merge_once, for all 271 sequences
    # with n <= 14: 535 trees, ids as materialize and merge_at give them
    from sombortree.sweep import generate_degree_sequences

    seqs = generate_degree_sequences(14)
    assert len(seqs) == 271
    h = hashlib.sha256()
    count = 0
    for d in seqs:
        specs = decompose(d)
        t = materialize(specs[-1])
        h.update(t.to_json().encode())
        for spec in reversed(specs[:-1]):
            t = merge_once(t, materialize(spec))
            h.update(t.to_json().encode())
        count += len(specs)
    assert count == 535
    assert h.hexdigest() == STEPWISE_IDS


@given(degree_sequences(max_n=10))
@settings(max_examples=100)
def test_merge_keeps_host_neighbor_degree(d):
    specs = decompose(d)
    t = materialize(specs[-1])
    for spec in reversed(specs[:-1]):
        leaf = attachment_site(t)
        anchor = t.adj[leaf][0]
        before = t.degree(anchor)
        t = merge_once(t, materialize(spec))
        assert t.degree(anchor) == before


# -- construct_max_tree ------------------------------------------------------


def test_construct_322_is_caterpillar():
    t = construct_max_tree(validate([3, 2, 2]))
    caterpillar = Tree.from_edges(6, [(0, 1), (1, 2), (0, 3), (0, 4), (2, 5)])
    assert canonical_form(t) == canonical_form(caterpillar)
    assert sombor_index(t) == pytest.approx(
        math.sqrt(13) + math.sqrt(8) + 2 * math.sqrt(10) + math.sqrt(5), rel=1e-12
    )


def test_construct_all_twos_is_path():
    for m in range(1, 8):
        t = construct_max_tree(validate([2] * m))
        assert canonical_form(t) == canonical_form(path_tree(m + 2))


def test_construct_degenerate_cases():
    assert construct_max_tree(validate([])).n == 2
    star = construct_max_tree(validate([6]))
    assert canonical_form(star) == canonical_form(star_tree(7))


def test_construct_paper_example():
    d = validate([5, 5, 5, 4, 3, 3, 2, 2])
    t = construct_max_tree(d)
    assert t.n == 23
    assert len(t.leaves()) == 15
    assert t.internal_degrees() == d.degrees
    assert sombor_index(t) == pytest.approx(106.61257578712797, rel=1e-9)


def test_construct_deterministic():
    d = validate([5, 5, 5, 4, 3, 3, 2, 2])
    assert construct_max_tree(d).edges() == construct_max_tree(d).edges()


@given(degree_sequences())
@settings(max_examples=150)
def test_construct_realizes_sequence(d):
    t = construct_max_tree(d)
    assert t.internal_degrees() == d.degrees
    assert len(t.leaves()) == d.leaf_count
    assert t.n == d.vertex_count


def reference_construct(d):
    """The construction one merge at a time: materialize the base, merge_once
    each chain back to front, relabel by BFS from vertex 0 visiting children
    by (-degree, id)."""
    specs = decompose(d)
    t = materialize(specs[-1])
    for spec in reversed(specs[:-1]):
        t = merge_once(t, materialize(spec))
    order, seen = [0], {0}
    for v in order:
        for u in sorted(t.adj[v], key=lambda u: (-t.degree(u), u)):
            if u not in seen:
                seen.add(u)
                order.append(u)
    remap = {v: i for i, v in enumerate(order)}
    return Tree.from_edges(t.n, [(remap[u], remap[v]) for u, v in t.edges()])


@given(st.lists(st.integers(2, 12), min_size=1, max_size=80))
@settings(max_examples=100, deadline=None)
def test_construct_matches_merge_reference(degrees):
    d = validate(degrees)
    assert construct_max_tree(d).to_json() == reference_construct(d).to_json()


def relabel_reference(d):
    """The one-pass layout finished the way construct_max_tree used to be:
    sort each vertex's neighbours by (-degree, id), relabel by BFS from
    vertex 0, and rebuild with the validating Tree.from_edges."""
    if d.m == 0:
        return Tree.from_edges(2, [(0, 1)])
    adj = [[]]
    sites = []
    for spec in reversed(decompose(d)):
        root = heappop(sites)[1] if sites else 0
        k = len(spec.child_degrees)
        kids = range(len(adj), len(adj) + k + spec.filler_leaves)
        for c in kids:
            adj[root].append(c)
            adj.append([root])
        for c in kids[k:]:
            heappush(sites, (spec.root_degree, c))
        for c, cdeg in zip(kids, spec.child_degrees):
            for leaf in range(len(adj), len(adj) + cdeg - 1):
                adj[c].append(leaf)
                adj.append([c])
                heappush(sites, (cdeg, leaf))
    order, seen = [0], {0}
    for v in order:
        for u in sorted(adj[v], key=lambda u: (-len(adj[u]), u)):
            if u not in seen:
                seen.add(u)
                order.append(u)
    remap = {v: i for i, v in enumerate(order)}
    return Tree.from_edges(
        len(adj), [(remap[u], remap[v]) for u, ns in enumerate(adj) for v in ns if u < v]
    )


def assert_matches_relabel_reference(d):
    t = construct_max_tree(d)
    assert t == relabel_reference(d)
    # built without Tree.from_edges, yet with its sorted, symmetric adjacency
    assert t == Tree.from_edges(t.n, t.edges())


@given(st.lists(st.integers(2, 12), max_size=80))
@settings(max_examples=150, deadline=None)
def test_construct_matches_relabel_reference(degrees):
    assert_matches_relabel_reference(validate(degrees))


@pytest.mark.parametrize("hi", [3, 6, 40])
def test_construct_matches_relabel_reference_seeded(hi):
    rng = random.Random(hi)
    for m in list(range(1, 41)) + [100, 250, 500]:
        assert_matches_relabel_reference(validate([rng.randint(2, hi) for _ in range(m)]))


def test_layout_order_is_final_order():
    # construct_max_tree's BFS takes every vertex's children as the layout
    # stored them; relabel_reference sorts them by (-degree, id) first.  The
    # lists with many distinct degrees and many chains (298 for 2..200 plus
    # 400 twos) change the smallest degree with a leaf waiting most often.
    from sombortree.sweep import generate_degree_sequences

    seqs = generate_degree_sequences(16)
    assert len(seqs) == 507
    rng = random.Random(18)
    seqs += [
        validate(list(range(2, 301))),
        validate(list(range(2, 201)) + [2] * 400),
        validate([rng.randint(2, 120) for _ in range(200)] + [2] * 300),
        validate([rng.choice((2, 3, rng.randint(4, 90))) for _ in range(600)]),
    ]
    for d in seqs:
        assert_matches_relabel_reference(d)


def test_last_merge_site_beats_alternatives():
    # attaching the final chain anywhere other than L1^m never wins
    from sombortree.sweep import generate_degree_sequences

    for d in generate_degree_sequences(10):
        specs = decompose(d)
        if len(specs) < 2:
            continue
        host = materialize(specs[-1])
        for spec in reversed(specs[1:-1]):
            host = merge_once(host, materialize(spec))
        final = materialize(specs[0])
        chosen_so = sombor_index(merge_once(host, final))
        for leaf in host.leaves():
            alt_so = sombor_index(merge_at(host, final, leaf))
            assert chosen_so >= alt_so - 1e-9 * chosen_so


def stepwise_site_degrees(d):
    """The neighbour degree of each leaf the stepwise construction attaches a
    chain at: materialize the base, then merge each chain back to front at
    attachment_site, as merge_once does."""
    specs = decompose(d)
    t = materialize(specs[-1])
    taken = []
    for spec in reversed(specs[:-1]):
        leaf = attachment_site(t)
        taken.append(t.degree(t.adj[leaf][0]))
        t = merge_at(t, materialize(spec), leaf)
    return taken


def test_smallest_waiting_degree_never_decreases():
    # construct_max_tree finds each attachment site with a cursor that only
    # moves up the sorted degrees; that is sound only if the degree each
    # chain attaches at never decreases.  500,500,500,2,2,2 attaches at 2,
    # then at 500, past every integer between.
    from sombortree.sweep import generate_degree_sequences

    seqs = generate_degree_sequences(16)
    assert len(seqs) == 507
    rng = random.Random(18)
    seqs += [
        validate(list(range(2, 301))),
        validate(list(range(2, 201)) + [2] * 400),
        validate([rng.randint(2, 120) for _ in range(200)] + [2] * 300),
        validate([rng.choice((2, 3, rng.randint(4, 90))) for _ in range(600)]),
    ]
    for d in seqs:
        taken = stepwise_site_degrees(d)
        assert taken == sorted(taken)
    assert stepwise_site_degrees(validate([500] * 3 + [2] * 3)) == [2, 500]


@pytest.mark.parametrize("big", [500, 5000])
def test_construct_skips_a_gap_in_the_degrees(big):
    # the cursor walks the distinct degrees, so it jumps from 2 to big
    assert_matches_relabel_reference(validate([big] * 3 + [2] * 3))


@pytest.mark.parametrize("degrees", [[3, 3], [5, 5, 5, 4, 3, 3, 2, 2], [4] * 40])
def test_construct_rejects_a_walk_that_drops_a_child(monkeypatch, degrees):
    # the layout is checked, not trusted: a walk whose last subtree (the
    # base when there is no chain) drops its last child lays out one
    # internal vertex and its leaves too few, and the BFS count says so
    walk = construct._chains

    def dropping(d):
        *subtrees, (kind, rdeg, degs, f) = walk(d)
        yield from subtrees
        yield kind, rdeg, degs[:-1], f

    monkeypatch.setattr(construct, "_chains", dropping)
    with pytest.raises(InvalidTreeError):
        construct_max_tree(validate(degrees))


def test_construct_builds_no_subtree_spec(monkeypatch):
    # construct_max_tree reads _chains' slices: with SubtreeSpec raising it
    # still builds every tree with n <= 12 and a seeded m = 2,000 one, equal
    # to the references built through decompose before the patch
    from sombortree.sweep import generate_degree_sequences

    rng = random.Random(2000)
    seqs = [validate([])] + generate_degree_sequences(12)
    seqs.append(validate([rng.randint(2, 40) for _ in range(2000)]))
    refs = [relabel_reference(d) for d in seqs]

    def no_spec(*args, **kwargs):
        raise AssertionError("construct_max_tree built a SubtreeSpec")

    monkeypatch.setattr(construct, "SubtreeSpec", no_spec)
    with pytest.raises(AssertionError):
        decompose(validate([3, 2, 2]))  # the patch takes hold
    for d, ref in zip(seqs, refs):
        t = construct_max_tree(d)
        assert t == ref
        assert t.internal_degrees() == d.degrees
