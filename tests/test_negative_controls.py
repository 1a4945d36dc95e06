"""Negative controls: under other edge weights every detector can fire.

graph.weight_table looks edge_weight up at call time, so patching that one
name runs the constructor and all three detectors (the oracle, the 2-swap
check and the annealer) under another index, with nothing in the package
changed.  Where the constructor is beaten, each detector must say so on
the same sequences; a pipeline that always reported "optimal" would fail
here.  The attachment checker, which scores a merge without building it,
is held to the merge it stands for under every weight.  The weights
(x^2 + y^2)^alpha with 0 < alpha < 1 keep the constructor optimal, as for
alpha = 1/2, the Sombor index itself.

At alpha = 1 an edge weighs d(u)^2 + d(v)^2, so every tree realizing d
has the same value, sum of d(v)^3 over its vertices, and the integer
weights sum exactly: every realization ties.
"""

import pytest

import sombortree.graph
from sombortree.construct import construct_max_tree, decompose, materialize, merge_once
from sombortree.graph import canonical_form, exceeds, sombor_index, validate
from sombortree.sweep import generate_degree_sequences
from sombortree.verify import anneal_search, attachment_profile, is_local_max, oracle_max

from conftest import time_limit
from labeled import enumerate_trees
from test_verify import merged_profile, profile_bits

SEQUENCES = generate_degree_sequences(10)  # all 66 with 3 <= n <= 10


def power(alpha):
    return lambda x, y: float(x * x + y * y) ** alpha


def detectors_flagging(weight, monkeypatch):
    """{detector: the sequences on which it finds a tree beating the
    constructed one} under the edge weight weight."""
    monkeypatch.setattr(sombortree.graph, "edge_weight", weight)
    flagged = {"oracle": set(), "local_max": set(), "anneal": set()}
    for d in SEQUENCES:
        anneal = anneal_search(d, 2000, 42)
        so = anneal.start_so  # the constructed tree's value
        if exceeds(oracle_max(d).max_so, so):
            flagged["oracle"].add(d.degrees)
        if not is_local_max(construct_max_tree(d)).is_local_max:
            flagged["local_max"].add(d.degrees)
        if exceeds(anneal.best_so, so):
            flagged["anneal"].add(d.degrees)
    return flagged


@pytest.mark.parametrize(
    "weight",
    [lambda x, y: float(x * y), power(-0.5), power(1.5)],
    ids=["xy", "alpha=-0.5", "alpha=1.5"],
)
@time_limit(10)
def test_every_detector_flags_the_same_beaten_sequences(weight, monkeypatch):
    flagged = detectors_flagging(weight, monkeypatch)
    assert flagged["oracle"]
    assert flagged["local_max"] == flagged["oracle"]
    assert flagged["anneal"] == flagged["oracle"]


@pytest.mark.parametrize("alpha", [0.25, 0.75])
@time_limit(10)
def test_concave_powers_keep_the_constructor_optimal(alpha, monkeypatch):
    flagged = detectors_flagging(power(alpha), monkeypatch)
    assert flagged == {"oracle": set(), "local_max": set(), "anneal": set()}


def test_alpha_one_ties_every_realization(monkeypatch):
    monkeypatch.setattr(sombortree.graph, "edge_weight", power(1))
    for d in SEQUENCES:
        t = construct_max_tree(d)
        report = is_local_max(t)
        assert report.is_local_max and report.best_delta == 0.0, d.degrees
        if d.vertex_count <= 9:
            oracle = oracle_max(d)
            assert oracle.max_so == sum(x**3 for x in t.degrees()), d.degrees
            labeled = {canonical_form(u) for u in enumerate_trees(d)}
            assert set(oracle.witnesses) == labeled, d.degrees


# The sequences on which merging the last chain beats the least neighbor
# degree under xy, alpha = -0.5 and alpha = 1.5; the oracle beats the
# constructor on each.
ATTACHMENT_BEATEN = {
    (3, 3, 2, 2), (4, 3, 2, 2), (3, 3, 2, 2, 2), (5, 3, 2, 2),
    (4, 4, 2, 2), (4, 3, 2, 2, 2), (3, 3, 2, 2, 2, 2),
}


@pytest.mark.parametrize(
    "weight, beaten",
    [
        (lambda x, y: float(x * y), ATTACHMENT_BEATEN),
        (power(-0.5), ATTACHMENT_BEATEN),
        (power(1.5), ATTACHMENT_BEATEN),
        (power(0.25), set()),
        (power(0.75), set()),
        (power(1), set()),
    ],
    ids=["xy", "alpha=-0.5", "alpha=1.5", "alpha=0.25", "alpha=0.75", "alpha=1"],
)
def test_attachment_checker_flags_the_last_merge(weight, beaten, monkeypatch):
    # the host is the base with every chain but the first merged onto it,
    # the step before the constructor's last merge
    monkeypatch.setattr(sombortree.graph, "edge_weight", weight)
    flagged, with_chain = set(), 0
    for d in SEQUENCES:
        *chains, host = map(materialize, decompose(d))
        if not chains:
            continue
        with_chain += 1
        for chain in reversed(chains[1:]):
            host = merge_once(host, chain)
        profile = attachment_profile(host, chains[0])
        assert profile_bits(profile) == profile_bits(merged_profile(host, chains[0])), d
        if not profile.ok:
            flagged.add(d.degrees)
    assert with_chain == 25
    assert flagged == beaten
    for d in map(validate, beaten):
        assert exceeds(oracle_max(d).max_so, sombor_index(construct_max_tree(d))), d.degrees
