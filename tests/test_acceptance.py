"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py -v` to see the verdict lines.
The n <= 12 audit fixture is session-scoped and shared across criteria.
"""

import functools
import json
import math
import multiprocessing
import os
import random

import pytest

from sombortree.graph import (
    REL_TOL,
    Tree,
    canonical_form,
    edge_weight,
    sombor_index,
    validate,
)
from sombortree.construct import (
    BASE,
    CHAIN,
    SubtreeSpec,
    construct_max_tree,
    decompose,
    materialize,
)
from sombortree.verify import (
    anneal_search,
    attachment_profile,
    check_theorem1,
    is_local_max,
    oracle_max,
    prufer_space_size,
)
from sombortree.sweep import generate_degree_sequences

from labeled import prufer_to_tree

PAPER_DEGREES = (5, 5, 5, 4, 3, 3, 2, 2)


def _verdict(num, ok, detail):
    print(f"ACCEPTANCE criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_1_exhaustive_optimality(audit_n12):
    """Constructed SO equals the enumerated maximum for every n <= 12."""
    capped = [deg for deg, (rec, _, _) in audit_n12.items() if rec.capped]
    mismatched = [
        (deg, rec.gap)
        for deg, (rec, _, _) in audit_n12.items()
        if not rec.optimal
    ]
    ok = not capped and not mismatched
    _verdict(
        1,
        ok,
        f"{len(audit_n12)} sequences audited, capped={len(capped)}, "
        f"non-optimal={mismatched[:3] or 0}",
    )


def test_criterion_1_exhaustive_optimality_n16():
    """Criterion 1 over every sequence with n <= 16, by the exact oracle.

    The cap is each sequence's labeled tree count, never below its number
    of skeleton placements (at most 2,912 here), so no scan is capped; the
    constructed tree's canonical form must be among the witnesses.
    """
    seqs = generate_degree_sequences(16)
    capped, mismatched = [], []
    for d in seqs:
        oracle = oracle_max(d, cap=prufer_space_size(d))
        constructed = construct_max_tree(d)
        so = sombor_index(constructed)
        if oracle.capped:
            capped.append(d.degrees)
        elif (
            oracle.max_so - so > REL_TOL * oracle.max_so
            or canonical_form(constructed) not in oracle.witnesses
        ):
            mismatched.append((d.degrees, oracle.max_so - so))
    ok = not capped and not mismatched
    _verdict(
        1,
        ok,
        f"{len(seqs)} sequences with n <= 16 audited, capped={len(capped)}, "
        f"non-optimal={mismatched[:3] or 0}",
    )


def test_criterion_2_paper_worked_example():
    d = validate(PAPER_DEGREES)
    specs = decompose(d)
    trace_ok = specs == [
        SubtreeSpec(CHAIN, 2, (5,)),
        SubtreeSpec(CHAIN, 2, (5,)),
        SubtreeSpec(BASE, 3, (5, 4, 3), filler_leaves=0),
    ]
    t = construct_max_tree(d)
    so = sombor_index(t)
    so_again = sombor_index(construct_max_tree(d))
    shape_ok = (
        t.n == 23
        and len(t.leaves()) == 15
        and t.internal_degrees() == PAPER_DEGREES
    )
    local_ok = is_local_max(t).is_local_max
    stable_ok = abs(so - so_again) <= 1e-12 * so
    value_ok = abs(so - 106.61257578712797) <= 1e-9 * so
    ok = trace_ok and shape_ok and local_ok and stable_ok and value_ok
    _verdict(
        2,
        ok,
        f"decompose trace={trace_ok}, 23 vertices/15 leaves={shape_ok}, "
        f"local max={local_ok}, SO={so:.12g} stable={stable_ok}",
    )


def test_criterion_3_closed_forms():
    bad = []
    for n in range(3, 51):
        star = construct_max_tree(validate([n - 1]))
        want = (n - 1) * math.sqrt((n - 1) ** 2 + 1)
        if abs(sombor_index(star) - want) > 1e-12 * want:
            bad.append(("star", n))
        path = construct_max_tree(validate([2] * (n - 2)))
        want = 2 * math.sqrt(5) + (n - 3) * math.sqrt(8)
        if abs(sombor_index(path) - want) > 1e-12 * want:
            bad.append(("path", n))
    _verdict(3, not bad, f"star and path closed forms for n=3..50, failures={bad}")


def test_criterion_4_lemma_grids():
    violations = 0
    # weight monotone against a unit endpoint
    for x in range(1, 51):
        for y in range(x, 51):
            if edge_weight(x, 1) > edge_weight(y, 1):
                violations += 1
    # difference of radicals monotone in the shared argument; checking all
    # consecutive x covers every x < x' by transitivity
    s = [[math.sqrt(x * x + a * a) for a in range(51)] for x in range(51)]
    for a in range(1, 51):
        for b in range(1, 51):
            for x in range(1, 50):
                fx = s[x][a] - s[x][b]
                fxp = s[x + 1][a] - s[x + 1][b]
                if a <= b and fx > fxp + 1e-12:
                    violations += 1
                if a > b and fx < fxp - 1e-12:
                    violations += 1
    # strict growth in each argument
    for x in range(1, 50):
        for y in range(1, 51):
            if not edge_weight(x + 1, y) > edge_weight(x, y):
                violations += 1
            if not edge_weight(y, x + 1) > edge_weight(y, x):
                violations += 1
    _verdict(4, violations == 0, f"lemma grid violations={violations} over [1,50]^2")


def test_criterion_5_attachment_properties():
    rng = random.Random(20260826)
    failures = []
    for trial in range(1000):
        n = rng.randrange(4, 11)
        seq = [rng.randrange(n) for _ in range(n - 2)]
        host = prufer_to_tree(seq, n)
        root_degree = rng.randrange(2, 6)
        children = tuple(
            sorted(
                (rng.randrange(2, 7) for _ in range(root_degree - 1)),
                reverse=True,
            )
        )
        sub = materialize(SubtreeSpec(CHAIN, root_degree, children))
        prof = attachment_profile(host, sub)
        if not (
            prof.non_increasing_ok
            and prof.equal_degree_ties_ok
            and prof.l1m_attains_max_ok
        ):
            failures.append(trial)
    _verdict(5, not failures, f"1000 random pairs, failing trials={failures[:5] or 0}")


def test_criterion_6_local_maximality(audit_n12):
    bad = [
        deg for deg, (rec, _, _) in audit_n12.items() if not rec.local_max
    ]
    _verdict(
        6,
        not bad,
        f"2-swap local maximality for all {len(audit_n12)} constructed trees, "
        f"failures={bad[:3] or 0}",
    )


#: Seconds criterion 7's anneals may take in all (about 15 s on two
#: workers) before its pool is terminated and the test fails.
ANNEAL_TIMEOUT = 300


def test_criterion_7_annealer_sanity(audit_n12):
    matches = 0
    below_start = []
    total = len(audit_n12)
    # each anneal is seeded and independent, so it may run on either CPU.
    # No signal here reaches a hung worker: the results are awaited with a
    # timeout, and leaving the pool terminates its workers
    run = functools.partial(anneal_search, budget=100_000, seed=42)
    seqs = [validate(deg) for deg in audit_n12]
    with multiprocessing.get_context("spawn").Pool(min(2, os.cpu_count() or 1)) as pool:
        results = pool.map_async(run, seqs, chunksize=4).get(timeout=ANNEAL_TIMEOUT)
    for (deg, (rec, _, oracle)), result in zip(audit_n12.items(), results):
        if result.best_so < rec.constructed_so - 1e-9 * rec.constructed_so:
            below_start.append(deg)
        if result.best_so >= oracle.max_so - 1e-9 * oracle.max_so:
            matches += 1
    ok = not below_start and matches >= math.ceil(0.95 * total)
    _verdict(
        7,
        ok,
        f"annealer matched oracle on {matches}/{total} sequences, "
        f"below-start={below_start[:3] or 0}",
    )


def test_criterion_8_theorem1_report(audit_n12, tmp_path):
    report = {"trees": []}
    for deg, (rec, constructed, _) in audit_n12.items():
        t1 = check_theorem1(constructed)
        report["trees"].append(
            {
                "degrees": list(deg),
                "tree": json.loads(constructed.to_json()),
                **t1.to_dict(),
            }
        )
    paper_tree = construct_max_tree(validate(PAPER_DEGREES))
    report["trees"].append(
        {
            "degrees": list(PAPER_DEGREES),
            "tree": json.loads(paper_tree.to_json()),
            **check_theorem1(paper_tree).to_dict(),
        }
    )
    out = tmp_path / "theorem1_report.json"
    out.write_text(json.dumps(report, indent=2))
    loaded = json.loads(out.read_text())
    ok = len(loaded["trees"]) == len(audit_n12) + 1 and all(
        set(entry) >= {"degrees", "tree", "paths", "checked", "violations", "records"}
        and len(entry["records"]) == entry["violations"]
        for entry in loaded["trees"]
    )
    flagged = sum(1 for e in loaded["trees"] if e["violations"])
    _verdict(
        8,
        ok,
        f"report written ({len(loaded['trees'])} trees, {flagged} with flagged "
        f"records) — violations are findings, not failures",
    )
