"""The benchmark's workloads: seeded inputs, the operations, and their checks.

Every workload is a closed loop: one process, one caller, and the next
operation starts when the last one returns.  The program is driven only
through its public functions, looked up on the module at call time so that
the tracer's rebinding reaches them, and it sees only the generated degree
lists.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
EXPECTED_PATH = HERE / "expected.json"

#: The seed whose `large` constructions have committed digests.
DEFAULT_SEED = 1

MODULES = ("graph", "construct", "verify", "sweep", "cli")


def load_program() -> SimpleNamespace:
    """Import the package's modules; part of the measured set-up."""
    return SimpleNamespace(
        **{m: importlib.import_module(f"sombortree.{m}") for m in MODULES}
    )


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


@dataclass(frozen=True)
class Op:
    """One call into the program and the check of what it returned.

    ``check`` returns None when the output is right, else a one-line reason.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _realizes(tree, d) -> str | None:
    if tree.n != d.vertex_count:
        return f"tree has {tree.n} vertices, degrees imply {d.vertex_count}"
    if tree.internal_degrees() != d.degrees:
        return "tree does not realize the input degrees"
    return None


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# audit: the exhaustive sweep that the oracle dominates

AUDIT = {"full": {"max_n": 10}, "tiny": {"max_n": 7}}


def _shuffled(rng: random.Random, n: int) -> list[int]:
    # Ops of similar cost sit next to each other in generation order; spread
    # over the pass, they let a percentile average over the host's speed
    # changes instead of sampling one second of them.
    order = list(range(n))
    rng.shuffle(order)
    return order


def audit_inputs(pkg, seed: int, scale: str):
    # The sequences are the complete set, so the seed only orders the ops.
    seqs = pkg.sweep.generate_degree_sequences(AUDIT[scale]["max_n"])
    return SimpleNamespace(
        seqs=seqs,
        order=_shuffled(random.Random(seed), len(seqs)),
        csv=OUT_DIR / "audit.csv",
    )


def audit_ops(pkg, inputs, expected: dict) -> list[Op]:
    sweep = pkg.sweep
    witnesses = expected["audit_witnesses"]
    records = [None] * len(inputs.seqs)

    def evaluate(i, d):
        out = sweep.evaluate_sequence(d)
        records[i] = out[0]
        return out

    def check_evaluate(d, out) -> str | None:
        record, constructed, oracle = out
        if not record.optimal:
            return f"not optimal (gap {record.gap!r})"
        if record.capped:
            return "oracle capped"
        if not record.local_max:
            return "not a 2-swap local maximum"
        bad = _realizes(constructed, d)
        if bad:
            return bad
        if pkg.graph.canonical_form(constructed) not in oracle.witnesses:
            return "constructed tree is not among the oracle's witnesses"
        if len(oracle.witnesses) != witnesses[str(d)]:
            return f"{len(oracle.witnesses)} witnesses, expected {witnesses[str(d)]}"
        return None

    def write():
        # in generation order, as `sombor sweep` writes them
        written = [r for r in records if r is not None]
        sweep.write_csv(written, inputs.csv)
        return written

    def check_write(written) -> str | None:
        rows = [r.to_row() for r in sweep.read_csv(inputs.csv)]
        if rows != [r.to_row() for r in written]:
            return "CSV read back differs from the records written"
        return None

    ops = []
    for i in inputs.order:
        d = inputs.seqs[i]
        ops.append(Op(str(d), lambda i=i, d=d: evaluate(i, d),
                      lambda out, d=d: check_evaluate(d, out)))
    ops.append(Op("write_csv", write, check_write))
    return ops


# ---------------------------------------------------------------------------
# search: the annealer on small trees just past the enumeration cap

SEARCH = {
    "full": {"n": (13, 14), "budget": 1000},
    "tiny": {"n": (6, 7), "budget": 50},
}


def search_inputs(pkg, seed: int, scale: str):
    lo, hi = SEARCH[scale]["n"]
    seqs = [d for d in pkg.sweep.generate_degree_sequences(hi) if d.vertex_count >= lo]
    rng = random.Random(seed)
    return SimpleNamespace(
        seqs=seqs,
        seeds=[rng.randrange(2**31) for _ in seqs],
        order=_shuffled(rng, len(seqs)),
        budget=SEARCH[scale]["budget"],
    )


def search_ops(pkg, inputs, expected: dict) -> list[Op]:
    cli = pkg.cli

    def search(d, seed):
        argv = ["search", "--degrees", str(d), "--budget", str(inputs.budget),
                "--seed", str(seed)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.run(argv)
        return rc, buf.getvalue()

    def check(d, seed, out) -> str | None:
        rc, text = out
        if rc != 0:
            return f"exit {rc}"
        payload = json.loads(text)
        if payload["improved"]:
            return "annealer beat the constructed tree"
        # A star (m = 1) has no two vertex-disjoint edges, so no 2-swap.
        moves = inputs.budget if d.m >= 2 else 0
        if payload["moves"] != moves:
            return f"{payload['moves']} moves, expected {moves}"
        if payload["best_so"] < payload["constructed_so"]:
            return "best_so below constructed_so"
        if payload["degrees"] != list(d.degrees) or payload["seed"] != seed:
            return "payload echoes other degrees or seed"
        return None

    ops = []
    for i in inputs.order:
        d, s = inputs.seqs[i], inputs.seeds[i]
        ops.append(Op(f"{d} seed={s}", lambda d=d, s=s: search(d, s),
                      lambda out, d=d, s=s: check(d, s, out)))
    return ops


# ---------------------------------------------------------------------------
# large: seeded random sequences far beyond exhaustive reach

def _spread(lo: int, hi: int, k: int) -> list[int]:
    return [lo + (hi - lo) * i // (k - 1) for i in range(k)]


# Per op kind: (the m of each op, degree range[, anneal budget]).  Each op's
# m and degree sum, hence its n, are fixed and the seed draws only which
# degrees make up the sum: the cost of the check flow grows as n^3, so a
# free n would let a new seed move the figures by tens of percent.  Degrees
# 2..6 and 3..5 give n = 3m + 2.  The check lists use 3..5: at m = 14 the
# check flow's cost spread 0.47 (IQR over median) across lists drawn from
# 2..6 and 0.05 across lists from 3..5.  The anneal lists use degrees 8..16
# so that n ~ 1k comes from m = 90 and construction is a small part of the
# anneal op.
# A pass takes about 3 s, so that a run times every op several times.
LARGE = {
    "full": {
        "construct": ([500] * 2, (2, 6)),
        "check": (_spread(10, 18, 30), (3, 5)),
        "anneal": ([90] * 2, (8, 16), 100),
    },
    "tiny": {
        "construct": ([30] * 4, (2, 6)),
        "check": (_spread(4, 8, 10), (3, 5)),
        "anneal": ([8] * 2, (3, 6), 20),
    },
}


def _degrees(rng: random.Random, m: int, lo: int, hi: int) -> list[int]:
    """m uniform draws from [lo, hi], nudged at random to sum to m * mid."""
    d = [rng.randint(lo, hi) for _ in range(m)]
    excess = sum(d) - m * (lo + hi) // 2
    while excess:
        i = rng.randrange(m)
        if excess > 0 and d[i] > lo:
            d[i] -= 1
            excess -= 1
        elif excess < 0 and d[i] < hi:
            d[i] += 1
            excess += 1
    return d


def large_inputs(pkg, seed: int, scale: str):
    rng = random.Random(seed)
    jobs = []
    for kind, (ms, (lo, hi), *extra) in LARGE[scale].items():
        for i, m in enumerate(ms):
            d = pkg.graph.validate(_degrees(rng, m, lo, hi))
            label = f"{kind}#{i} m={m} n={d.vertex_count}"
            jobs.append((kind, label, d, rng.randrange(2**31), *extra))
    rng.shuffle(jobs)
    return SimpleNamespace(jobs=jobs, seed=seed, scale=scale)


def large_ops(pkg, inputs, expected: dict) -> list[Op]:
    construct, verify = pkg.construct, pkg.verify
    digests = None
    if inputs.seed == expected["large"]["seed"] and inputs.scale == "full":
        digests = expected["large"]["construct_sha256"]

    def check_tree(label, d, tree) -> str | None:
        bad = _realizes(tree, d)
        if bad is None and digests is not None and digests[label] != _sha256(tree.to_json()):
            bad = "construct JSON differs from the committed digest"
        return bad

    def check_flow(d):
        tree = construct.construct_max_tree(d)
        return tree, verify.check_theorem1(tree), verify.is_local_max(tree)

    def check_check(label, d, out) -> str | None:
        tree, report, local = out
        leaves = d.leaf_count
        if report.paths != leaves * (leaves - 1) // 2:
            return f"theorem-1 report covers {report.paths} paths for {leaves} leaves"
        if not local.is_local_max:
            return "constructed tree is not a 2-swap local maximum"
        return check_tree(label, d, tree)

    def check_anneal(d, budget, res) -> str | None:
        if res.moves != budget:
            return f"{res.moves} moves, expected {budget}"
        if res.best_so < res.start_so:
            return "best_so below start_so"
        if res.best_so > res.start_so * (1 + 1e-9):
            return "annealer beat the constructed tree"
        return _realizes(res.best_tree, d)

    ops = []
    for kind, label, d, seed, *extra in inputs.jobs:
        if kind == "construct":
            ops.append(Op(label, lambda d=d: construct.construct_max_tree(d),
                          lambda out, lb=label, d=d: check_tree(lb, d, out)))
        elif kind == "check":
            ops.append(Op(label, lambda d=d: check_flow(d),
                          lambda out, lb=label, d=d: check_check(lb, d, out)))
        else:
            budget = extra[0]
            ops.append(Op(label, lambda d=d, s=seed, b=budget: verify.anneal_search(d, b, s),
                          lambda out, d=d, b=budget: check_anneal(d, b, out)))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: str
    inputs: Callable
    ops: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "audit",
            "sweep.evaluate_sequence on every feasible sequence with 3 <= n <= 10, "
            "then sweep.write_csv, as `sombor sweep --max-n 10`; the oracle is 99% of it",
            "sweep.generate_degree_sequences(10): all 66 sequences, run in an "
            "order shuffled by random.Random(seed); the CSV keeps sweep order",
            audit_inputs,
            audit_ops,
        ),
        Workload(
            "search",
            "cli.run search at budget 1000 on every sequence with 13 <= n <= 14, "
            "just past the enumeration cap: the annealer on small trees",
            "sweep.generate_degree_sequences(14) filtered to n >= 13; one anneal "
            "seed per sequence from random.Random(seed), which also shuffles the order",
            search_inputs,
            search_ops,
        ),
        Workload(
            "large",
            "construct (m = 500), the check flow (m 10..18) and short anneals "
            "(n ~ 1k) far beyond exhaustive reach; the oracle is never called",
            "random.Random(seed): for each op's fixed m and degree sum, "
            "degrees uniform in the range of workloads.LARGE; jobs shuffled",
            large_inputs,
            large_ops,
        ),
    )
}
