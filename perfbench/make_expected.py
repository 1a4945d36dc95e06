#!/usr/bin/env python3
"""Regenerate expected.json from the program at the current commit.

    python3 perfbench/make_expected.py

Records the oracle's witness count for every `audit` sequence and the
SHA-256 of the construct JSON of every `large` construction at the default
seed.  Run it only on a commit whose outputs are trusted; the benchmark
checks later commits against these values.
"""

import hashlib
import json

import workloads
from run import setup

pkg, audit = setup("audit", workloads.DEFAULT_SEED, "full")
witnesses = {
    str(d): len(pkg.sweep.evaluate_sequence(d)[2].witnesses) for d in audit.seqs
}
_, large = setup("large", workloads.DEFAULT_SEED, "full")
digests = {
    label: hashlib.sha256(pkg.construct.construct_max_tree(d).to_json().encode()).hexdigest()
    for kind, label, d, *_ in large.jobs
    if kind in ("construct", "check")
}
workloads.EXPECTED_PATH.write_text(json.dumps({
    "audit_witnesses": witnesses,
    "large": {"seed": workloads.DEFAULT_SEED, "construct_sha256": digests},
}, indent=1) + "\n")
