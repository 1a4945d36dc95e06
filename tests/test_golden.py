"""Byte-identity gate: construct, check and sweep output pinned by SHA-256.

The digests were recorded from the program before its tree kernel (BFS,
edge-weight table, centers) was consolidated in graph.py, and the m = 2000
ones from the construction that rebuilt the tree on every merge; a change
that moves one byte of the constructed trees or of the sweep CSV fails here.
"""

import hashlib
import random

import pytest

from sombortree.cli import run
from sombortree.construct import construct_max_tree
from sombortree.graph import validate
from sombortree.sweep import generate_degree_sequences, sweep


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def test_construct_json_every_sequence_to_n16():
    seqs = [validate([])] + generate_degree_sequences(16)
    assert len(seqs) == 1 + 507
    text = "\n".join(construct_max_tree(d).to_json() for d in seqs)
    assert sha(text) == "92553332685320c90ec5a0fc8906f45b90c0ae98e98eb4eae1c016ee7c71a536"


# `sombor construct` stdout for the paper's example and the closed forms:
# stars (m = 1) and paths (all degrees 2) well past exhaustive reach.
CONSTRUCT_GOLDEN = {
    "5,5,5,4,3,3,2,2": "d636d86dbf1a05d78abb680d9462417700f75aa527ccac3b7ec04d66a8f7ae8c",
    "40": "a2c2bf24c02607aec524eb25ce8f59439ded27e33f2df9bcb32c4030aa6af668",
    "1000": "ed412d5680caaa878bbbaaf7ceb1e4ae8ae7d27a5366f3412903d39c63116385",
    ",".join(["2"] * 40): "9fddc5b900c1cdc3ac00ae62083b853e7f0f02f62e58ba46dbef7d7c3c62e4fe",
    ",".join(["2"] * 1000): "fcff79940e1b4969af144c6f74965f97f96dcb306cf64e3f01c4fda3e8791322",
}


@pytest.mark.parametrize(
    "degrees", list(CONSTRUCT_GOLDEN), ids=["paper", "star40", "star1000", "path40", "path1000"]
)
def test_construct_cli_output(degrees, capsys):
    assert run(["construct", "--degrees", degrees]) == 0
    assert sha(capsys.readouterr().out) == CONSTRUCT_GOLDEN[degrees]


def seeded_degrees(seed, m, hi):
    rng = random.Random(seed)
    return validate([rng.randint(2, hi) for _ in range(m)])


# Seeded random lists at m = 2000, far past the one-merge-at-a-time
# construction's reach in the tests above (n = 6,064 and 39,270);
# tests/test_console.py pins `sombor construct` on the degrees 2..40 one,
# less its final newline, too.
CONSTRUCT_M2000 = {
    "m2000_deg2to6": (2000, 6, "d0097eb1c1decf64460a1bb240a30396488a3f88e8d5f433d94089ee25937d15"),
    "m2000_deg2to40": (2001, 40, "b0af4c63d39625689ffd55dbcb65114488ab229ef48b8c54809285d7be17e383"),
}


@pytest.mark.parametrize("seed, hi, digest", list(CONSTRUCT_M2000.values()), ids=list(CONSTRUCT_M2000))
def test_construct_json_m2000(seed, hi, digest):
    d = seeded_degrees(seed, 2000, hi)
    assert sha(construct_max_tree(d).to_json()) == digest


def test_construct_realizes_m20000():
    # no timer: a construction quadratic in m would take many minutes here;
    # the digest was recorded from the construction that kept its leaves in
    # one heap and sorted every vertex's children before the relabel
    d = seeded_degrees(20000, 20000, 6)
    t = construct_max_tree(d)
    assert t.n == d.vertex_count
    assert t.internal_degrees() == d.degrees
    assert len(t.leaves()) == d.leaf_count
    assert sha(t.to_json()) == "c9e9a42b2ca1b523cfdca8b3228a1bd0e49b5839b52e5a750b87c1f375b0cd9a"


def test_construct_json_many_distinct_degrees():
    # 299 distinct degrees and 448 chains, so the smallest degree with a
    # leaf waiting changes often; recorded from the same construction
    d = validate(list(range(2, 301)) + [2] * 600)
    assert sha(construct_max_tree(d).to_json()) == (
        "3c9a8588f9c344107cbd8656790632fce386fc10dcbf5a51419e40c6cba3bc52"
    )


# The sweep CSV for n <= 10 (tests/test_console.py pins `sombor sweep
# --max-n 10` too).
SWEEP_CSV_N10 = "7eec03ab6cbb8dcd3f21ecf9b53172332ac1918772be5adafa2c4bbe3bc8d062"


def test_sweep_csv_n10(tmp_path):
    out = tmp_path / "sweep.csv"
    sweep(10, out_csv=out)
    assert sha(out.read_bytes()) == SWEEP_CSV_N10


# The sweep CSV for n <= 12 (138 sequences), recorded from the oracle that
# walked every permutation of the degrees on each skeleton, half of which
# the placement walk skips at n = 12 (tests/test_console.py pins it too).
SWEEP_CSV_N12 = "5b5f4faf53eb0ede538b14960a814734119d619b7c8fbb150870fb93123684b7"


def test_sweep_csv_n12(tmp_path):
    out = tmp_path / "sweep.csv"
    assert len(sweep(12, out_csv=out)) == 138
    assert sha(out.read_bytes()) == SWEEP_CSV_N12


# `sombor check` stdout (Theorem-1 counts and violating records, 2-swap
# report) recorded before the path check counted inequalities without
# building a record for each one.
def check_stdout(degrees, capsys) -> str:
    assert run(["check", "--degrees", ",".join(map(str, degrees))]) == 0
    return capsys.readouterr().out


def test_check_cli_output_every_sequence_to_n14(capsys):
    seqs = generate_degree_sequences(14)
    assert len(seqs) == 271
    text = "".join(check_stdout(d.degrees, capsys) for d in seqs)
    assert sha(text) == "538d6fcf8e8ac2036c1d5064fcea93901243ae447d663fbb1a41ca833207555c"

