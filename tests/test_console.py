"""The console contract: one row per pinned command, each run in a subprocess.

Rows run ``python -m sombortree.cli ...`` (the worked example as its script)
with PYTHONPATH set to the directory the imported ``sombortree`` came from:
``src/`` under the Tier-1 command, an installed package when pytest runs
this file from outside the checkout with no PYTHONPATH.
"""

import hashlib
import os
import random
import signal
import subprocess
import sys
import threading
from pathlib import Path
from typing import NamedTuple

import pytest

import sombortree
from test_golden import CONSTRUCT_GOLDEN, CONSTRUCT_M2000, SWEEP_CSV_N10, SWEEP_CSV_N12

ENV = dict(os.environ, PYTHONPATH=str(Path(sombortree.__file__).resolve().parents[1]))
WORKED_EXAMPLE = str(Path(__file__).resolve().parents[1] / "scripts" / "worked_example.py")


def sombor(*argv):
    return ("-m", "sombortree.cli", *argv)


def draw(seed, m, lo, hi):
    """m degrees drawn by random.Random(seed) from lo..hi, unsorted."""
    rng = random.Random(seed)
    return ",".join(str(rng.randint(lo, hi)) for _ in range(m))


PAPER = "5,5,5,4,3,3,2,2"
M150 = draw(7, 150, 3, 5)  # where the class-pair and degree-pattern skips do the most
M2000 = draw(CONSTRUCT_M2000["m2000_deg2to40"][0], 2000, 2, 40)
M2000_SHA256 = CONSTRUCT_M2000["m2000_deg2to40"][2]  # of the JSON less its newline
# 199,999 bytes: one argument holds at most 131,072, so only stdin takes them
M100K = draw(11, 100_000, 3, 5)
M100K_SHA256 = "f16db22afb8aed8bc63b6b27fc99d85f5661684e460b46e4338f3b0bfeb98ed2"

# the paper's sequence through both checkers: 105 paths, 717 inequalities
# checked, 80 violated with one record each, and a 2-swap local maximum
CHECK_SHA256 = "1699e2f9f11ce8fa863f28931ded37c15a5c028824b8b86bde8354c77b59a5e4"
# M150: 45,150 paths and 1,409,010 inequalities, 22,216 violated
CHECK_M150 = "0cf48995a9406a14362bc8fa13962e33ee507499f9c94adb2380a9430e554dbe"
# the stepwise construction of the paper's sequence with every intermediate
# SO, the final tree and both checks
WORKED_EXAMPLE_SHA256 = "84284d8ba072bdf3ea7e83d2488dc04ec32560610faf51f7974ec0661e40969b"

# the seeded annealer's output, bit for bit
SEARCH_ARGV = ["search", "--degrees", PAPER, "--budget", "3000", "--seed", "11"]
SEARCH_OUT = (
    '{"degrees": [5, 5, 5, 4, 3, 3, 2, 2], "constructed_so": 106.61257578712797, '
    '"best_so": 106.61257578712797, "improved": false, "moves": 3000, '
    '"accepted": 1775, "seed": 11, "budget": 3000}\n'
)
# the star has no two vertex-disjoint edges, so no 2-swap: the search hands
# back the constructed tree with no move
SEARCH_STAR_OUT = (
    '{"degrees": [7], "constructed_so": 49.49747468305833, '
    '"best_so": 49.49747468305833, "improved": false, "moves": 0, '
    '"accepted": 0, "seed": 5, "budget": 300}\n'
)
# the oracle's three tied witnesses, read off skeleton placements
VERIFY_ARGV = ["verify", "--degrees", "3,3,3,3,2"]
VERIFY_OUT = (
    '{"degrees": [3, 3, 3, 3, 2], "n": 11, "m": 5, "constructed_so": 34.67004988617683, '
    '"oracle_so": 34.67004988617683, "gap": 0.0, "optimal": true, "capped": false, '
    '"enumerated": 22680, "witnesses": ["(((()())(()()))(()()))", '
    '"(((()())())((()())()))", "(((()())())((()()))())"]}\n'
)

CLOSED = "error: stdout closed before the output ended"
READ_BACK = (
    "import sys; from sombortree.sweep import read_csv; rows = read_csv(sys.argv[1]); "
    "print(len(rows), all(r.optimal for r in rows))"
)
DEEP_JSON = "import sys; open(sys.argv[1], 'w').write('[' * 100000 + ']' * 100000)"
SWEEP_N10 = sombor("sweep", "--max-n", "10", "--out", "{tmp}/s.csv")
# the sweep CSVs at n <= 16 and at n <= 14 under a cap of 40 placements
SWEEP_CSV_N16 = "f20a7391200e0fa17dff01d904a7376d0d56aeedd92ee648243b44efe938eb46"
SWEEP_CSV_N14_CAP40 = "8eb4c97e4921b228189ae7afa83393fd8656d8c7b5ceaa82283d4bf7bfe4394c"


#: Seconds a row's child may run before it is killed and the row fails;
#: the slowest row, sweep_n16, takes under a second.
TIMEOUT = 60


class Row(NamedTuple):
    """``python *cmd`` after the commands ``before``, which must exit 0;
    ``{tmp}`` in an argument is the row's temp dir.  The checked bytes are
    cmd's stdout, or the file ``out`` in ``{tmp}``."""

    cmd: tuple
    code: int = 0
    text: str | None = None  # the checked bytes, exactly
    sha256: str | None = None  # of the checked bytes less the suffix `strip`
    strip: bytes = b""
    out: str | None = None
    err: str = ""  # stderr is one line starting with this; "": stderr is empty
    usage: bool = False  # err's line is followed by the parser's usage line
    read: int | None = None  # bytes read before stdout is closed; 0: closed at start
    before: tuple = ()
    stdin: bytes | None = None  # fed to cmd unless `read` is set; None: inherited


ROWS = {
    "check_paper": Row(sombor("check", "--degrees", PAPER), sha256=CHECK_SHA256),
    "check_m150": Row(sombor("check", "--degrees", M150), sha256=CHECK_M150),
    # the reader takes one byte of 3.7 MB and leaves, so the report's write fails
    "check_m150_closed": Row(sombor("check", "--degrees", M150), 1, "{", err=CLOSED, read=1),
    # the short verify line fails only when the buffered stdout is flushed
    "verify_closed": Row(sombor(*VERIFY_ARGV), 1, "", err=CLOSED, read=0),
    "construct_paper": Row(sombor("construct", "--degrees", PAPER), sha256=CONSTRUCT_GOLDEN[PAPER]),
    "construct_m2000": Row(
        sombor("construct", "--degrees", M2000), sha256=M2000_SHA256, strip=b"\n"
    ),
    "construct_m100k_stdin": Row(
        sombor("construct", "--degrees", "-"), sha256=M100K_SHA256, stdin=f"{M100K}\n".encode()
    ),
    "construct_m2000_out": Row(
        sombor("construct", "--degrees", M2000, "--out", "{tmp}/c.json"),
        sha256=M2000_SHA256, strip=b"\n", out="c.json",
    ),
    "worked_example": Row((WORKED_EXAMPLE,), sha256=WORKED_EXAMPLE_SHA256),
    "search_paper": Row(sombor(*SEARCH_ARGV), text=SEARCH_OUT),
    "search_star": Row(
        sombor("search", "--degrees", "7", "--budget", "300", "--seed", "5"), text=SEARCH_STAR_OUT
    ),
    "verify_33332": Row(sombor(*VERIFY_ARGV), text=VERIFY_OUT),
    # 3,2,2 has three skeleton placements: a cap of 2 is inconclusive, 3 exact
    "verify_322_cap2": Row(sombor("verify", "--degrees", "3,2,2", "--cap", "2"), 2),
    "verify_322_cap3": Row(sombor("verify", "--degrees", "3,2,2", "--cap", "3")),
    "sweep_n10": Row(SWEEP_N10, sha256=SWEEP_CSV_N10, out="s.csv"),
    "sweep_n10_read_back": Row(
        ("-c", READ_BACK, "{tmp}/s.csv"), text="66 True\n", before=(SWEEP_N10,)
    ),
    "sweep_n12": Row(
        sombor("sweep", "--max-n", "12", "--out", "{tmp}/s.csv"), sha256=SWEEP_CSV_N12, out="s.csv"
    ),
    # 507 exact rows; within one process most calls read an m walked before
    "sweep_n16": Row(
        sombor("sweep", "--max-n", "16", "--out", "{tmp}/s.csv"), sha256=SWEEP_CSV_N16, out="s.csv"
    ),
    # 58 of 271 rows capped, so exit 2: capped and exact scans share each m
    "sweep_n14_cap40": Row(
        sombor("sweep", "--max-n", "14", "--cap", "40", "--out", "{tmp}/s.csv"), 2,
        sha256=SWEEP_CSV_N14_CAP40, out="s.csv",
    ),
    # criterion 2's SO at .12g
    "score_paper": Row(
        sombor("score", "--input", "{tmp}/t.json"), text="106.612575787\n",
        before=(sombor("construct", "--degrees", PAPER, "--out", "{tmp}/t.json"),),
    ),
    # input errors exit 1 with one line, where a traceback would exit 1 too
    "score_deep_json": Row(
        sombor("score", "--input", "{tmp}/t.json"), 1, err="error: cannot read tree from ",
        before=(("-c", DEEP_JSON, "{tmp}/t.json"),),
    ),
    "construct_past_maxsize": Row(
        sombor("construct", "--degrees", "99999999999999999999"), 1, err="error: input too large: "
    ),
    # a usage error names the bad entry and never echoes the 200,002-byte list
    "construct_m100k_stdin_malformed": Row(
        sombor("construct", "--degrees", "-"), 1, "", stdin=f"{M100K},x\n".encode(),
        err="error: malformed degree list: entry 100001 is 'x'\n", usage=True,
    ),
    # a byte that is not utf-8: under strict decoding the read fails, else
    # the escaped byte is the bad entry; one error line either way
    "construct_stdin_not_utf8": Row(
        sombor("construct", "--degrees", "-"), 1, "", stdin=b"3,\xff2\n",
        err="error: malformed degree list: ", usage=True,
    ),
}


def run_python(cmd, read=None, stdin=None):
    """(exit code, stdout, stderr) of ``python *cmd``, with stdin fed to it
    when all of stdout is read.  A child still running after TIMEOUT seconds
    is killed, and subprocess.TimeoutExpired fails the row."""
    argv = [sys.executable, *cmd]
    if read is None:
        proc = subprocess.run(argv, input=stdin, capture_output=True, env=ENV, timeout=TIMEOUT)
        return proc.returncode, proc.stdout, proc.stderr
    r, w = os.pipe()
    if not read:
        os.close(r)
    with subprocess.Popen(argv, stdout=w, stderr=subprocess.PIPE, env=ENV) as proc:
        os.close(w)
        timer = threading.Timer(TIMEOUT, proc.kill)  # ends both reads below
        timer.start()
        out = os.read(r, read) if read else b""
        if read:
            os.close(r)
        err = proc.stderr.read()
        code = proc.wait()
        timer.cancel()
    if code == -signal.SIGKILL:
        raise subprocess.TimeoutExpired(argv, TIMEOUT, out, err)
    return code, out, err


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS.keys())
def test_console(row, tmp_path):
    *before, cmd = ([a.replace("{tmp}", str(tmp_path)) for a in c] for c in (*row.before, row.cmd))
    for c in before:
        assert run_python(c)[0] == 0
    code, out, err = run_python(cmd, row.read, row.stdin)
    assert code == row.code, err
    if row.out:
        out = (tmp_path / row.out).read_bytes()
    if row.text is not None:
        assert out.decode() == row.text
    if row.sha256 is not None:
        assert out.endswith(row.strip)
        assert hashlib.sha256(out[: len(out) - len(row.strip)]).hexdigest() == row.sha256
    if row.err:
        assert err.count(b"\n") == 1 + row.usage and err.startswith(row.err.encode()), err
        if row.usage:
            assert err.split(b"\n")[1].startswith(b"usage: sombor "), err
    else:
        assert err == b""
