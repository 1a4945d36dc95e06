import json
import math

import pytest

import sombortree.sweep
from sombortree import cli
from sombortree.cli import run
from sombortree.construct import construct_max_tree
from sombortree.graph import Tree, canonical_form, sombor_index, validate
from sombortree.sweep import read_csv

# not the maximum for 3,2,2: both 2s hang off the 3
SPIDER_322 = Tree.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5)])


def test_construct_edges_format(capsys):
    assert run(["construct", "--degrees", "3,2,2", "--format", "edges"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5  # 6 vertices
    edges = [tuple(map(int, ln.split())) for ln in lines]
    t = Tree.from_edges(6, edges)
    assert t.internal_degrees() == (3, 2, 2)


def test_construct_json_and_dot(capsys, tmp_path):
    assert run(["construct", "--degrees", "3,2,2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 6 and len(data["edges"]) == 5
    out = tmp_path / "t.dot"
    assert run(["construct", "--degrees", "3,2,2", "--format", "dot", "--out", str(out)]) == 0
    assert out.read_text().startswith("graph tree {")


def test_construct_accepts_unsorted_degrees(capsys):
    assert run(["verify", "--degrees", "2,3,2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degrees"] == [3, 2, 2]


def test_score_roundtrip(capsys, tmp_path):
    tree_file = tmp_path / "tree.json"
    assert run(["construct", "--degrees", "2,2", "--out", str(tree_file)]) == 0
    capsys.readouterr()
    assert run(["score", "--input", str(tree_file)]) == 0
    value = float(capsys.readouterr().out)
    assert value == pytest.approx(2 * math.sqrt(5) + math.sqrt(8), rel=1e-12)


def test_score_missing_file(capsys, tmp_path):
    assert run(["score", "--input", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_verify_322(capsys):
    assert run(["verify", "--degrees", "3,2,2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["optimal"] is True
    assert payload["constructed_so"] == pytest.approx(14.994601698046727, rel=1e-12)
    assert payload["oracle_so"] == pytest.approx(payload["constructed_so"], rel=1e-9)
    assert payload["enumerated"] == 12


def test_verify_capped_exits_2(capsys):
    # 3,2,2 has 3 skeleton placements; the cap stops the scan after 2
    assert run(["verify", "--degrees", "3,2,2", "--cap", "2"]) == 2
    assert json.loads(capsys.readouterr().out)["capped"] is True


def test_verify_cap_env_override(capsys, monkeypatch):
    # SOMBOR_CAP no longer overrides anything: the cap comes from --cap alone
    monkeypatch.setenv("SOMBOR_CAP", "2")
    assert run(["verify", "--degrees", "3,2,2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["capped"] is False and payload["enumerated"] == 12


def test_verify_workers(capsys):
    # the option is gone: the oracle runs in one process
    assert run(["verify", "--degrees", "3,2,2", "--workers", "2"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    error, usage = out.err.splitlines()
    assert error == "error: unrecognized arguments: --workers 2"
    assert usage.startswith("usage: sombor")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--degrees", "3,2,2", "--cap", "-5"],
        ["verify", "--degrees", "3,2,2", "--cap", "0"],
        ["sweep", "--max-n", "5", "--cap", "0"],
    ],
)
def test_cap_below_one_exit_1(capsys, tmp_path, argv):
    out_csv = tmp_path / "r.csv"
    if argv[0] == "sweep":
        argv = argv + ["--out", str(out_csv)]
    assert run(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and "--cap must be at least 1" in out.err
    assert not out_csv.exists()


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_cap_env_below_one_exit_1(capsys, monkeypatch, tmp_path, command):
    # SOMBOR_CAP=0 neither trips the range check nor hides --cap's
    monkeypatch.setenv("SOMBOR_CAP", "0")
    out_csv = tmp_path / "r.csv"
    argv = {
        "verify": ["verify", "--degrees", "3,2,2"],
        "sweep": ["sweep", "--max-n", "5", "--out", str(out_csv)],
    }[command]
    assert run(argv + ["--cap", "0"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and "--cap must be at least 1" in out.err
    assert not out_csv.exists()
    assert run(argv) == 0
    assert not json.loads(capsys.readouterr().out)["capped"]


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 3, "edges": 5}',
        '{"n": "x", "edges": []}',
        "[1, 2]",
        '{"n": 3, "edges": [[0, 1], [1, "a"]]}',
        '{"n": 3, "edges": [[0, 1], [1, 2, 0]]}',
        '{"n": 3.5, "edges": []}',
        '{"edges": [[0, 1]]}',
        # past the recursion limit of json.loads: one line, no traceback
        pytest.param("[" * 200000 + "]" * 200000, id="deep_nesting"),
    ],
)
def test_score_malformed_json_exit_1(capsys, tmp_path, text):
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(text)
    assert run(["score", "--input", str(tree_file)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


@pytest.mark.parametrize("target", ["missing/t.json", "."], ids=["missing_dir", "directory"])
def test_construct_out_unwritable_exit_1(capsys, tmp_path, target):
    out = tmp_path / target
    assert run(["construct", "--degrees", "3,2,2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


def test_check_reports(capsys):
    assert run(["check", "--degrees", "5,5,5,4,3,3,2,2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["local_max"]["is_local_max"] is True
    assert payload["theorem1"]["violations"] > 0
    assert payload["theorem1"]["checked"] > 0


def test_sweep_csv(capsys, tmp_path):
    out = tmp_path / "report.csv"
    assert run(["sweep", "--max-n", "6", "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"] == 11 and payload["non_optimal"] == 0
    assert len(read_csv(out)) == 11


def test_verify_without_cap_is_exact_past_ten_million_labeled_trees(capsys):
    assert run(["verify", "--degrees", ",".join(["2"] * 11)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["capped"] is False and payload["optimal"] is True
    assert payload["enumerated"] == 39916800
    path = Tree.from_edges(13, [(i, i + 1) for i in range(12)])
    assert payload["witnesses"] == [canonical_form(path)]


def test_sweep_without_cap_is_exact_at_n13(capsys, tmp_path):
    out = tmp_path / "report.csv"
    assert run(["sweep", "--max-n", "13", "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"rows": 194, "non_optimal": 0, "capped": 0, "csv": str(out)}
    rows = read_csv(out)
    assert len(rows) == 194 and not any(r.capped for r in rows)


def test_sweep_max_n_below_3_exit_1(capsys, tmp_path):
    out = tmp_path / "report.csv"
    assert run(["sweep", "--max-n", "2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists()


def test_sweep_out_missing_dir_exit_1(capsys, tmp_path):
    out = tmp_path / "missing" / "report.csv"
    assert run(["sweep", "--max-n", "5", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_sweep_capped_exits_2(capsys, tmp_path):
    out = tmp_path / "report.csv"
    # every sequence with n <= 6 has at most 3 skeleton placements
    assert run(["sweep", "--max-n", "6", "--cap", "2", "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["capped"] > 0 and payload["non_optimal"] == 0
    assert sum(r.capped for r in read_csv(out)) == payload["capped"]


def test_sweep_counterexample_exits_3_with_witnesses(capsys, monkeypatch, tmp_path):
    def planted(d):
        return SPIDER_322 if d.degrees == (3, 2, 2) else construct_max_tree(d)

    monkeypatch.setattr(sombortree.sweep, "construct_max_tree", planted)
    wdir = tmp_path / "witnesses"
    argv = ["sweep", "--max-n", "6", "--out", str(tmp_path / "r.csv"),
            "--witness-dir", str(wdir)]
    assert run(argv) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["non_optimal"] == 1 and payload["capped"] == 0
    names = sorted(f.name for f in wdir.iterdir())
    assert names == ["witness_3-2-2_constructed.json", "witness_3-2-2_oracle.json"]
    constructed, oracle = (Tree.from_json((wdir / f).read_text()) for f in names)
    assert canonical_form(constructed) == canonical_form(SPIDER_322)
    best = construct_max_tree(validate([3, 2, 2]))
    assert canonical_form(oracle) == canonical_form(best)


def test_search_confirms_constructor(capsys):
    assert run(["search", "--degrees", "3,2,2", "--budget", "200", "--seed", "42"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["improved"] is False
    assert payload["best_so"] >= payload["constructed_so"] - 1e-12


def test_search_negative_budget_exit_1(capsys):
    assert run(["search", "--degrees", "3,2,2", "--budget", "-5", "--seed", "1"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: --budget must be at least 0, got -5\n"


def test_search_budget_zero(capsys):
    assert run(["search", "--degrees", "3,2,2", "--budget", "0", "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["budget"] == 0 and payload["moves"] == 0
    assert payload["best_so"] == payload["constructed_so"]


# pinned bit for bit: the seeded annealer's output must not move (CI runs
# the same line through the installed console script)
SEARCH_ARGV = ["search", "--degrees", "5,5,5,4,3,3,2,2", "--budget", "3000", "--seed", "11"]
SEARCH_OUT = (
    '{"degrees": [5, 5, 5, 4, 3, 3, 2, 2], "constructed_so": 106.61257578712797, '
    '"best_so": 106.61257578712797, "improved": false, "moves": 3000, '
    '"accepted": 1775, "seed": 11, "budget": 3000}\n'
)


def test_search_matches_recorded_output(capsys):
    assert run(SEARCH_ARGV) == 0
    assert capsys.readouterr().out == SEARCH_OUT


# pinned bit for bit: the paper's sequence through both checkers, one
# violating record per line (CI compares the installed console script too)
CHECK_ARGV = ["check", "--degrees", "5,5,5,4,3,3,2,2"]
CHECK_OUT = (
    '{"degrees": [5, 5, 5, 4, 3, 3, 2, 2], "theorem1": {"paths": 105, "checked": 717, "violations": 80, "records": [{"path": [4, 1, 0, 3, 11, 13, 15], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [4, 1, 0, 3, 11, 13, 16], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [4, 1, 0, 3, 11, 13, 17], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [4, 1, 0, 3, 11, 13, 18], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [4, 1, 0, 3, 12, 14, 19], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [4, 1, 0, 3, 12, 14, 20], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [4, 1, 0, 3, 12, 14, 21], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [4, 1, 0, 3, 12, 14, 22], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [5, 1, 0, 3, 11, 13, 15], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [5, 1, 0, 3, 11, 13, 16], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [5, 1, 0, 3, 11, 13, 17], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [5, 1, 0, 3, 11, 13, 18], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [5, 1, 0, 3, 12, 14, 19], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [5, 1, 0, 3, 12, 14, 20], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [5, 1, 0, 3, 12, 14, 21], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [5, 1, 0, 3, 12, 14, 22], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [6, 1, 0, 3, 11, 13, 15], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [6, 1, 0, 3, 11, 13, 16], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [6, 1, 0, 3, 11, 13, 17], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [6, 1, 0, 3, 11, 13, 18], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [6, 1, 0, 3, 12, 14, 19], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [6, 1, 0, 3, 12, 14, 20], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [6, 1, 0, 3, 12, 14, 21], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [6, 1, 0, 3, 12, 14, 22], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [7, 1, 0, 3, 11, 13, 15], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [7, 1, 0, 3, 11, 13, 16], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [7, 1, 0, 3, 11, 13, 17], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [7, 1, 0, 3, 11, 13, 18], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [7, 1, 0, 3, 12, 14, 19], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [7, 1, 0, 3, 12, 14, 20], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [7, 1, 0, 3, 12, 14, 21], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [7, 1, 0, 3, 12, 14, 22], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [8, 2, 0, 3, 11, 13, 15], "i": 1, "parity": "odd", "inequality": "d(v1) >= d(v5)", "lhs_degree": 4, "rhs_degree": 5, "holds": false}, '
    '{"path": [8, 2, 0, 3, 11, 13, 15], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [8, 2, 0, 3, 11, 13, 16], "i": 1, "parity": "odd", "inequality": "d(v1) >= d(v5)", "lhs_degree": 4, "rhs_degree": 5, "holds": false}, '
    '{"path": [8, 2, 0, 3, 11, 13, 16], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [8, 2, 0, 3, 11, 13, 17], "i": 1, "parity": "odd", "inequality": "d(v1) >= d(v5)", "lhs_degree": 4, "rhs_degree": 5, "holds": false}, '
    '{"path": [8, 2, 0, 3, 11, 13, 17], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [8, 2, 0, 3, 11, 13, 18], "i": 1, "parity": "odd", "inequality": "d(v1) >= d(v5)", "lhs_degree": 4, "rhs_degree": 5, "holds": false}, '
    '{"path": [8, 2, 0, 3, 11, 13, 18], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [8, 2, 0, 3, 12, 14, 19], "i": 1, "parity": "odd", "inequality": "d(v1) >= d(v5)", "lhs_degree": 4, "rhs_degree": 5, "holds": false}, '
    '{"path": [8, 2, 0, 3, 12, 14, 19], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [8, 2, 0, 3, 12, 14, 20], "i": 1, "parity": "odd", "inequality": "d(v1) >= d(v5)", "lhs_degree": 4, "rhs_degree": 5, "holds": false}, '
    '{"path": [8, 2, 0, 3, 12, 14, 20], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [8, 2, 0, 3, 12, 14, 21], "i": 1, "parity": "odd", "inequality": "d(v1) >= d(v5)", "lhs_degree": 4, "rhs_degree": 5, "holds": false}, '
    '{"path": [8, 2, 0, 3, 12, 14, 21], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [8, 2, 0, 3, 12, 14, 22], "i": 1, "parity": "odd", "inequality": "d(v1) >= d(v5)", "lhs_degree": 4, "rhs_degree": 5, "holds": false}, '
    '{"path": [8, 2, 0, 3, 12, 14, 22], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [9, 2, 0, 3, 11, 13, 15], "i": 1, "parity": "odd", "inequality": "d(v1) >= d(v5)", "lhs_degree": 4, "rhs_degree": 5, "holds": false}, '
    '{"path": [9, 2, 0, 3, 11, 13, 15], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [9, 2, 0, 3, 11, 13, 16], "i": 1, "parity": "odd", "inequality": "d(v1) >= d(v5)", "lhs_degree": 4, "rhs_degree": 5, "holds": false}, '
    '{"path": [9, 2, 0, 3, 11, 13, 16], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [9, 2, 0, 3, 11, 13, 17], "i": 1, "parity": "odd", "inequality": "d(v1) >= d(v5)", "lhs_degree": 4, "rhs_degree": 5, "holds": false}, '
    '{"path": [9, 2, 0, 3, 11, 13, 17], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [9, 2, 0, 3, 11, 13, 18], "i": 1, "parity": "odd", "inequality": "d(v1) >= d(v5)", "lhs_degree": 4, "rhs_degree": 5, "holds": false}, '
    '{"path": [9, 2, 0, 3, 11, 13, 18], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [9, 2, 0, 3, 12, 14, 19], "i": 1, "parity": "odd", "inequality": "d(v1) >= d(v5)", "lhs_degree": 4, "rhs_degree": 5, "holds": false}, '
    '{"path": [9, 2, 0, 3, 12, 14, 19], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [9, 2, 0, 3, 12, 14, 20], "i": 1, "parity": "odd", "inequality": "d(v1) >= d(v5)", "lhs_degree": 4, "rhs_degree": 5, "holds": false}, '
    '{"path": [9, 2, 0, 3, 12, 14, 20], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [9, 2, 0, 3, 12, 14, 21], "i": 1, "parity": "odd", "inequality": "d(v1) >= d(v5)", "lhs_degree": 4, "rhs_degree": 5, "holds": false}, '
    '{"path": [9, 2, 0, 3, 12, 14, 21], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [9, 2, 0, 3, 12, 14, 22], "i": 1, "parity": "odd", "inequality": "d(v1) >= d(v5)", "lhs_degree": 4, "rhs_degree": 5, "holds": false}, '
    '{"path": [9, 2, 0, 3, 12, 14, 22], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [10, 2, 0, 3, 11, 13, 15], "i": 1, "parity": "odd", "inequality": "d(v1) >= d(v5)", "lhs_degree": 4, "rhs_degree": 5, "holds": false}, '
    '{"path": [10, 2, 0, 3, 11, 13, 15], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [10, 2, 0, 3, 11, 13, 16], "i": 1, "parity": "odd", "inequality": "d(v1) >= d(v5)", "lhs_degree": 4, "rhs_degree": 5, "holds": false}, '
    '{"path": [10, 2, 0, 3, 11, 13, 16], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [10, 2, 0, 3, 11, 13, 17], "i": 1, "parity": "odd", "inequality": "d(v1) >= d(v5)", "lhs_degree": 4, "rhs_degree": 5, "holds": false}, '
    '{"path": [10, 2, 0, 3, 11, 13, 17], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [10, 2, 0, 3, 11, 13, 18], "i": 1, "parity": "odd", "inequality": "d(v1) >= d(v5)", "lhs_degree": 4, "rhs_degree": 5, "holds": false}, '
    '{"path": [10, 2, 0, 3, 11, 13, 18], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [10, 2, 0, 3, 12, 14, 19], "i": 1, "parity": "odd", "inequality": "d(v1) >= d(v5)", "lhs_degree": 4, "rhs_degree": 5, "holds": false}, '
    '{"path": [10, 2, 0, 3, 12, 14, 19], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [10, 2, 0, 3, 12, 14, 20], "i": 1, "parity": "odd", "inequality": "d(v1) >= d(v5)", "lhs_degree": 4, "rhs_degree": 5, "holds": false}, '
    '{"path": [10, 2, 0, 3, 12, 14, 20], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [10, 2, 0, 3, 12, 14, 21], "i": 1, "parity": "odd", "inequality": "d(v1) >= d(v5)", "lhs_degree": 4, "rhs_degree": 5, "holds": false}, '
    '{"path": [10, 2, 0, 3, 12, 14, 21], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}, '
    '{"path": [10, 2, 0, 3, 12, 14, 22], "i": 1, "parity": "odd", "inequality": "d(v1) >= d(v5)", "lhs_degree": 4, "rhs_degree": 5, "holds": false}, '
    '{"path": [10, 2, 0, 3, 12, 14, 22], "i": 2, "parity": "even", "inequality": "d(v2) <= d(v4)", "lhs_degree": 3, "rhs_degree": 2, "holds": false}]}, "local_max": {"is_local_max": true, "base_so": 106.61257578712797, "best_delta": 4.440892098500626e-16}}\n'
)


def test_check_matches_recorded_output(capsys):
    assert run(CHECK_ARGV) == 0
    assert capsys.readouterr().out == CHECK_OUT


def test_reused_parser_keeps_no_state(capsys, monkeypatch):
    # run() parses with one parser per process; each call must see what a
    # freshly built parser sees, whatever the calls before it passed
    steps = [
        (["construct", "--degrees", "3,2,2", "--bogus"], 1),
        (["construct", "--degrees", "3,2,2", "--format", "dot"], 0),
        (["construct", "--degrees", "3,2,2"], 0),  # json again
        (["verify", "--degrees", "3,2,2", "--cap", "2"], 2),
        (["verify", "--degrees", "3,2,2"], 0),  # uncapped again
        (SEARCH_ARGV, 0),
    ]

    def outcome(argv):
        code = run(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    reused = [outcome(argv) for argv, _ in steps]
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    for (argv, code), got in zip(steps, reused):
        assert got == outcome(argv)
        assert got[0] == code
    usage, dot, default, capped, uncapped, search = reused
    assert usage[2].splitlines()[-1].startswith("usage: sombor")
    assert dot[1].startswith("graph tree {")
    assert json.loads(default[1])["n"] == 6
    assert json.loads(capped[1])["capped"] is True
    assert json.loads(uncapped[1])["capped"] is False
    assert search[1] == SEARCH_OUT


def test_bad_degrees_exit_1(capsys):
    assert run(["construct", "--degrees", "3,x"]) == 1
    assert "usage" in capsys.readouterr().err


def test_leaf_degree_exit_1(capsys):
    assert run(["construct", "--degrees", "3,1"]) == 1


def test_unknown_flag_exit_1(capsys):
    assert run(["construct", "--degrees", "3,2,2", "--bogus"]) == 1


def test_outputs_byte_identical(capsys):
    run(["construct", "--degrees", "5,5,5,4,3,3,2,2"])
    first = capsys.readouterr().out
    run(["construct", "--degrees", "5,5,5,4,3,3,2,2"])
    assert capsys.readouterr().out == first
    run(["search", "--degrees", "3,3,2", "--budget", "500", "--seed", "9"])
    first = capsys.readouterr().out
    run(["search", "--degrees", "3,3,2", "--budget", "500", "--seed", "9"])
    assert capsys.readouterr().out == first


def test_construct_score_roundtrip_small_family(tmp_path, capsys):
    from sombortree.sweep import generate_degree_sequences
    from sombortree.construct import construct_max_tree

    for d in generate_degree_sequences(9):
        tree_file = tmp_path / "t.json"
        degrees = ",".join(str(x) for x in d.degrees)
        assert run(["construct", "--degrees", degrees, "--out", str(tree_file)]) == 0
        capsys.readouterr()
        assert run(["score", "--input", str(tree_file)]) == 0
        scored = capsys.readouterr().out.strip()
        # scores agree to the full 12 printed significant digits
        assert scored == f"{sombor_index(construct_max_tree(d)):.12g}"
