import json
import math

import pytest

from sombortree.cli import run
from sombortree.graph import Tree, sombor_index
from sombortree.sweep import read_csv


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
    assert run(["verify", "--degrees", "3,2,2", "--cap", "5"]) == 2
    assert json.loads(capsys.readouterr().out)["capped"] is True


def test_verify_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SOMBOR_CAP", "5")
    assert run(["verify", "--degrees", "3,2,2"]) == 2
    monkeypatch.setenv("SOMBOR_CAP", "junk")
    assert run(["verify", "--degrees", "3,2,2"]) == 1


def test_verify_workers(capsys):
    assert run(["verify", "--degrees", "3,2,2", "--workers", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["optimal"] is True and payload["enumerated"] == 12


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
    monkeypatch.setenv("SOMBOR_CAP", "0")
    argv = {
        "verify": ["verify", "--degrees", "3,2,2"],
        "sweep": ["sweep", "--max-n", "5", "--out", str(tmp_path / "r.csv")],
    }[command]
    assert run(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and "SOMBOR_CAP must be at least 1" in out.err
    assert not (tmp_path / "r.csv").exists()


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
    ],
)
def test_score_malformed_json_exit_1(capsys, tmp_path, text):
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(text)
    assert run(["score", "--input", str(tree_file)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


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


def test_search_confirms_constructor(capsys):
    assert run(["search", "--degrees", "3,2,2", "--budget", "200", "--seed", "42"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["improved"] is False
    assert payload["best_so"] >= payload["constructed_so"] - 1e-12


def test_search_matches_recorded_output(capsys):
    # pinned bit for bit: the seeded annealer's output must not move
    argv = ["search", "--degrees", "5,5,5,4,3,3,2,2", "--budget", "3000", "--seed", "11"]
    assert run(argv) == 0
    assert capsys.readouterr().out == (
        '{"degrees": [5, 5, 5, 4, 3, 3, 2, 2], "constructed_so": 106.61257578712797, '
        '"best_so": 106.61257578712797, "improved": false, "moves": 3000, '
        '"accepted": 1775, "seed": 11, "budget": 3000}\n'
    )


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
