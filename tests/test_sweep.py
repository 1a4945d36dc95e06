import dataclasses
import math

import pytest

from sombortree import graph, verify
from sombortree.graph import validate
from sombortree.sweep import (
    CSV_HEADER,
    SweepRecord,
    evaluate_sequence,
    generate_degree_sequences,
    read_csv,
    sweep,
    write_csv,
)


def degrees_set(max_n, n):
    return {d.degrees for d in generate_degree_sequences(max_n) if d.vertex_count == n}


def test_generate_n4():
    assert degrees_set(4, 4) == {(3,), (2, 2)}


def test_generate_n5():
    assert degrees_set(5, 5) == {(4,), (3, 2), (2, 2, 2)}


def test_generate_n6():
    assert degrees_set(6, 6) == {(5,), (4, 2), (3, 3), (3, 2, 2), (2, 2, 2, 2)}


def test_generate_no_duplicates_and_feasible():
    seqs = generate_degree_sequences(10)
    assert len(seqs) == len({(d.vertex_count, d.degrees) for d in seqs})
    for d in seqs:
        assert validate(d.degrees).degrees == d.degrees


def test_sweep_row_count_n6(tmp_path):
    out = tmp_path / "report.csv"
    records = sweep(6, out_csv=out)
    assert len(records) == 11  # 1 + 2 + 3 + 5
    assert all(r.optimal for r in records)
    assert all(r.local_max for r in records)


def test_sweep_path_rows_match_closed_form():
    for m in (2, 3, 4):
        record, _, _ = evaluate_sequence(validate([2] * m))
        expected = 2 * math.sqrt(5) + (m - 1) * math.sqrt(8)
        assert record.constructed_so == pytest.approx(expected, rel=1e-12)
        assert record.oracle_so == pytest.approx(expected, rel=1e-12)


def test_csv_roundtrip(tmp_path):
    records = sweep(6)
    out = tmp_path / "report.csv"
    write_csv(records, out)
    text = out.read_text()
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    parsed = read_csv(out)
    assert len(parsed) == len(records)
    for a, b in zip(parsed, records):
        assert a.degrees == b.degrees
        assert (a.n, a.m, a.optimal, a.capped, a.local_max) == (
            b.n,
            b.m,
            b.optimal,
            b.capped,
            b.local_max,
        )
        assert a.constructed_so == pytest.approx(b.constructed_so, rel=1e-11)
        assert a.oracle_so == pytest.approx(b.oracle_so, rel=1e-11)
        assert a.theorem1_violations == b.theorem1_violations
        assert a.enumerated == b.enumerated


def test_capped_sweep_flags_rows(tmp_path):
    # every sequence with n <= 6 has at most 3 skeleton placements
    records = sweep(6, cap=2, out_csv=tmp_path / "r.csv")
    assert any(r.capped for r in records)
    # capped rows are inconclusive; they never produce witness dumps
    assert list(tmp_path.glob("witness_*")) == []


def test_record_gap_invariant():
    for d in generate_degree_sequences(7):
        record, _, _ = evaluate_sequence(d)
        assert record.gap >= -1e-9 * record.oracle_so
        if record.optimal:
            assert record.local_max


def test_enumerated_counts_labeled_trees_or_scored_placements():
    # 3,2,2 has 12 labeled trees on 3 skeleton placements: an exact row
    # counts the trees, a capped row the placements scored (the cap)
    d = validate([3, 2, 2])
    capped, _, _ = evaluate_sequence(d, cap=2)
    exact, _, _ = evaluate_sequence(d)
    assert (capped.capped, capped.enumerated) == (True, 2)
    assert (exact.capped, exact.enumerated) == (False, 12)


def write_lines(path, *rows):
    path.write_text("".join(row + "\n" for row in rows))
    return path


GOOD_ROW = '"3,2,2",6,3,22.9,22.9,0,true,false,true,0,12'


def test_read_csv_reads_a_good_row(tmp_path):
    [rec] = read_csv(write_lines(tmp_path / "r.csv", ",".join(CSV_HEADER), GOOD_ROW))
    assert (rec.degrees, rec.optimal, rec.capped, rec.enumerated) == ("3,2,2", True, False, 12)


@pytest.mark.parametrize(
    "row, why",
    [
        (GOOD_ROW + ",7", "12 cells, expected 11"),  # an extra cell
        (GOOD_ROW.rsplit(",", 1)[0], "10 cells, expected 11"),  # one cell short
        (GOOD_ROW.replace("true", "yes", 1), "'yes' is neither true nor false"),
        (GOOD_ROW.replace("true", "True", 1), "'True' is neither true nor false"),
    ],
    ids=["extra-cell", "short-row", "bool-yes", "bool-True"],
)
def test_read_csv_names_path_and_line_of_a_bad_row(tmp_path, row, why):
    path = write_lines(tmp_path / "r.csv", ",".join(CSV_HEADER), GOOD_ROW, row)
    with pytest.raises(ValueError) as info:
        read_csv(path)
    assert str(info.value).startswith(f"{path}, line 3: ")
    assert why in str(info.value)


def test_read_csv_rejects_an_empty_file(tmp_path):
    path = write_lines(tmp_path / "r.csv")
    with pytest.raises(ValueError, match=r"r\.csv, line 1: not the header"):
        read_csv(path)


def test_read_csv_names_path_and_line_of_an_oversized_cell(tmp_path):
    # past csv.field_size_limit (128 kB) the csv module raises csv.Error,
    # which is not a ValueError
    big = GOOD_ROW.replace("22.9", "2" * 200_000, 1)
    path = write_lines(tmp_path / "r.csv", ",".join(CSV_HEADER), GOOD_ROW, big)
    with pytest.raises(ValueError) as info:
        read_csv(path)
    assert str(info.value).startswith(f"{path}, line 3: field larger than field limit")


@pytest.mark.parametrize(
    "lead",
    [b"\xff", ",".join(CSV_HEADER).encode() + b"\r\n\xff"],
    ids=["first-byte", "after-the-header"],
)
def test_read_csv_names_path_and_line_of_bytes_that_do_not_decode(tmp_path, lead):
    path = tmp_path / "r.csv"
    path.write_bytes(lead + b"rest\r\n")
    with pytest.raises(ValueError) as info:
        read_csv(path)
    line = lead.count(b"\n") + 1
    assert str(info.value).startswith(f"{path}, line {line}: 'utf-8' codec can't decode byte 0xff")


# The plain result records, with their fields in order.
RECORD_FIELDS = {
    graph.LeafLayerProfile: ("l1_vertices", "d_min", "l1m_leaves"),
    graph.DegreePath: ("vertices", "degrees"),
    verify.OracleResult: ("max_so", "enumerated", "witnesses", "capped", "witness_trees"),
    verify.SwapMove: ("edge_a", "edge_b", "recombination"),
    verify.LocalMaxReport: ("is_local_max", "base_so", "best_move", "best_delta", "validity_tests"),
    verify.PathInequalityRecord: (
        "path", "i", "parity", "inequality", "lhs_degree", "rhs_degree", "holds"
    ),
    verify.AttachmentEntry: ("leaf", "neighbor", "neighbor_degree", "so"),
    verify.AttachmentProfile: (
        "entries", "equal_degree_ties_ok", "non_increasing_ok", "l1m_attains_max_ok"
    ),
    verify.AnnealResult: ("best_tree", "best_so", "start_so", "moves", "accepted"),
    SweepRecord: (
        "degrees", "n", "m", "constructed_so", "oracle_so", "gap", "optimal", "capped",
        "local_max", "theorem1_violations", "enumerated",
    ),
}


def field_names(cls):
    if dataclasses.is_dataclass(cls):
        return tuple(f.name for f in dataclasses.fields(cls))
    return cls._fields


@pytest.mark.parametrize("cls", RECORD_FIELDS, ids=lambda cls: cls.__name__)
def test_records_keep_their_fields_and_reject_assignment(cls):
    names = field_names(cls)
    assert names == RECORD_FIELDS[cls]
    rec = cls(*range(len(names)))
    for i, name in enumerate(names):
        with pytest.raises(AttributeError):
            setattr(rec, name, -1)
        assert getattr(rec, name) == i
    with pytest.raises(AttributeError):
        rec.extra = 0


def test_sweep_record_fields_are_the_csv_header():
    assert field_names(SweepRecord) == tuple(CSV_HEADER)
