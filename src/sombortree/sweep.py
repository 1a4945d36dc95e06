"""Batch harness: constructor vs oracle over all small degree sequences."""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from sombortree.graph import DegreeSequence, exceeds
from sombortree.construct import construct_max_tree
from sombortree.verify import check_theorem1, is_local_max, oracle_max


class SweepRecord(NamedTuple):
    degrees: str  # comma-joined
    n: int
    m: int
    constructed_so: float
    oracle_so: float
    gap: float
    optimal: bool
    capped: bool
    local_max: bool
    theorem1_violations: int
    enumerated: int

    def to_row(self) -> list[str]:
        return [write(x) for write, x in zip(_WRITERS, self)]

    @classmethod
    def from_row(cls, row: list[str]) -> "SweepRecord":
        if len(row) != len(CSV_HEADER):
            raise ValueError(f"{len(row)} cells, expected {len(CSV_HEADER)}")
        return cls._make(read(x) for read, x in zip(_READERS, row))


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _b(flag: bool) -> str:
    return "true" if flag else "false"


def _read_b(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"bool cell {text!r} is neither true nor false")
    return text == "true"


# One CSV column per field, in field order, written and read by the field's
# type: under `from __future__ import annotations` NamedTuple keeps each as
# a ForwardRef to the type's name.
CSV_HEADER = list(SweepRecord._fields)
_TYPES = [SweepRecord.__annotations__[name].__forward_arg__ for name in CSV_HEADER]
_WRITERS = [{"bool": _b, "float": _fmt}.get(t, str) for t in _TYPES]
_READERS = [{"bool": _read_b, "float": float, "int": int, "str": str}[t] for t in _TYPES]


def generate_degree_sequences(max_n: int) -> list[DegreeSequence]:
    """All feasible internal degree sequences for 3 <= n <= max_n.

    For each n and m, the non-increasing sequences of m integers >= 2
    summing to n + m - 2; emitted n ascending, m ascending, sequences in
    descending lexicographic order.
    """
    if max_n < 3:
        raise ValueError("max_n must be >= 3")
    out = []
    for n in range(3, max_n + 1):
        for m in range(1, n - 1):
            for parts in _partitions(n + m - 2, m, n - 1):
                out.append(DegreeSequence(parts))
    return out


def _partitions(total: int, m: int, maxpart: int):
    """Non-increasing m-tuples of integers in [2, maxpart] summing to total,
    descending lexicographic."""
    if m == 0:
        if total == 0:
            yield ()
        return
    hi = min(maxpart, total - 2 * (m - 1))
    for first in range(hi, 1, -1):
        for rest in _partitions(total - first, m - 1, first):
            yield (first,) + rest


def evaluate_sequence(d: DegreeSequence, cap: int | None = None) -> tuple:
    """One sweep row plus the witness trees behind it.

    Without a cap the oracle is exact; see verify.oracle_max.  The row's
    ``enumerated`` is the oracle's, whose unit follows ``capped``: on an
    exact row the labeled trees realizing d (prufer_space_size), on a
    capped row the skeleton placements scored, which is the cap.
    """
    constructed = construct_max_tree(d)
    local = is_local_max(constructed)  # base_so: the bits of sombor_index
    oracle = oracle_max(d, cap=cap)
    gap = oracle.max_so - local.base_so
    record = SweepRecord(
        degrees=str(d),
        n=d.vertex_count,
        m=d.m,
        constructed_so=local.base_so,
        oracle_so=oracle.max_so,
        gap=gap,
        optimal=not exceeds(oracle.max_so, local.base_so),
        capped=oracle.capped,
        local_max=local.is_local_max,
        theorem1_violations=check_theorem1(constructed).violations,
        enumerated=oracle.enumerated,
    )
    return record, constructed, oracle


def sweep(
    max_n: int,
    cap: int | None = None,
    out_csv: str | Path | None = None,
    witness_dir: str | Path | None = None,
) -> list[SweepRecord]:
    """Run constructor vs oracle for every sequence with n <= max_n.

    There is no default cap: every row is exact unless a cap is given.
    Non-optimal uncapped rows dump both witness trees as JSON next to the
    CSV (or into witness_dir).
    """
    records = []
    wdir = None
    if witness_dir is not None:
        wdir = Path(witness_dir)
    elif out_csv is not None:
        wdir = Path(out_csv).parent
    for d in generate_degree_sequences(max_n):
        record, constructed, oracle = evaluate_sequence(d, cap=cap)
        records.append(record)
        if not record.optimal and not record.capped and wdir is not None:
            tag = "-".join(str(x) for x in d.degrees)
            try:
                wdir.mkdir(parents=True, exist_ok=True)
                (wdir / f"witness_{tag}_constructed.json").write_text(
                    constructed.to_json()
                )
                (wdir / f"witness_{tag}_oracle.json").write_text(
                    oracle.witness_trees[0].to_json()
                )
            except OSError as exc:
                raise OSError(f"writing witness files for {d}: {exc}") from exc
    if out_csv is not None:
        write_csv(records, out_csv)
    return records


def write_csv(records: list[SweepRecord], path: str | Path) -> None:
    import csv

    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for rec in records:
                writer.writerow(rec.to_row())
    except OSError as exc:
        raise OSError(f"writing sweep CSV {path}: {exc}") from exc


def read_csv(path: str | Path) -> list[SweepRecord]:
    """The records of a CSV as write_csv writes it; a ValueError naming the
    path and line on any other file."""
    import csv

    with open(path, "rb") as fh:
        # one line decoded per read, so a decode error is on the line after
        # the reader's count; "\r\n" stays in the line, as newline="" keeps it
        reader = csv.reader(line.decode() for line in fh)
        try:
            if next(reader, None) != CSV_HEADER:
                raise ValueError(f"not the header {','.join(CSV_HEADER)}")
            return [SweepRecord.from_row(row) for row in reader]
        except (ValueError, csv.Error) as exc:  # UnicodeDecodeError is a ValueError
            line = max(1, reader.line_num + isinstance(exc, UnicodeDecodeError))
            raise ValueError(f"{path}, line {line}: {exc}") from None
