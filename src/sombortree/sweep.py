"""Batch harness: constructor vs oracle over all small degree sequences."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

from sombortree.graph import DegreeSequence, exceeds, sombor_index
from sombortree.construct import construct_max_tree
from sombortree.verify import (
    DEFAULT_CAP,
    check_theorem1,
    is_local_max,
    oracle_max,
)

CSV_HEADER = [
    "degrees",
    "n",
    "m",
    "constructed_so",
    "oracle_so",
    "gap",
    "optimal",
    "capped",
    "local_max",
    "theorem1_violations",
    "enumerated",
]


@dataclass(frozen=True)
class SweepRecord:
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
        return [
            self.degrees,
            str(self.n),
            str(self.m),
            _fmt(self.constructed_so),
            _fmt(self.oracle_so),
            _fmt(self.gap),
            _b(self.optimal),
            _b(self.capped),
            _b(self.local_max),
            str(self.theorem1_violations),
            str(self.enumerated),
        ]

    @classmethod
    def from_row(cls, row: list[str]) -> "SweepRecord":
        return cls(
            degrees=row[0],
            n=int(row[1]),
            m=int(row[2]),
            constructed_so=float(row[3]),
            oracle_so=float(row[4]),
            gap=float(row[5]),
            optimal=row[6] == "true",
            capped=row[7] == "true",
            local_max=row[8] == "true",
            theorem1_violations=int(row[9]),
            enumerated=int(row[10]),
        )


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _b(flag: bool) -> str:
    return "true" if flag else "false"


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


def evaluate_sequence(d: DegreeSequence, cap: int = DEFAULT_CAP) -> tuple:
    """One sweep row plus the witness trees behind it."""
    constructed = construct_max_tree(d)
    c_so = sombor_index(constructed)
    oracle = oracle_max(d, cap=cap)
    gap = oracle.max_so - c_so
    record = SweepRecord(
        degrees=str(d),
        n=d.vertex_count,
        m=d.m,
        constructed_so=c_so,
        oracle_so=oracle.max_so,
        gap=gap,
        optimal=not exceeds(oracle.max_so, c_so),
        capped=oracle.capped,
        local_max=is_local_max(constructed).is_local_max,
        theorem1_violations=check_theorem1(constructed).violations,
        enumerated=oracle.enumerated,
    )
    return record, constructed, oracle


def sweep(
    max_n: int,
    cap: int = DEFAULT_CAP,
    out_csv: str | Path | None = None,
    witness_dir: str | Path | None = None,
) -> list[SweepRecord]:
    """Run constructor vs oracle for every sequence with n <= max_n.

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
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for rec in records:
                writer.writerow(rec.to_row())
    except OSError as exc:
        raise OSError(f"writing sweep CSV {path}: {exc}") from exc


def read_csv(path: str | Path) -> list[SweepRecord]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header in {path}: {header}")
        return [SweepRecord.from_row(row) for row in reader]
