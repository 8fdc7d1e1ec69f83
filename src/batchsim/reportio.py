"""Sweep report serialization: operations.csv and summary.txt.

Numbers are written with nine significant digits so the files are
deterministic and round-trip cleanly; invalid indicators appear as
``nan``.  Files are written to a temp name and renamed into place, so an
error can never leave a partially written report behind.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path
from typing import get_type_hints

from .econ import OperationRecord
from .sweep import SweepReport

OPERATIONS_FILENAME = "operations.csv"
SUMMARY_FILENAME = "summary.txt"


def _fmt(value: float) -> str:
    return format(value, ".9g")


def _parse_flag(cell: str) -> bool:
    if cell not in ("0", "1"):
        raise ValueError(f"flag must be 1 or 0, got {cell!r}")
    return cell == "1"


# (write, read) of a column, by the type of its record field.
_CODECS = {float: (_fmt, float), int: (str, int),
           bool: (lambda v: "1" if v else "0", _parse_flag)}
# One column per OperationRecord field, in declaration order.
_COLUMNS = [(name, *_CODECS[kind])
            for name, kind in get_type_hints(OperationRecord).items()]
CSV_HEADER = [name for name, _, _ in _COLUMNS]


def _atomic_write(path: Path, content: str) -> None:
    # Created with mode 0o666 so the umask sets the permissions, as for a
    # plain open(); mkstemp would force 0o600.
    tmp_name = path.with_name(f"{path.name}.{os.urandom(6).hex()}")
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(content)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def _record_row(rec: OperationRecord) -> list[str]:
    return [write(getattr(rec, name)) for name, write, _ in _COLUMNS]


def write_report(report: SweepReport, output_dir) -> list[Path]:
    """Write operations.csv and summary.txt; returns the written paths."""
    if not report.records:
        raise ValueError("refusing to write an empty report")
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    lines = [",".join(CSV_HEADER)]
    lines += [",".join(_record_row(rec)) for rec in report.records]
    csv_path = out_dir / OPERATIONS_FILENAME
    _atomic_write(csv_path, "\n".join(lines) + "\n")

    ext = report.extremum
    summary = (
        f"criterion: {report.criterion}\n"
        f"records: {len(report.records)}\n"
        f"extremum_index: {ext.index}\n"
        f"extremum_control_k: {_fmt(ext.control_k)}\n"
        f"extremum_score: {_fmt(ext.score)}\n"
    )
    summary_path = out_dir / SUMMARY_FILENAME
    _atomic_write(summary_path, summary)
    return [csv_path, summary_path]


def read_operations_csv(path) -> list[OperationRecord]:
    """Parse operations.csv back into records (round-trip support)."""
    records = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r} in {path}")
        for row in reader:
            if len(row) != len(CSV_HEADER):
                raise ValueError(
                    f"{path} line {reader.line_num}: expected "
                    f"{len(CSV_HEADER)} cells, got {len(row)}")
            records.append(OperationRecord(
                *(read(cell) for (_, _, read), cell in zip(_COLUMNS, row))))
    return records
