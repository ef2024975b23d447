"""CSV input/output for relations.

The paper's benchmark datasets ship as CSV files; this module loads them
into :class:`~repro.relation.relation.Relation` instances and writes
generated datasets back out so external tools (e.g. Metanome) can be run
on identical inputs.
"""

from __future__ import annotations

import csv
from pathlib import Path
from collections.abc import Sequence

from .relation import Relation, default_column_names


def read_csv(
    path: str | Path,
    has_header: bool = True,
    delimiter: str = ",",
    max_rows: int | None = None,
    null_token: str = "",
    name: str | None = None,
) -> Relation:
    """Load a CSV file as a relation.

    Values equal to ``null_token`` become ``None`` (SQL NULL); everything
    else stays a string — FD discovery only compares values for equality,
    so no type coercion is needed or wanted.  ``max_rows`` truncates large
    files for scalability sweeps.  A leading UTF-8 byte-order mark is
    dropped, so it never leaks into the first column name.

    Raises ``ValueError`` for an empty file, a ragged row or a repeated
    column name.
    """
    path = Path(path)
    rows: list[list[object]] = []
    header: Sequence[str] | None = None
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        for record in reader:
            if header is None and has_header:
                header = record
                continue
            rows.append(
                [None if value == null_token else value for value in record]
            )
            if max_rows is not None and len(rows) >= max_rows:
                break
    if not rows and header is None:
        raise ValueError(f"{path} is empty")
    width = len(header) if header is not None else len(rows[0])
    for position, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(
                f"{path}: row {position} has {len(row)} fields, expected {width}"
            )
    column_names = tuple(header) if header is not None else default_column_names(width)
    return Relation.from_rows(
        rows, column_names, name=name if name is not None else path.stem
    )


def write_csv(
    relation: Relation,
    path: str | Path,
    delimiter: str = ",",
    null_token: str = "",
) -> None:
    """Write a relation as CSV with a header row."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(relation.column_names)
        for row in relation.iter_rows():
            writer.writerow(
                [null_token if value is None else value for value in row]
            )
