"""Column-oriented relational instances.

:class:`Relation` is the input type of every discovery algorithm in this
package.  It stores data column-wise (discovery algorithms scan columns,
not rows), keeps attribute names for human-readable output, and offers the
projections and slices the scalability experiments of Section V-C/V-D
need (row prefixes, column prefixes).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Relation:
    """An immutable relational instance over a fixed schema.

    ``columns[j][i]`` is the value of tuple ``i`` on attribute ``j``.
    Values may be of any hashable type; ``None`` denotes SQL NULL and its
    comparison semantics are chosen at preprocessing time.
    """

    column_names: tuple[str, ...]
    columns: tuple[tuple[Any, ...], ...]
    name: str = "relation"

    def __post_init__(self) -> None:
        if len(self.column_names) != len(self.columns):
            raise ValueError(
                f"{len(self.column_names)} names for {len(self.columns)} columns"
            )
        names = self.column_names
        if len(set(names)) != len(names):
            repeated = list(dict.fromkeys(n for n in names if names.count(n) > 1))
            raise ValueError(f"column names must be unique, repeated: {repeated}")
        lengths = {len(column) for column in self.columns}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_columns(
        cls,
        columns: Iterable[Iterable[Any]],
        column_names: Sequence[str] | None = None,
        name: str = "relation",
    ) -> "Relation":
        """Build a relation from per-attribute value sequences."""
        materialized = tuple(tuple(column) for column in columns)
        if column_names is None:
            column_names = default_column_names(len(materialized))
        return cls(tuple(column_names), materialized, name)

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Sequence[Any]],
        column_names: Sequence[str] | None = None,
        name: str = "relation",
    ) -> "Relation":
        """Build a relation from an iterable of tuples."""
        rows = list(rows)
        if rows:
            width = len(rows[0])
            for position, row in enumerate(rows):
                if len(row) != width:
                    raise ValueError(
                        f"row {position} has {len(row)} values, expected {width}"
                    )
            columns = tuple(tuple(row[j] for row in rows) for j in range(width))
        else:
            if column_names is None:
                raise ValueError("empty relations need explicit column names")
            columns = tuple(() for _ in column_names)
        if column_names is None:
            column_names = default_column_names(len(columns))
        return cls(tuple(column_names), columns, name)

    # -- shape ----------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_rows, self.num_columns)

    # -- access ----------------------------------------------------------------

    def row(self, index: int) -> tuple[Any, ...]:
        """Materialize tuple ``index``."""
        return tuple(column[index] for column in self.columns)

    def iter_rows(self) -> Iterator[tuple[Any, ...]]:
        return (self.row(i) for i in range(self.num_rows))

    def column(self, key: int | str) -> tuple[Any, ...]:
        """A column by index or by name."""
        return self.columns[self.column_index(key)]

    def column_index(self, key: int | str) -> int:
        if isinstance(key, str):
            try:
                return self.column_names.index(key)
            except ValueError:
                raise KeyError(
                    f"no column named {key!r}; have {list(self.column_names)}"
                ) from None
        if not 0 <= key < self.num_columns:
            raise IndexError(f"column {key} out of range 0..{self.num_columns - 1}")
        return key

    # -- slicing for scalability sweeps ----------------------------------------

    def head(self, num_rows: int) -> "Relation":
        """The first ``num_rows`` tuples (row-scalability sweeps, Fig. 6/7)."""
        num_rows = min(num_rows, self.num_rows)
        return Relation(
            self.column_names,
            tuple(column[:num_rows] for column in self.columns),
            f"{self.name}[:{num_rows}]",
        )

    def project(self, keys: Sequence[int | str]) -> "Relation":
        """Keep the given columns (column-scalability sweeps, Fig. 8/9)."""
        indices = [self.column_index(key) for key in keys]
        return Relation(
            tuple(self.column_names[i] for i in indices),
            tuple(self.columns[i] for i in indices),
            f"{self.name}[cols={len(indices)}]",
        )

    def first_columns(self, num_columns: int) -> "Relation":
        """Keep the first ``num_columns`` columns."""
        return self.project(list(range(min(num_columns, self.num_columns))))

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:
        return (
            f"Relation(name={self.name!r}, rows={self.num_rows}, "
            f"columns={self.num_columns})"
        )


def default_column_names(count: int) -> tuple[str, ...]:
    """Spreadsheet-style names: col_0, col_1, ..."""
    return tuple(f"col_{index}" for index in range(count))
