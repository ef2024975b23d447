"""The preprocessing module (Section IV-B).

Raw values of arbitrary types are replaced by dense numeric labels, one
label per distinct value *per attribute* (Table II): only value equality
matters for FD discovery, never the values themselves.  The label matrix
enables constant-time tuple-pair comparison, and the per-attribute
stripped partitions (Definition 7) seed the sampling module.

Streaming appends (DESIGN.md §12): :meth:`PreprocessedRelation.append_rows`
extends the label dictionaries, the label matrix, the columnar encoding
and the per-attribute stripped partitions **in place** — O(batch) work
per append instead of re-encoding the table.  The retained encoder state
lives in a :class:`_DeltaState` shared by every snapshot of one append
lineage; snapshots stay frozen and their matrix/encoded views are
read-only prefixes of amortized-growth buffers, so an old snapshot never
observes newer rows.  Appends are linear: only the newest snapshot may
be appended to (a stale snapshot raises), which is what keeps the shared
buffers single-writer.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any

import numpy as np

from .partition import StrippedPartition, partition_from_labels
from .relation import Relation

_NULL = object()
"""Internal sentinel distinguishing SQL NULL from the string 'None'."""

_ENCODED_WIDTHS: tuple[tuple[int, "np.dtype"], ...] = (
    (1 << 8, np.dtype(np.uint8)),
    (1 << 16, np.dtype(np.uint16)),
    (1 << 32, np.dtype(np.uint32)),
)
"""Dtype ladder for dictionary-encoded columns, narrowest first."""


def dtype_for_cardinality(cardinality: int) -> "np.dtype":
    """Narrowest unsigned dtype whose range covers labels ``0..cardinality-1``.

    The bound is tight: a column with exactly 256 distinct values still
    fits u8 (labels 0..255); promotion to u16 happens at 257, and to u32
    at 65537.

    Pure: maps an integer to a dtype.
    """
    if cardinality < 0:
        raise ValueError(f"cardinality must be non-negative, got {cardinality}")
    for bound, dtype in _ENCODED_WIDTHS:
        if cardinality <= bound:
            return dtype
    raise OverflowError(  # pragma: no cover - needs > 2**32 rows
        f"cardinality {cardinality} exceeds the u32 label range"
    )


@dataclass(frozen=True)
class EncodedMatrix:
    """Columnar dictionary encoding of a label matrix.

    Each attribute's dense labels are stored as a contiguous 1-D array in
    the narrowest unsigned dtype that fits the column's cardinality
    (:func:`dtype_for_cardinality`), so kernels that walk one column at a
    time touch 1, 2, or 4 bytes per row instead of the canonical matrix's
    8.  Label values are identical to the matching ``matrix[:, j]`` column
    — only the storage width changes — so equality comparisons (the only
    operation FD discovery performs on labels) are representation-agnostic.
    """

    columns: tuple[np.ndarray, ...]
    cardinalities: tuple[int, ...]
    num_rows: int

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    @property
    def nbytes(self) -> int:
        """Total resident bytes across all encoded columns."""
        return sum(int(column.nbytes) for column in self.columns)

    @property
    def row_bytes(self) -> int:
        """Bytes one row occupies across all encoded columns."""
        return sum(int(column.dtype.itemsize) for column in self.columns)

    @property
    def dtypes(self) -> tuple[str, ...]:
        """Per-column dtype names, in column order."""
        return tuple(str(column.dtype) for column in self.columns)

    def column(self, index: int) -> np.ndarray:
        """The encoded label vector of one column."""
        return self.columns[index]

    def cardinality(self, index: int) -> int:
        """Number of distinct labels in ``column``."""
        return self.cardinalities[index]

    def dtype_blocks(self) -> "tuple[tuple[np.ndarray, np.ndarray], ...]":
        """Non-constant columns stacked into one 2-D block per dtype.

        Each entry is ``(column_indices, block)`` where ``block[:, k]``
        is the encoded column ``column_indices[k]``.  Pair-comparison
        kernels gather whole blocks — one vectorized operation per
        distinct width instead of one per column, which is what makes
        small-batch agree-mask calls competitive with the row-slab
        matrix kernel.  Cardinality-1 columns are excluded: their pairs
        agree by definition.  Built lazily, cached on the instance
        (same idiom as :attr:`PreprocessedRelation.encoded`).
        """
        cached = self.__dict__.get("_blocks")
        if cached is None:
            groups: dict[str, list[int]] = {}
            for j, column in enumerate(self.columns):
                if self.cardinalities[j] > 1:
                    groups.setdefault(str(column.dtype), []).append(j)
            cached = tuple(
                (
                    np.asarray(indices, dtype=np.intp),
                    np.column_stack([self.columns[j] for j in indices]),
                )
                for indices in groups.values()
            )
            object.__setattr__(self, "_blocks", cached)
        return cached


def encode_matrix(matrix: np.ndarray) -> EncodedMatrix:
    """Dictionary-encode an int64 label matrix into columnar storage.

    Labels are already dense (:func:`_encode_column` assigns them in
    first-occurrence order), so per-column cardinality is ``max + 1`` and
    the narrowing cast is lossless by construction.  Returned columns are
    C-contiguous and read-only.

    Pure: reads the matrix only; returns a fresh encoding.
    """
    num_rows = int(matrix.shape[0])
    columns = []
    cardinalities = []
    for j in range(int(matrix.shape[1])):
        labels = matrix[:, j]
        cardinality = int(labels.max()) + 1 if num_rows else 0
        encoded = labels.astype(dtype_for_cardinality(cardinality))
        encoded.setflags(write=False)
        columns.append(encoded)
        cardinalities.append(cardinality)
    return EncodedMatrix(
        columns=tuple(columns),
        cardinalities=tuple(cardinalities),
        num_rows=num_rows,
    )


@dataclass(frozen=True)
class AppendDelta:
    """What one :meth:`PreprocessedRelation.append_rows` call changed.

    ``touched[j]`` holds the post-append cluster tuples of attribute
    ``j`` that contain at least one new row, ordered by first row (the
    canonical stripped-partition order) — exactly the inverted-cluster-
    index slice the incremental engine walks for partner discovery, and
    what the partition store uses to place an appended row in its
    single-attribute cluster.  ``cardinalities`` are the post-append
    per-column distinct-label counts (labels are dense, so this is the
    next free label).  ``promotions`` records every dtype-ladder
    crossing as ``(column, old_dtype, new_dtype)``; ``cells_encoded``
    counts the matrix cells dictionary-encoded by the append —
    ``num_new × columns`` by construction, the figure the no-O(N)-rebuild
    test asserts against.
    """

    first_new: int
    num_new: int
    num_rows: int
    cardinalities: tuple[int, ...]
    touched: tuple[tuple[tuple[int, ...], ...], ...]
    promotions: tuple[tuple[int, str, str], ...]
    cells_encoded: int


class _DeltaState:
    """Retained encoder and grouping state shared by one append lineage.

    One instance backs every snapshot produced by successive
    ``append_rows`` calls: the writable amortized-growth buffers behind
    the snapshots' read-only views, the value→label dictionaries, and
    per-column full group membership (label → ascending member rows)
    from which stripped partitions are materialized with structural
    sharing — untouched cluster tuples are reused, never re-tupled.
    Only the newest snapshot (``size`` rows) may append, which keeps the
    shared buffers single-writer; the state is not thread-safe.
    """

    __slots__ = (
        "null_equals_null",
        "size",
        "capacity",
        "matrix",
        "codes",
        "next_labels",
        "members",
        "multi",
        "grouped",
        "tuple_cache",
        "encoded",
        "appends",
    )

    def __init__(
        self, num_rows: int, num_columns: int, null_equals_null: bool
    ) -> None:
        self.null_equals_null = null_equals_null
        self.size = 0
        self.capacity = 0
        self.matrix: "np.ndarray | None" = None
        self.codes: list[dict[Any, int]] = [{} for _ in range(num_columns)]
        self.next_labels: list[int] = [0] * num_columns
        # label -> member rows (ascending): the full, unstripped grouping.
        self.members: list[list[list[int]]] = [[] for _ in range(num_columns)]
        # labels with >= 2 members -> their first row; re-sorted by first
        # row at materialization, which restores the canonical
        # first-occurrence cluster order of ``partition_from_labels``.
        self.multi: list[dict[int, int]] = [{} for _ in range(num_columns)]
        self.grouped: list[int] = [0] * num_columns
        # label -> materialized cluster tuple; dropped when the cluster
        # grows, so unchanged clusters share one tuple across snapshots.
        self.tuple_cache: list[dict[int, tuple[int, ...]]] = [
            {} for _ in range(num_columns)
        ]
        self.encoded: "list[np.ndarray] | None" = None
        self.appends = 0

    def adopt_column(
        self, j: int, labels: list[int], codes: dict[Any, int], next_label: int
    ) -> None:
        """Take ownership of one freshly-encoded column's state.

        Mutates: self
        """
        self.codes[j] = codes
        self.next_labels[j] = next_label
        members: list[list[int]] = [[] for _ in range(next_label)]
        for row, label in enumerate(labels):
            members[label].append(row)
        self.members[j] = members
        multi = self.multi[j]
        grouped = 0
        for label, rows in enumerate(members):
            if len(rows) >= 2:
                multi[label] = rows[0]
                grouped += len(rows)
        self.grouped[j] = grouped

    def materialize(self, j: int, num_rows: int) -> StrippedPartition:
        """Column ``j``'s stripped partition at ``num_rows`` rows.

        Pointer-level work only: every cluster tuple is served from the
        per-label tuple cache when its membership did not change, and the
        sort restores first-occurrence order from the per-label first
        rows.

        Mutates: self
        """
        cache = self.tuple_cache[j]
        members = self.members[j]
        clusters: list[tuple[int, ...]] = []
        for label, _first in sorted(self.multi[j].items(), key=lambda kv: kv[1]):
            cluster = cache.get(label)
            if cluster is None:
                cluster = tuple(members[label])
                cache[label] = cluster
            clusters.append(cluster)
        return StrippedPartition.from_tuples(
            tuple(clusters), num_rows, self.grouped[j]
        )

    def _reserve(self, num_rows: int, num_columns: int) -> None:
        """Grow the amortized buffers to hold ``num_rows`` rows.

        Mutates: self
        """
        if num_rows <= self.capacity:
            return
        capacity = max(num_rows, self.capacity * 2, 16)
        grown = np.empty((capacity, num_columns), dtype=np.int64)
        grown[: self.size] = self.matrix[: self.size]
        self.matrix = grown
        if self.encoded is not None:
            for j, column in enumerate(self.encoded):
                buffer = np.empty(capacity, dtype=column.dtype)
                buffer[: self.size] = column[: self.size]
                self.encoded[j] = buffer
        self.capacity = capacity

    def _adopt_encoded(self, encoded: EncodedMatrix) -> None:
        """Bootstrap growable narrow buffers from a materialized encoding.

        Mutates: self
        """
        buffers: list[np.ndarray] = []
        for column in encoded.columns:
            buffer = np.empty(max(self.capacity, self.size), dtype=column.dtype)
            buffer[: self.size] = column
            buffers.append(buffer)
        self.encoded = buffers

    def append_batch(
        self, snapshot: "PreprocessedRelation", rows: "list[tuple[Any, ...]]"
    ) -> "PreprocessedRelation":
        """Encode ``rows`` into the lineage and build the next snapshot.

        Mutates: self
        """
        first_new = self.size
        num_new = len(rows)
        num_rows = first_new + num_new
        num_columns = len(self.codes)
        if self.encoded is None:
            encoded_prev = snapshot.encoded
            if encoded_prev is not None:
                self._adopt_encoded(encoded_prev)
        self._reserve(num_rows, num_columns)
        matrix = self.matrix
        touched: list[tuple[tuple[int, ...], ...]] = []
        promotions: list[tuple[int, str, str]] = []
        partitions: list[StrippedPartition] = []
        for j in range(num_columns):
            codes = self.codes[j]
            members = self.members[j]
            multi = self.multi[j]
            cache = self.tuple_cache[j]
            next_label = self.next_labels[j]
            touched_multi: dict[int, None] = {}
            for offset, row in enumerate(rows):
                value = row[j]
                if value is None and not self.null_equals_null:
                    label = next_label
                    next_label += 1
                else:
                    key = _NULL if value is None else value
                    label = codes.get(key)
                    if label is None:
                        label = next_label
                        codes[key] = label
                        next_label += 1
                row_index = first_new + offset
                matrix[row_index, j] = label
                if label == len(members):
                    members.append([row_index])
                    continue
                group = members[label]
                group.append(row_index)
                if len(group) == 2:
                    multi[label] = group[0]
                    self.grouped[j] += 2
                else:
                    self.grouped[j] += 1
                cache.pop(label, None)
                touched_multi[label] = None
            self.next_labels[j] = next_label
            if self.encoded is not None:
                column_buffer = self.encoded[j]
                needed = dtype_for_cardinality(next_label)
                if needed.itemsize > column_buffer.dtype.itemsize:
                    # dtype-ladder crossing: the one sanctioned O(N)
                    # moment, paid only when a column's cardinality
                    # outgrows its width (at most twice per column ever).
                    promoted = np.empty(self.capacity, dtype=needed)
                    promoted[:first_new] = column_buffer[:first_new]
                    promotions.append(
                        (j, str(column_buffer.dtype), str(needed))
                    )
                    self.encoded[j] = column_buffer = promoted
                column_buffer[first_new:num_rows] = matrix[
                    first_new:num_rows, j
                ]
            if touched_multi:
                partitions.append(self.materialize(j, num_rows))
                ordered = sorted(
                    touched_multi, key=lambda label: members[label][0]
                )
                touched.append(tuple(cache[label] for label in ordered))
            else:
                # No cluster changed shape: share the previous snapshot's
                # cluster tuples wholesale, only num_rows moves.
                old = snapshot.stripped[j]
                partitions.append(
                    StrippedPartition.from_tuples(
                        old.clusters, num_rows, old.num_grouped_rows
                    )
                )
                touched.append(())
        self.size = num_rows
        self.appends += 1
        view = matrix[:num_rows]
        view.setflags(write=False)
        data = PreprocessedRelation(
            relation=snapshot.relation,
            matrix=view,
            stripped=tuple(partitions),
            null_equals_null=self.null_equals_null,
        )
        object.__setattr__(data, "_delta", self)
        if self.encoded is not None:
            columns: list[np.ndarray] = []
            for j in range(num_columns):
                column_view = self.encoded[j][:num_rows]
                column_view.setflags(write=False)
                columns.append(column_view)
            object.__setattr__(
                data,
                "_encoded",
                EncodedMatrix(
                    columns=tuple(columns),
                    cardinalities=tuple(self.next_labels),
                    num_rows=num_rows,
                ),
            )
        object.__setattr__(
            data,
            "_append_delta",
            AppendDelta(
                first_new=first_new,
                num_new=num_new,
                num_rows=num_rows,
                cardinalities=tuple(self.next_labels),
                touched=tuple(touched),
                promotions=tuple(promotions),
                cells_encoded=num_new * num_columns,
            ),
        )
        return data


def _bootstrap_delta(data: "PreprocessedRelation") -> _DeltaState:
    """Reconstruct retained encoder state for a non-delta snapshot.

    One O(N) pass per column — the cold-start cost that
    ``preprocess(delta=True)`` avoids; every later append is O(batch)
    either way.  Only snapshots built by :func:`preprocess` ever need
    this (append-built snapshots always carry their lineage's state), so
    ``relation.columns`` is guaranteed to match the matrix rows.

    Pure: reads the snapshot only; returns fresh state.
    """
    num_rows = data.num_rows
    num_columns = data.num_columns
    state = _DeltaState(num_rows, num_columns, data.null_equals_null)
    matrix = data.matrix
    for j, column in enumerate(data.relation.columns):
        labels = matrix[:, j].tolist()
        codes: dict[Any, int] = {}
        for value, label in zip(column, labels):
            if value is None:
                if data.null_equals_null:
                    codes.setdefault(_NULL, label)
                continue
            codes.setdefault(value, label)
        next_label = (int(max(labels)) + 1) if labels else 0
        state.adopt_column(j, labels, codes, next_label)
    state.matrix = np.array(matrix, dtype=np.int64)
    state.capacity = num_rows
    state.size = num_rows
    return state


@dataclass(frozen=True)
class PreprocessedRelation:
    """Label matrix plus per-attribute stripped partitions.

    ``matrix[i, j]`` is the dense label of tuple ``i`` on attribute ``j``;
    labels of different attributes are independent namespaces and may
    repeat (Example 5).

    Snapshots grown by :meth:`append_rows` keep ``relation`` pointing at
    the cold-start schema snapshot — row counts always come from the
    matrix (``num_rows``), never from ``relation``.
    """

    relation: Relation
    matrix: np.ndarray
    stripped: tuple[StrippedPartition, ...]
    null_equals_null: bool

    @property
    def num_rows(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def num_columns(self) -> int:
        return int(self.matrix.shape[1])

    @property
    def column_names(self) -> tuple[str, ...]:
        return self.relation.column_names

    def cardinality(self, column: int) -> int:
        """Number of distinct labels in ``column``."""
        if self.num_rows == 0:
            return 0
        encoded = self.__dict__.get("_encoded")
        if encoded is not None:
            # labels are dense, so the encoding's bookkeeping answers in
            # O(1) what the matrix scan below answers in O(rows)
            return encoded.cardinalities[column]
        state = self.__dict__.get("_delta")
        if state is not None and state.size == self.num_rows:
            # newest snapshot of an append lineage: the encoder state
            # knows the next label, i.e. the distinct count, in O(1)
            return state.next_labels[column]
        return int(self.matrix[:, column].max()) + 1

    def agree_mask(self, row_a: int, row_b: int) -> int:
        """Bitmask of the attributes on which two tuples share a value.

        The agree set of a tuple pair, computed by comparing label rows;
        every attribute outside the mask yields a non-FD
        ``agree -/-> attribute`` (Section IV-C).
        """
        equal = self.matrix[row_a] == self.matrix[row_b]
        packed = np.packbits(equal, bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")

    def agree_masks_bulk(
        self, rows_a: "np.ndarray | list[int]", rows_b: "np.ndarray | list[int]"
    ) -> list[int]:
        """Agree masks of many tuple pairs in one vectorized comparison.

        The samplers compare whole batches of pairs (every window position
        of a cluster at once); doing the label comparison and bit packing
        in a single numpy call keeps the per-pair cost at C speed.
        """
        return agree_masks_from_matrix(self.matrix, rows_a, rows_b)

    def iter_clusters(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Yield ``(attribute, cluster)`` over all stripped clusters."""
        for attribute, partition in enumerate(self.stripped):
            for cluster in partition.clusters:
                yield attribute, cluster

    def labels(self, column: int) -> np.ndarray:
        """The dense label vector of one column."""
        return self.matrix[:, column]

    @property
    def encoded(self) -> "EncodedMatrix | None":
        """The columnar encoding if already materialized, else ``None``.

        Side-effect-free accessor for callers (the partition-store byte
        cost model) that must observe the representation without forcing
        an encode.
        """
        return self.__dict__.get("_encoded")

    def encoded_matrix(self) -> "EncodedMatrix":
        """The columnar dictionary encoding, materialized once and cached.

        Encoding is lazy so relations served by the numpy/python backends
        never pay for (or account) the columnar copy; the columnar
        backend materializes it via :meth:`repro.engine.backends.ColumnarBackend.prepare`.
        """
        cached = self.__dict__.get("_encoded")
        if cached is None:
            cached = encode_matrix(self.matrix)
            object.__setattr__(self, "_encoded", cached)
        return cached

    @property
    def append_delta(self) -> "AppendDelta | None":
        """The :class:`AppendDelta` that produced this snapshot, if any.

        ``None`` for cold-start snapshots built by :func:`preprocess`.
        """
        return self.__dict__.get("_append_delta")

    def append_rows(
        self, rows: "list[tuple[Any, ...]]"
    ) -> "PreprocessedRelation":
        """O(batch) append: the next snapshot, sharing this one's buffers.

        Extends the label dictionaries, the label matrix, the columnar
        encoding (when already materialized on this snapshot) and the
        stripped partitions with the new rows — never re-encoding
        existing ones.  The returned snapshot's :attr:`append_delta`
        describes what changed; ``self`` stays valid as a read-only view
        of the pre-append prefix, but becomes *stale*: appends are
        linear, and only the lineage's newest snapshot may grow again.
        A snapshot preprocessed without ``delta=True`` pays a one-time
        O(N) state bootstrap here; steady-state appends are O(batch)
        plus pointer-level cluster relisting either way.

        Mutates: self
        """
        num_columns = self.num_columns
        for row in rows:
            if len(row) != num_columns:
                raise ValueError(
                    f"row arity {len(row)} != schema width {num_columns}"
                )
        state = self.__dict__.get("_delta")
        if state is None:
            state = _bootstrap_delta(self)
            object.__setattr__(self, "_delta", state)
        if state.size != self.num_rows:
            raise ValueError(
                "append_rows on a stale snapshot: only the newest snapshot "
                f"of an append lineage may grow (this one has "
                f"{self.num_rows} rows, the lineage is at {state.size})"
            )
        return state.append_batch(self, rows)


def packed_agree_masks(equal: np.ndarray) -> list[int]:
    """Bit-pack per-pair boolean agree rows into Python int masks.

    Little-endian packing: bit ``j`` of a mask is attribute ``j``'s
    agreement.  For relations of up to 64 attributes (every packed row
    fits one machine word) the packed bytes decode through a single
    ``uint64`` view — on sampling-heavy workloads the historical
    per-pair ``int.from_bytes`` loop was the dominant per-pair cost.
    Wider relations keep the loop, whose cost the pair count amortizes.

    Pure: reads the boolean matrix only; returns a fresh list.
    """
    packed = np.packbits(equal, axis=1, bitorder="little")
    width = packed.shape[1]
    if width <= 8 and sys.byteorder == "little":
        padded = np.zeros((packed.shape[0], 8), dtype=np.uint8)
        padded[:, :width] = packed
        return padded.view(np.uint64).ravel().tolist()
    data = packed.tobytes()
    return [
        int.from_bytes(data[offset : offset + width], "little")
        for offset in range(0, len(data), width)
    ]


def agree_masks_from_matrix(
    matrix: np.ndarray,
    rows_a: "np.ndarray | list[int]",
    rows_b: "np.ndarray | list[int]",
) -> list[int]:
    """Agree masks of tuple pairs over a bare label matrix, in pair order.

    The matrix-level core of :meth:`PreprocessedRelation.agree_masks_bulk`,
    factored out so worker processes of the parallel execution engine can
    run it against the matrix of their published view without rebuilding
    a :class:`PreprocessedRelation`.

    Pure: reads the matrix and row lists only; returns a fresh list.
    """
    return packed_agree_masks(matrix[rows_a] == matrix[rows_b])


def distinct_agree_masks_range(
    matrix: np.ndarray, start: int, stop: int
) -> list[int]:
    """Distinct agree masks of all pairs anchored in ``[start, stop)``.

    For each anchor row ``i`` in the range, compares the label matrix of
    rows ``i+1 .. n-1`` against row ``i`` in one vectorized operation —
    the sweep Fdep performs over every anchor.  Masks come back as a list
    in first-occurrence order (the order a serial scan of the same range
    would first see them), so a coordinator merging per-range results in
    range order reproduces the serial insertion sequence exactly; that
    property is what makes the parallel Fdep sweep byte-identical to the
    serial one at any worker count.

    Pure: reads the matrix only; returns a fresh list.
    """
    seen: dict[int, None] = {}
    for anchor in range(start, stop):
        equal = matrix[anchor + 1 :] == matrix[anchor]
        packed = np.packbits(equal, axis=1, bitorder="little")
        row_bytes = packed.tobytes()
        width = packed.shape[1]
        for offset in range(0, len(row_bytes), width):
            seen.setdefault(
                int.from_bytes(row_bytes[offset : offset + width], "little")
            )
    return list(seen)


def preprocess(
    relation: Relation, null_equals_null: bool = True, delta: bool = False
) -> PreprocessedRelation:
    """Run the preprocessing module on ``relation``.

    ``null_equals_null`` selects NULL semantics: when True (the classic
    FD-discovery convention, used by Tane and HyFD) all NULLs of a column
    share one label; when False every NULL receives a fresh label and
    never agrees with anything, including another NULL.

    ``delta=True`` retains the per-column encoder dictionaries and group
    membership lists so that :meth:`PreprocessedRelation.append_rows`
    runs at O(batch) from the first append.  Without it the first append
    pays a one-time O(N) bootstrap to reconstruct that state; either way
    no append ever re-encodes already-encoded rows.
    """
    num_rows = relation.num_rows
    num_columns = relation.num_columns
    if num_columns == 0:
        raise ValueError("cannot preprocess a relation without columns")
    matrix = np.empty((num_rows, num_columns), dtype=np.int64)
    partitions = []
    state = _DeltaState(num_rows, num_columns, null_equals_null) if delta else None
    for j, column in enumerate(relation.columns):
        labels, codes, next_label = _encode_column(column, null_equals_null)
        matrix[:, j] = labels
        if state is None:
            partitions.append(partition_from_labels(labels, num_rows))
        else:
            state.adopt_column(j, labels, codes, next_label)
            partitions.append(state.materialize(j, num_rows))
    if state is not None:
        state.matrix = matrix
        state.capacity = num_rows
        state.size = num_rows
    view = matrix[:num_rows] if state is not None else matrix
    view.setflags(write=False)
    data = PreprocessedRelation(
        relation=relation,
        matrix=view,
        stripped=tuple(partitions),
        null_equals_null=null_equals_null,
    )
    if state is not None:
        object.__setattr__(data, "_delta", state)
    return data


def _encode_column(
    column: tuple[Any, ...], null_equals_null: bool
) -> tuple[list[int], dict[Any, int], int]:
    """Assign dense labels in first-occurrence order (deterministic).

    Returns ``(labels, codes, next_label)`` — the encoder's dictionary
    and high-water mark come back alongside the labels so the delta path
    can retain them and keep encoding future appends at O(batch).

    Pure: reads the column only; returns fresh state.
    """
    codes: dict[Any, int] = {}
    labels = []
    next_label = 0
    for value in column:
        if value is None:
            if null_equals_null:
                key = _NULL
            else:
                labels.append(next_label)
                next_label += 1
                continue
        else:
            key = value
        label = codes.get(key)
        if label is None:
            label = next_label
            codes[key] = label
            next_label += 1
        labels.append(label)
    return labels, codes, next_label
