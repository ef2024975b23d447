"""Fused columnar validation kernels (DESIGN.md §11).

These are the kernels behind :class:`~repro.engine.backends.ColumnarBackend`.
They operate on the :class:`~repro.relation.preprocess.EncodedMatrix` —
per-column dictionary encoding in the narrowest unsigned dtype that fits
the cardinality — instead of the canonical int64 label matrix, and they
fuse the passes the numpy backend keeps separate:

* :func:`encoded_group_keys` folds the LHS radix-style over the narrow
  columns into ``uint64`` keys, skipping cardinality-1 columns outright
  (a constant column never splits a group) and re-densifying via
  ``np.unique`` whenever the next multiplication could overflow — the
  same width-guard pattern as :func:`repro.relation.validate.fold_labels`
  (RPR108's historical fix), restated for unsigned radix keys.  The
  result carries its exclusive value bound (``domain``) so downstream
  kernels can allocate scatter tables directly.
* :func:`encoded_constant_on` tests RHS constancy in two linear passes —
  scatter one representative label per group, gather and compare — with
  no sort and no ``np.unique``.  Which group member lands in the table is
  irrelevant: a group is constant iff every member equals *any* fixed
  representative, so the check is deterministic even though numpy leaves
  duplicate-index assignment order unspecified.
* :func:`agree_masks_from_encoded` compares narrow contiguous columns
  pair-wise, skips constant columns, and bit-packs the agree rows; for
  relations of ≤ 64 attributes the packed rows are decoded through one
  ``uint64`` view instead of a per-pair ``int.from_bytes`` loop.

This module and ``relation/validate.py`` are the only places allowed to
widen labels to int64 on the hot path (RPR113).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..relation.preprocess import EncodedMatrix, packed_agree_masks

_KEY_LIMIT = 1 << 62
"""Re-densify radix keys before the next fold could overflow (mirrors
``relation/validate._FOLD_LIMIT``)."""

_MIN_SCATTER = 1024
"""Key domains up to this size never pay the final densify: the scatter
tables they imply are at most 1 KiB × itemsize."""


@dataclass(frozen=True)
class ColumnarKeys:
    """Per-row group keys plus the exclusive bound on their values.

    ``keys[i]`` is the group id of row ``i``; rows share an id iff they
    agree on every folded attribute.  ``domain`` bounds the id values
    (``0 <= keys[i] < domain``), letting the constancy kernel allocate a
    dense scatter table without inspecting the keys again.
    """

    keys: np.ndarray
    domain: int
    num_rows: int


def encoded_of(data: object) -> EncodedMatrix:
    """The :class:`EncodedMatrix` behind a relation or a worker's view.

    ``PreprocessedRelation`` materializes it once and caches it; the
    worker-side :class:`~repro.engine.transport.EncodedView` holds the
    published one.
    """
    return data.encoded_matrix()


def _densified(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Compact key values to ``0..distinct-1``, preserving the grouping.

    Pure: returns fresh arrays; the input is not mutated.
    """
    uniques, inverse = np.unique(keys, return_inverse=True)
    return inverse, int(uniques.size)


def encoded_group_keys(encoded: EncodedMatrix, columns: "list[int]") -> ColumnarKeys:
    """Radix-fold the LHS columns into dense per-row group keys.

    Positional fold ``key*cardinality + label`` over the narrow encoded
    columns, exactly as the int64 kernel does, but: cardinality-1 columns
    are skipped (they cannot split groups), the accumulator is ``uint64``,
    and the running ``domain`` (product of folded cardinalities) is
    re-densified under the same overflow guard as
    :func:`repro.relation.validate.fold_labels`.  A final densify keeps
    the domain within ``max(2·rows, 1024)`` so scatter tables stay small.

    Pure: reads the encoding only; returns fresh keys.
    """
    num_rows = encoded.num_rows
    live = [j for j in columns if encoded.cardinalities[j] > 1]
    if not live or num_rows == 0:
        return ColumnarKeys(
            keys=np.zeros(num_rows, dtype=np.uint64), domain=1, num_rows=num_rows
        )
    keys = encoded.columns[live[0]].astype(np.uint64)
    domain = encoded.cardinalities[live[0]]
    for j in live[1:]:
        cardinality = encoded.cardinalities[j]
        if domain * cardinality >= _KEY_LIMIT:
            keys, domain = _densified(keys)
            if domain * cardinality >= _KEY_LIMIT:  # pragma: no cover
                raise OverflowError("radix key fold exceeded the width guard")
        keys = keys * cardinality + encoded.columns[j]
        domain *= cardinality
    if domain > max(2 * num_rows, _MIN_SCATTER):
        keys, domain = _densified(keys)
    return ColumnarKeys(keys=keys, domain=domain, num_rows=num_rows)


def encoded_constant_on(
    encoded: EncodedMatrix, keys: ColumnarKeys, rhs: int
) -> bool:
    """True when every key group is constant on attribute ``rhs``.

    Scatter a representative RHS label per group id, gather it back per
    row, and compare: constant groups agree with their representative
    everywhere, any split group disagrees on at least one row —
    whichever member the scatter kept.  Two O(n) passes, no sort.

    Pure: reads both inputs only.
    """
    if keys.num_rows <= 1 or encoded.cardinalities[rhs] <= 1:
        return True
    column = encoded.columns[rhs]
    representative = np.empty(keys.domain, dtype=column.dtype)
    representative[keys.keys] = column
    return bool(np.array_equal(representative[keys.keys], column))


def encoded_witness(
    encoded: EncodedMatrix, keys: ColumnarKeys, rhs: int
) -> "tuple[int, int] | None":
    """A row pair sharing a key but differing on ``rhs``, or None.

    The fast scatter check rules out the common (valid) case; only
    genuinely violated candidates pay the stable-sort scan, which makes
    the returned pair deterministic: the first adjacent conflict in
    key-sorted order, ties broken by row order.

    Pure: a read-only scan.
    """
    if encoded_constant_on(encoded, keys, rhs):
        return None
    column = encoded.columns[rhs]
    order = np.argsort(keys.keys, kind="stable")
    sorted_keys = keys.keys[order]
    sorted_labels = column[order]
    adjacent = (sorted_keys[1:] == sorted_keys[:-1]) & (
        sorted_labels[1:] != sorted_labels[:-1]
    )
    position = int(np.nonzero(adjacent)[0][0])
    return int(order[position]), int(order[position + 1])


def agree_masks_from_encoded(
    encoded: EncodedMatrix,
    rows_a: "np.ndarray | list[int]",
    rows_b: "np.ndarray | list[int]",
) -> "list[int]":
    """Agree masks of tuple pairs over the columnar encoding, in pair order.

    Gathers the encoding's per-dtype column blocks
    (:meth:`EncodedMatrix.dtype_blocks`) — one vectorized comparison per
    distinct width, over 1–4 bytes per cell instead of the matrix
    kernel's 8 — and skips cardinality-1 columns, whose pairs agree by
    definition.  Mask values are bit-identical to the int64 kernel's.

    Small pair batches against an encoding whose dtype blocks were never
    materialized gather per column instead: building the blocks is an
    O(rows × columns) copy, which would put a full-relation pass on the
    delta engine's O(batch) append path (DESIGN.md §12) just to compare
    a handful of pairs.  The bypass is bounded per instance: a delta
    append creates a fresh snapshot per batch so it always qualifies,
    while a long-lived encoding serving a stream of small sampling
    batches (a full discovery run) builds its blocks after a couple of
    gathers — per-column gathers repeated hundreds of times cost more
    than the one-time stack they were avoiding.
    """
    index_a = np.asarray(rows_a, dtype=np.intp)
    index_b = np.asarray(rows_b, dtype=np.intp)
    small_gathers = encoded.__dict__.get("_small_gathers", 0)
    if (
        encoded.__dict__.get("_blocks") is None
        and index_a.shape[0] * 4 < encoded.num_rows
        and small_gathers < 2
    ):
        object.__setattr__(encoded, "_small_gathers", small_gathers + 1)
        equal = np.ones(
            (int(index_a.shape[0]), encoded.num_columns), dtype=np.bool_
        )
        for j, column in enumerate(encoded.columns):
            if encoded.cardinalities[j] > 1:
                equal[:, j] = column[index_a] == column[index_b]
        return packed_agree_masks(equal)
    blocks = encoded.dtype_blocks()
    if len(blocks) == 1 and blocks[0][0].size == encoded.num_columns:
        # one width, no constant columns: compare in place, no scatter
        block = blocks[0][1]
        return packed_agree_masks(block[index_a] == block[index_b])
    equal = np.ones(
        (int(index_a.shape[0]), encoded.num_columns), dtype=np.bool_
    )
    for indices, block in blocks:
        equal[:, indices] = block[index_a] == block[index_b]
    return packed_agree_masks(equal)
