"""Pluggable validation backends (DESIGN.md §8).

A :class:`Backend` owns the three validation kernels every algorithm
needs — fold a LHS into per-row group keys, test RHS constancy within
groups, and extract a witnessing row pair — so the *strategy* (vectorized
numpy vs pure Python) is swappable underneath an unchanged
:class:`~repro.engine.context.ExecutionContext` API.

Three implementations ship:

* :class:`NumpyBackend` — today's vectorized kernels from
  :mod:`repro.relation.validate`, moved behind the protocol.  The
  default.
* :class:`PythonBackend` — a dict-based pure-Python fallback with no
  numpy fast path.  Slower but dependency-light on the hot kernels, and
  the cross-check that keeps the vectorized code honest (the CI engine
  job runs the whole suite under ``REPRO_BACKEND=python``).
* :class:`ColumnarBackend` — fused kernels over the columnar
  :class:`~repro.relation.preprocess.EncodedMatrix`
  (:mod:`repro.engine.columnar`): radix group-key folds over narrow
  dtypes, sort-free constancy checks, and bit-packed agree masks.
  Implements ``prepare`` so the execution layer materializes the
  encoding once, inside the preprocessing phase.

Every backend runs unchanged in process workers: the worker pool ships
each relation's encoding through one mmap file, and the worker-side
view (:class:`~repro.engine.transport.EncodedView`) offers both the
``encoded_matrix()`` the columnar kernels read and the ``matrix`` the
others read.

Selection order: explicit argument, then the ``REPRO_BACKEND``
environment variable, then numpy.
"""

from __future__ import annotations

import os
from typing import Protocol, runtime_checkable

from ..fd import attrset
from ..relation.preprocess import (
    PreprocessedRelation,
    agree_masks_from_matrix,
)
from ..relation.validate import (
    constant_within_groups,
    group_keys,
    rhs_labels,
    violation_within_groups,
)
from .columnar import (
    agree_masks_from_encoded,
    encoded_constant_on,
    encoded_group_keys,
    encoded_of,
    encoded_witness,
)

BACKEND_ENV = "REPRO_BACKEND"
"""Environment variable naming the default backend."""

DEFAULT_BACKEND = "numpy"


@runtime_checkable
class Backend(Protocol):
    """The kernel strategy behind an execution context.

    ``group_keys`` returns an opaque per-row grouping (rows share a key
    iff they agree on every LHS attribute); ``constant_on`` and
    ``witness`` consume that object, so a backend may pick whatever
    representation folds fastest for it.  ``agree_masks`` is the
    sampling-side kernel: bitmasks of agreeing attributes for a batch of
    tuple pairs, bit-identical across backends.

    Backends that validate over a representation other than the label
    matrix may implement ``prepare(data)`` to materialize it up front;
    the execution layer resolves it via ``getattr`` so plain matrix
    backends need not.
    """

    name: str

    def group_keys(self, data: PreprocessedRelation, lhs: int) -> object:
        """Per-row group keys of the projection onto ``lhs``."""

    def constant_on(
        self, data: PreprocessedRelation, keys: object, rhs: int
    ) -> bool:
        """True when every key group is constant on attribute ``rhs``."""

    def witness(
        self, data: PreprocessedRelation, keys: object, rhs: int
    ) -> tuple[int, int] | None:
        """A row pair sharing a key but differing on ``rhs``, or None."""

    def agree_masks(
        self, data: PreprocessedRelation, rows_a: object, rows_b: object
    ) -> list[int]:
        """Agree bitmasks of many tuple pairs, in pair order."""


class NumpyBackend:
    """The vectorized kernels of :mod:`repro.relation.validate`."""

    name = "numpy"

    def group_keys(self, data: PreprocessedRelation, lhs: int) -> object:
        """Guarded positional fold into dense int64 keys.

        Pure: delegates to the read-only numpy kernel.
        """
        return group_keys(data, lhs)

    def constant_on(
        self, data: PreprocessedRelation, keys: object, rhs: int
    ) -> bool:
        """Two ``np.unique`` counts after the guarded RHS fold.

        Pure: a read-only comparison.
        """
        return constant_within_groups(keys, rhs_labels(data, rhs))

    def witness(
        self, data: PreprocessedRelation, keys: object, rhs: int
    ) -> tuple[int, int] | None:
        """Stable-sort scan for an adjacent conflicting pair.

        Pure: a read-only scan.
        """
        return violation_within_groups(keys, rhs_labels(data, rhs))

    def agree_masks(
        self, data: PreprocessedRelation, rows_a: object, rows_b: object
    ) -> list[int]:
        """Vectorized row comparison over the int64 label matrix.

        Pure: delegates to the read-only matrix kernel.
        """
        return agree_masks_from_matrix(data.matrix, rows_a, rows_b)


class PythonBackend:
    """Dict-based pure-Python kernels — no numpy fast path.

    Group keys are plain tuples of the row's LHS labels (Python ints are
    unbounded, so no overflow guard is needed); constancy and witness
    extraction are single passes over a ``dict``.
    """

    name = "python"

    def group_keys(self, data: PreprocessedRelation, lhs: int) -> object:
        """Rows of the label matrix projected onto ``lhs``, as tuples.

        Pure: builds a fresh list; the relation is not mutated.
        """
        columns = list(attrset.to_indices(lhs))
        if not columns:
            return [()] * data.num_rows
        rows = data.matrix[:, columns].tolist()
        return [tuple(row) for row in rows]

    def constant_on(
        self, data: PreprocessedRelation, keys: object, rhs: int
    ) -> bool:
        """One pass remembering the first RHS label per group.

        Pure: a read-only scan.
        """
        labels = data.matrix[:, rhs].tolist()
        first: dict[object, int] = {}
        for key, label in zip(keys, labels):
            seen = first.setdefault(key, label)
            if seen != label:
                return False
        return True

    def witness(
        self, data: PreprocessedRelation, keys: object, rhs: int
    ) -> tuple[int, int] | None:
        """First conflicting pair in row order, with its earliest peer.

        Pure: a read-only scan.
        """
        labels = data.matrix[:, rhs].tolist()
        first: dict[object, tuple[int, int]] = {}
        for row, (key, label) in enumerate(zip(keys, labels)):
            seen = first.setdefault(key, (row, label))
            if seen[1] != label:
                return seen[0], row
        return None

    def agree_masks(
        self, data: PreprocessedRelation, rows_a: object, rows_b: object
    ) -> list[int]:
        """Delegates to the shared matrix kernel.

        Agree masks are defined representation-independently, so the
        pure-Python backend keeps the one vectorized sampling kernel all
        matrix backends share rather than degrading the samplers.

        Pure: delegates to the read-only matrix kernel.
        """
        return agree_masks_from_matrix(data.matrix, rows_a, rows_b)


class ColumnarBackend:
    """Fused kernels over the columnar :class:`EncodedMatrix` encoding.

    Group keys fold radix-style over the narrow encoded columns,
    constancy is a sort-free scatter/gather check, witnesses fall back
    to a stable-sort scan only for genuinely violated candidates, and
    agree masks compare contiguous narrow columns with a bit-packed
    decode (:mod:`repro.engine.columnar`).  FD sets are bit-identical to
    the numpy backend's; only witness pairs may differ (as they already
    do between numpy and python), which the algorithms tolerate.
    """

    name = "columnar"

    def prepare(self, data: PreprocessedRelation) -> None:
        """Materialize the columnar encoding once, ahead of the kernels.

        Called by :class:`~repro.engine.context.ExecutionContext` inside
        the preprocess span so the encode cost lands in the preprocessing
        phase's memory attribution rather than the first validation.
        """
        encoded_of(data)

    def group_keys(self, data: PreprocessedRelation, lhs: int) -> object:
        """Guarded radix fold into dense uint64 keys.

        May materialize the cached encoding on first use (prepare
        normally did already); the relation's labels are never mutated.
        """
        return encoded_group_keys(encoded_of(data), list(attrset.to_indices(lhs)))

    def constant_on(
        self, data: PreprocessedRelation, keys: object, rhs: int
    ) -> bool:
        """Sort-free scatter/gather representative check."""
        return encoded_constant_on(encoded_of(data), keys, rhs)

    def witness(
        self, data: PreprocessedRelation, keys: object, rhs: int
    ) -> tuple[int, int] | None:
        """Stable-sort scan, entered only for violated candidates."""
        return encoded_witness(encoded_of(data), keys, rhs)

    def agree_masks(
        self, data: PreprocessedRelation, rows_a: object, rows_b: object
    ) -> list[int]:
        """Column-at-a-time comparison with bit-packed mask decode."""
        return agree_masks_from_encoded(encoded_of(data), rows_a, rows_b)


_BACKENDS: dict[str, type] = {
    "columnar": ColumnarBackend,
    "numpy": NumpyBackend,
    "python": PythonBackend,
}


def backend_names() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_BACKENDS)


def get_backend(name: str | Backend | None = None) -> Backend:
    """Resolve a backend instance from a name, instance, or the environment.

    An unknown name raises a ``ValueError``; one read from
    ``$REPRO_BACKEND`` names the variable.
    """
    if name is not None and not isinstance(name, str):
        return name
    source = ""
    if name is None:
        name = os.environ.get(BACKEND_ENV) or DEFAULT_BACKEND
        source = f"${BACKEND_ENV}: "
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"{source}unknown backend {name!r}; available: {backend_names()}"
        ) from None
    return factory()
