"""How a relation reaches process workers (DESIGN.md §9).

Process workers of :mod:`repro.engine.parallel` need read access to the
relation every kernel runs against.  Pickling it into every task would
ship the whole relation per chunk; instead the coordinator *publishes*
the relation's columnar :class:`~repro.relation.preprocess.EncodedMatrix`
once with :func:`publish_encoded`, which writes the encoded columns to a
memory-mapped file under the temp directory (``repro_mmap_*``).  Tasks
carry only a tiny :class:`MmapEncodedRef`; workers map the file
read-only and cache the attachment per process, so the kernel shares the
page cache across every worker and there is no per-worker copy at all,
just zero-copy ``np.frombuffer`` views.  When the temp directory is
unwritable the publish degrades to :class:`InlineEncoded`, which the
executor's own pickling ships once per task.  Serial and thread pools
share the coordinator's address space and hand tasks the relation
itself.

Workers resolve a handle to an :class:`EncodedView`, which serves every
backend: the columnar kernels read ``encoded_matrix()``, the numpy and
python kernels read ``matrix``, stacked from the narrow columns once per
worker and publication.  Encoded labels equal the int64 matrix's column
for column, so every kernel groups, compares and witnesses exactly as it
would on the coordinator.

Lifecycle: :func:`publish_encoded` returns the handle plus a cleanup
callable that closes *and unlinks* the file.  The worker pool owning the
publication runs the cleanup when it shuts down (and registers it with
``atexit``), so a clean interpreter exit leaves no ``repro_mmap_*`` temp
file behind — the property the CI no-leak check asserts.
"""

from __future__ import annotations

import mmap
import os
import tempfile
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..obs import metric_gauge_add
from ..obs.names import MMAP_BYTES, MMAP_FILES
from ..relation.preprocess import EncodedMatrix

MMAP_PREFIX = "repro_mmap_"
"""Filename prefix of every mmap-backed encoded-matrix file (greppable in
the temp directory)."""

_MMAP_ALIGN = 8
"""Column payloads start on 8-byte boundaries so every ``np.frombuffer``
view is aligned regardless of the preceding columns' widths."""


@dataclass(frozen=True)
class InlineEncoded:
    """The encoded matrix itself — the degradation path for process pools
    without a writable temp dir (the executor's own pickling then ships
    it once per task)."""

    encoded: EncodedMatrix


@dataclass(frozen=True)
class MmapEncodedRef:
    """Descriptor of a published mmap-backed encoded-matrix file."""

    path: str
    dtypes: tuple[str, ...]
    cardinalities: tuple[int, ...]
    num_rows: int
    offsets: tuple[int, ...]


_SEQUENCE = 0


def _next_mmap_path() -> str:
    """A collision-resistant temp-file path, unique per (pid, counter)."""
    global _SEQUENCE
    _SEQUENCE += 1
    return os.path.join(
        tempfile.gettempdir(), f"{MMAP_PREFIX}{os.getpid()}_{_SEQUENCE}"
    )


class MmapSegment:
    """One mmap-backed encoded-matrix file this process owns.

    The publisher-side resource of the transport.  Release protocol
    (RPR109 ``mmap-matrix``): ``close()`` the write handle, then
    ``unlink()`` the temp file.  Workers never hold one of these; they
    attach read-only via :func:`resolve_view`.
    """

    def __init__(self, path: str) -> None:
        """Create (truncate) the backing file and hold the write handle.

        Owns: self
        """
        self.path = path
        self.size = 0
        self._file = open(path, "wb")

    def write_column(self, payload: bytes) -> int:
        """Append one column's bytes at an 8-byte-aligned offset.

        Returns the offset the column starts at, for the handle's
        ``offsets`` metadata.

        Mutates: self
        """
        offset = (self.size + _MMAP_ALIGN - 1) // _MMAP_ALIGN * _MMAP_ALIGN
        if offset > self.size:
            self._file.write(b"\x00" * (offset - self.size))
        self._file.write(payload)
        self.size = offset + len(payload)
        return offset

    def flush(self) -> None:
        """Push buffered column bytes down to the file.

        Required before the handle escapes to workers: a small encoding
        fits entirely in the write handle's userspace buffer, and
        ``mmap`` refuses the still-empty on-disk file.

        Mutates: self
        """
        if self._file is not None:
            self._file.flush()

    def close(self) -> None:
        """Flush and close the write handle (idempotent).

        Mutates: self
        """
        if self._file is not None:
            self._file.close()
            self._file = None

    def unlink(self) -> None:
        """Remove the backing file from the temp directory (idempotent).

        Mutates: self
        """
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass


def _discard_mmap_segment(segment: MmapSegment) -> None:
    """Close and unlink one mmap-backed file this module created.

    Owns: segment via mmap-matrix
    """
    segment.close()
    segment.unlink()


def publish_encoded(encoded: EncodedMatrix) -> tuple[object, Callable[[], None]]:
    """Publish an encoded matrix for process workers; return (handle, cleanup).

    The encoded columns are written once to a ``repro_mmap_*`` file in
    the temp directory and the returned handle is a
    :class:`MmapEncodedRef`; workers map the file read-only, so every
    worker shares the kernel's page cache and no per-worker copy exists.
    The cleanup callable closes and unlinks the file and is safe to call
    more than once.  When the temp dir is unwritable the publish
    degrades to :class:`InlineEncoded` — correct, just shipped per task
    by the executor — and a failure after creation discards the
    half-written file before re-raising.

    Owns: return via call
    """
    try:
        segment = MmapSegment(_next_mmap_path())
    except OSError:
        return InlineEncoded(encoded), lambda: None
    try:
        offsets = tuple(
            segment.write_column(column.tobytes()) for column in encoded.columns
        )
        segment.flush()
        handle = MmapEncodedRef(
            path=segment.path,
            dtypes=encoded.dtypes,
            cardinalities=encoded.cardinalities,
            num_rows=encoded.num_rows,
            offsets=offsets,
        )
    except BaseException:
        # e.g. disk-full mid-write: without this the temp file would
        # outlive the failed publish (RPR109).
        _discard_mmap_segment(segment)
        raise
    done = False
    file_bytes = segment.size
    metric_gauge_add(MMAP_FILES, 1.0)
    metric_gauge_add(MMAP_BYTES, float(file_bytes))

    def cleanup() -> None:
        nonlocal done
        if done:
            return
        done = True
        metric_gauge_add(MMAP_FILES, -1.0)
        metric_gauge_add(MMAP_BYTES, -float(file_bytes))
        _discard_mmap_segment(segment)

    return handle, cleanup


class EncodedView:
    """The relation as a worker process sees it, for every backend.

    Exposes the two accessors the kernels read:
    ``encoded_matrix()`` (the same accessor ``PreprocessedRelation``
    offers) for the columnar backend, and ``matrix`` for the numpy and
    python backends and the matrix-level sampling kernels.
    """

    __slots__ = ("encoded", "_matrix")

    def __init__(self, encoded: EncodedMatrix) -> None:
        self.encoded = encoded
        self._matrix: np.ndarray | None = None

    def encoded_matrix(self) -> EncodedMatrix:
        return self.encoded

    def __reduce__(self) -> tuple[type, tuple[EncodedMatrix]]:
        # The stacked matrix is a cache derived from the encoding: a
        # pickled view (a contract snapshot, a task payload) carries
        # only the encoding, so filling the cache is not a mutation.
        return EncodedView, (self.encoded,)

    @property
    def matrix(self) -> np.ndarray:
        """The label matrix, stacked from the narrow columns on first use.

        The stack keeps the widest encoded dtype rather than int64: the
        label values are the same, and the kernels only compare them or
        fold them through their own guarded int64 arithmetic.
        """
        if self._matrix is None:
            if self.encoded.columns:
                stacked = np.column_stack(self.encoded.columns)
            else:
                stacked = np.empty((self.encoded.num_rows, 0), dtype=np.uint8)
            stacked.setflags(write=False)
            self._matrix = stacked
        return self._matrix

    @property
    def num_rows(self) -> int:
        return int(self.encoded.num_rows)

    @property
    def num_columns(self) -> int:
        return int(self.encoded.num_columns)


# Per-process mmap attachment cache: path -> (mmap object, view), least
# recently used first.  An entry pins the file's pages and the view's
# stacked matrix; the coordinator owns the file's lifecycle.
_ATTACHED: dict[str, tuple[object, EncodedView]] = {}

_ATTACH_LIMIT = 4
"""Attachments one process keeps.  Every append to a relation publishes a
new snapshot, so an unbounded cache would pin each snapshot's pages and
stacked matrix for the worker's lifetime."""


def _attach(ref: MmapEncodedRef) -> EncodedView:
    cached = _ATTACHED.pop(ref.path, None)
    if cached is not None:
        _ATTACHED[ref.path] = cached
        return cached[1]
    mapping = None
    if ref.num_rows == 0 or not ref.dtypes:
        # mmap rejects empty files; zero-row columns need no backing
        columns = tuple(np.empty(0, dtype=np.dtype(name)) for name in ref.dtypes)
    else:
        file = open(ref.path, "rb")
        try:
            mapping = mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ)
        finally:
            # the mapping holds its own reference to the underlying pages
            file.close()
        columns = tuple(
            np.frombuffer(
                mapping, dtype=np.dtype(name), count=ref.num_rows, offset=offset
            )
            for name, offset in zip(ref.dtypes, ref.offsets)
        )
    view = EncodedView(
        EncodedMatrix(
            columns=columns,
            cardinalities=ref.cardinalities,
            num_rows=ref.num_rows,
        )
    )
    _ATTACHED[ref.path] = (mapping, view)
    while len(_ATTACHED) > _ATTACH_LIMIT:
        del _ATTACHED[next(iter(_ATTACHED))]
    return view


def resolve_view(source: object) -> object:
    """The relation a worker task runs against (worker side).

    Mmap handles attach once per process and return the cached
    :class:`EncodedView`; inline handles wrap their encoding, which the
    executor's pickling already rebuilt; anything else is the relation
    itself, handed over in-process by a serial or thread pool.
    """
    if isinstance(source, MmapEncodedRef):
        return _attach(source)
    if isinstance(source, InlineEncoded):
        return EncodedView(source.encoded)
    return source
