# repro-lint: disable-file=RPR002 — the positive cover's word encoding
# splits LHS masks into 64-bit words and back; that conversion is the
# storage format itself and stays private to this module.
"""Negative and positive covers (Definition 5).

The *negative cover* collects non-FDs.  Because a non-FD ``X -/-> A``
implies that every generalization ``Y ⊂ X`` is also a non-FD (Lemma 1),
only the maximal invalid LHSs need storing; the cover therefore keeps, per
RHS attribute, an antichain of maximal LHS masks.  It delegates its
subset/superset searches to a pluggable
:class:`~repro.fd.lhs_index.LhsIndex`; the default is the extended binary
tree of Section IV-D.

The *positive cover* collects the minimal valid FDs produced by the
inversion module; per RHS attribute it keeps an antichain of minimal LHS
masks.  It is array-backed: one ``uint64`` array of LHS words per RHS, so
that inverting a non-FD (:meth:`PositiveCover.specialize`) is a few
whole-array mask operations rather than one tree walk per candidate.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..obs import counter
from ..obs.names import (
    NCOVER_ADDED,
    NCOVER_GENERALIZATIONS_EVICTED,
    PCOVER_ADDED,
    PCOVER_REMOVED,
    PCOVER_SPECIALIZATIONS_EVICTED,
)
from . import attrset
from .binary_tree import BinaryLhsTree
from .fd import FD
from .lhs_index import LhsIndex

IndexFactory = Callable[[], LhsIndex]
"""Zero-argument callable building an empty LHS index."""

_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1
_ONE = np.uint64(1)


def default_index_factory() -> LhsIndex:
    """The negative cover's index: the extended binary LHS tree."""
    return BinaryLhsTree()


class NegativeCover:
    """Per-RHS antichains of *maximal* invalid LHSs.

    ``add`` implements the insertion step of Algorithm 2: a non-FD already
    specialized by a stored one is redundant and is dropped; conversely a
    newly inserted non-FD evicts every stored generalization so the
    antichain property (and minimal storage) is preserved even when
    insertions arrive across several sampling cycles in arbitrary order.
    """

    __slots__ = ("num_attributes", "_trees", "_size")

    def __init__(
        self,
        num_attributes: int,
        index_factory: IndexFactory | None = None,
    ) -> None:
        if num_attributes <= 0:
            raise ValueError(
                f"a relation needs at least one attribute, got {num_attributes}"
            )
        # Resolved at call time so tests can swap the module-level default.
        factory = index_factory if index_factory is not None else default_index_factory
        self.num_attributes = num_attributes
        self._trees: list[LhsIndex] = [factory() for _ in range(num_attributes)]
        self._size = 0

    def add(self, non_fd: FD) -> bool:
        """Insert a non-FD; return True when the cover grew.

        Trivial "non-FDs" (RHS contained in LHS) cannot occur — a tuple
        pair agreeing on the LHS agrees on every LHS attribute — and are
        rejected loudly to catch caller bugs.

        Mutates: self
        Monotone: self via covers
            (the covered set of non-FDs only grows: evicted
            generalizations stay covered by their evictor — the
            append-only promise inversion relies on between cycles)
        """
        if non_fd.is_trivial():
            raise ValueError(f"trivial non-FD cannot be violated: {non_fd}")
        tree = self._trees[non_fd.rhs]
        if tree.contains_superset(non_fd.lhs):
            return False
        evicted = 0
        for general in tree.find_subsets(non_fd.lhs):
            tree.remove(general)
            self._size -= 1
            evicted += 1
        tree.add(non_fd.lhs)
        self._size += 1
        counter(NCOVER_ADDED)
        if evicted:
            counter(NCOVER_GENERALIZATIONS_EVICTED, evicted)
        return True

    def add_all(self, non_fds: Iterable[FD]) -> int:
        """Insert many non-FDs; return the number that grew the cover.

        Mutates: self
        Monotone: self via covers
        """
        return sum(1 for non_fd in non_fds if self.add(non_fd))

    def covers(self, fd: FD) -> bool:
        """True when ``fd`` is known-invalid (generalizes a stored non-FD).

        Pure: a read-only superset query.
        """
        return self._trees[fd.rhs].contains_superset(fd.lhs)

    def lhs_masks(self, rhs: int) -> list[int]:
        """The stored maximal invalid LHS masks for attribute ``rhs``.

        Pure: snapshots the index without touching it.
        """
        return list(self._trees[rhs])

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[FD]:
        for rhs, tree in enumerate(self._trees):
            for lhs in tree:
                yield FD(lhs, rhs)

    def __contains__(self, non_fd: FD) -> bool:
        return non_fd.lhs in self._trees[non_fd.rhs]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NegativeCover(attributes={self.num_attributes}, size={self._size})"


class PositiveCover:
    """Per-RHS antichains of *minimal* valid LHSs, stored as ``uint64`` rows.

    Freshly constructed covers contain the most general candidate
    ``{} -> A`` for every attribute ``A`` (Algorithm 3, lines 1-2); the
    inversion module then specializes candidates against the negative
    cover through :meth:`specialize`.

    Each RHS owns one ``uint64`` array of shape ``(k, W)`` with
    ``W = ceil(num_attributes / 64)``: row ``i`` is the ``i``-th stored
    LHS, word ``j`` holding attributes ``64j .. 64j + 63``.  Every subset
    or superset query is then a handful of whole-array mask operations
    instead of one tree walk per mask.  Row order is arbitrary; iteration
    and :meth:`lhs_masks` sort by LHS value.
    """

    __slots__ = ("num_attributes", "_num_words", "_bits", "_masks", "_size")

    def __init__(
        self,
        num_attributes: int,
        seed_most_general: bool = True,
    ) -> None:
        if num_attributes <= 0:
            raise ValueError(
                f"a relation needs at least one attribute, got {num_attributes}"
            )
        self.num_attributes = num_attributes
        self._num_words = -(-num_attributes // _WORD_BITS)
        # Row ``a`` is the singleton set {a}: the extension bits of Alg. 3.
        self._bits = np.stack(
            [self._row(attrset.singleton(a)) for a in range(num_attributes)]
        )
        seeded = 1 if seed_most_general else 0
        self._masks: list[np.ndarray] = [
            np.zeros((seeded, self._num_words), dtype=np.uint64)
            for _ in range(num_attributes)
        ]
        self._size = seeded * num_attributes

    # -- encoding ----------------------------------------------------------

    def _row(self, lhs: int) -> np.ndarray:
        """One LHS mask as a ``(W,)`` word vector."""
        return np.array(
            [(lhs >> (_WORD_BITS * word)) & _WORD_MASK
             for word in range(self._num_words)],
            dtype=np.uint64,
        )

    def _subsets_of(self, fd: FD) -> np.ndarray:
        """Which stored rows for ``fd.rhs`` are subsets of ``fd.lhs``."""
        return ((self._masks[fd.rhs] & ~self._row(fd.lhs)) == 0).all(axis=1)

    @staticmethod
    def _decode(rows: np.ndarray) -> list[int]:
        """The ``(k, W)`` word array back as Python int masks, row order."""
        values = rows[:, -1].tolist()
        for word in range(rows.shape[1] - 2, -1, -1):
            values = [
                (high << _WORD_BITS) | low
                for high, low in zip(values, rows[:, word].tolist())
            ]
        return values

    # -- mutation ----------------------------------------------------------

    def add(self, fd: FD) -> bool:
        """Insert an FD candidate unless a stored generalization exists.

        Mutates: self
        Monotone: self via has_generalization
            (minimality only improves: every FD the cover implied
            before — itself or via a generalization — is still implied
            after insertion)
        """
        if fd.is_trivial():
            raise ValueError(f"refusing to store trivial FD: {fd}")
        if self._subsets_of(fd).any():
            return False
        stored = self._masks[fd.rhs]
        row = self._row(fd.lhs)
        special = ((row & ~stored) == 0).all(axis=1)
        evicted = int(special.sum())
        self._masks[fd.rhs] = np.concatenate((stored[~special], row[None, :]))
        self._size += 1 - evicted
        counter(PCOVER_ADDED)
        if evicted:
            counter(PCOVER_SPECIALIZATIONS_EVICTED, evicted)
        return True

    def specialize(self, non_fd: FD) -> tuple[int, int]:
        """Invert one non-FD ``X -/-> A`` (Algorithm 3, lines 11-20).

        Every stored LHS ``g ⊆ X`` is invalid (Lemma 1) and is removed.
        Its replacements are the candidates ``g ∪ {b}`` for every
        attribute ``b`` outside ``X ∪ {A}``, minus those that a surviving
        stored LHS already generalizes.  Returns ``(removed, added)``.

        No deduplication or candidate-vs-candidate minimality check is
        needed.  The removed LHSs ``G`` are an antichain, all inside
        ``X``, and every extension bit lies outside ``X``.  If
        ``g ∪ {b} ⊆ g' ∪ {b'}`` then ``g ⊆ g' ∪ {b'}``, and as
        ``b' ∉ X ⊇ g`` this gives ``g ⊆ g'``, so ``g = g'`` (antichain);
        then ``b ∈ g ∪ {b'}`` with ``b ∉ g`` gives ``b = b'``.  So the
        candidates are pairwise distinct and none contains another.  A
        surviving stored LHS cannot be a superset of a candidate either:
        it would then contain ``g``, but the cover was an antichain.

        Mutates: self
        """
        rhs = non_fd.rhs
        stored = self._masks[rhs]
        row = self._row(non_fd.lhs)
        outside = stored & ~row
        inside = (outside == 0).all(axis=1)
        generals = stored[inside]
        removed = len(generals)
        if not removed:
            return 0, 0
        kept = stored[~inside]
        free = ((self._bits & row) == 0).all(axis=1)
        free[rhs] = False
        extensions = self._bits[free]
        candidates = (generals[:, None, :] | extensions[None, :, :]).reshape(
            -1, self._num_words
        )
        # A kept LHS generalizing ``g ∪ {b}`` lies outside ``X`` only by
        # ``b``, so only rows with at most one bit per word outside ``X``
        # can drop a candidate; the broadcast checks just those.
        sparse = ((outside & (outside - _ONE)) == 0).all(axis=1)
        near = stored[sparse & ~inside]
        dominated = (
            (near[:, None, :] & ~candidates[None, :, :]) == 0
        ).all(axis=2).any(axis=0)
        fresh = candidates[~dominated]
        added = len(fresh)
        self._masks[rhs] = np.concatenate((kept, fresh))
        self._size += added - removed
        counter(PCOVER_REMOVED, removed)
        if added:
            counter(PCOVER_ADDED, added)
        return removed, added

    # -- queries -----------------------------------------------------------

    def find_generalizations(self, non_fd: FD) -> list[int]:
        """All stored LHSs for ``non_fd.rhs`` that are subsets of its LHS.

        Pure: a read-only subset query.
        """
        inside = self._subsets_of(non_fd)
        return sorted(self._decode(self._masks[non_fd.rhs][inside]))

    def has_generalization(self, fd: FD) -> bool:
        """True when a stored LHS is a subset of ``fd``'s LHS.

        Pure: a read-only subset query.
        """
        return bool(self._subsets_of(fd).any())

    def lhs_masks(self, rhs: int) -> list[int]:
        """The stored minimal LHS masks for attribute ``rhs``, ascending."""
        return sorted(self._decode(self._masks[rhs]))

    def to_fd_set(self) -> frozenset[FD]:
        """Snapshot the cover as a set of FDs."""
        return frozenset(self)

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[FD]:
        for rhs in range(self.num_attributes):
            for lhs in self.lhs_masks(rhs):
                yield FD(lhs, rhs)

    def __contains__(self, fd: FD) -> bool:
        stored = self._masks[fd.rhs]
        return bool((stored == self._row(fd.lhs)).all(axis=1).any())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PositiveCover(attributes={self.num_attributes}, size={self._size})"


def minimal_cover_from_fds(fds: Iterable[FD], num_attributes: int) -> set[FD]:
    """Reduce an arbitrary FD collection to its non-trivial minimal members.

    Utility for baselines and tests: drops trivial FDs and every FD with a
    stored generalization over the same RHS.
    """
    by_rhs: dict[int, list[int]] = {}
    for fd in fds:
        if fd.is_trivial():
            continue
        by_rhs.setdefault(fd.rhs, []).append(fd.lhs)
    minimal: set[FD] = set()
    for rhs, masks in by_rhs.items():
        masks.sort(key=attrset.size)
        kept: list[int] = []
        for mask in masks:
            if any(kept_mask & ~mask == 0 for kept_mask in kept):
                continue
            kept.append(mask)
        minimal.update(FD(mask, rhs) for mask in kept)
    return minimal


def attribute_frequency_priority(
    non_fds: Iterable[FD], num_attributes: int
) -> Sequence[int]:
    """Rank attributes by ascending frequency across non-FD LHSs.

    Algorithm 2 sorts LHS attributes in ascending order of frequency so
    that rare attributes discriminate near the root of the binary tree;
    this helper turns a non-FD sample into the corresponding priority
    vector for :class:`~repro.fd.binary_tree.BinaryLhsTree`.
    """
    counts = [0] * num_attributes
    for non_fd in non_fds:
        for index in attrset.to_indices(non_fd.lhs):
            counts[index] += 1
    order = sorted(range(num_attributes), key=lambda i: (counts[i], i))
    priority = [0] * num_attributes
    for rank, index in enumerate(order):
        priority[index] = rank
    return priority
