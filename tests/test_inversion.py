"""Tests for the inversion module (Algorithm 3)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import aidfd, fdep, hyfd
from repro.core import eulerfd
from repro.core.inversion import InversionStats, Inverter
from repro.datasets import registry
from repro.fd import (
    FD,
    BinaryLhsTree,
    NegativeCover,
    attrset,
    sort_for_cover_insertion,
)

# Patient attribute initials: N=0, A=1, B=2, G=3, M=4.
N, A, B, G, M = range(5)


class TreeCover:
    """A positive cover kept as one :class:`BinaryLhsTree` per RHS."""

    def __init__(self, num_attributes: int) -> None:
        self.trees = [BinaryLhsTree(iter([attrset.EMPTY])) for _ in range(num_attributes)]

    def __len__(self) -> int:
        return sum(len(tree) for tree in self.trees)

    def __iter__(self):
        for rhs, tree in enumerate(self.trees):
            for lhs in tree:
                yield FD(lhs, rhs)


class ReferenceInverter:
    """Algorithm 3 as per-candidate tree walks: the differential reference.

    Every generalization of a non-FD is removed from the RHS's tree and
    each of its one-attribute extensions outside ``X ∪ {A}`` is inserted
    unless the tree already holds a subset of it.
    """

    def __init__(self, num_attributes: int) -> None:
        self.num_attributes = num_attributes
        self.pcover = TreeCover(num_attributes)
        self._universe = attrset.universe(num_attributes)

    def process(self, non_fds) -> InversionStats:
        stats = InversionStats()
        for non_fd in sort_for_cover_insertion(non_fds):
            tree = self.pcover.trees[non_fd.rhs]
            extensions = (
                self._universe & ~non_fd.lhs & ~attrset.singleton(non_fd.rhs)
            )
            for general in tree.find_subsets(non_fd.lhs):
                tree.remove(general)
                stats.candidates_removed += 1
                for attr in attrset.to_indices(extensions):
                    candidate = general | attrset.singleton(attr)
                    if not tree.contains_subset(candidate):
                        tree.add(candidate)
                        stats.candidates_added += 1
            stats.non_fds_processed += 1
        return stats


def minimal_escaping_sets(non_fd_lhss: list[int], num_attributes: int, rhs: int):
    """Oracle: minimal LHSs (without rhs) not contained in any invalid LHS."""
    allowed = attrset.universe(num_attributes) & ~attrset.singleton(rhs)
    escaping = [
        mask
        for mask in attrset.all_subsets(allowed)
        if not any(mask & ~bad == 0 for bad in non_fd_lhss)
    ]
    minimal = set()
    for mask in sorted(escaping, key=attrset.size):
        if not any(attrset.is_subset(kept, mask) for kept in minimal):
            minimal.add(mask)
    return minimal


class TestPaperFigure5:
    """Inversion for RHS Name with non-FDs MBG, AG, AMB (Fig. 5)."""

    def run_inversion(self):
        inverter = Inverter(5)
        non_fds = [FD.of([M, B, G], N), FD.of([A, G], N), FD.of([A, M, B], N)]
        stats = inverter.process(non_fds)
        return inverter, stats

    def test_final_cover_matches_figure(self):
        inverter, _ = self.run_inversion()
        got = set(inverter.pcover.lhs_masks(N))
        expected = {
            attrset.from_indices([A, B, G]),
            attrset.from_indices([A, M, G]),
        }
        assert got == expected

    def test_most_general_candidate_removed(self):
        inverter, _ = self.run_inversion()
        assert FD(0, N) not in inverter.pcover

    def test_other_rhs_untouched(self):
        inverter, _ = self.run_inversion()
        assert FD(0, A) in inverter.pcover  # still the seeded {} -> A

    def test_stats_counted(self):
        _, stats = self.run_inversion()
        assert stats.non_fds_processed == 3
        assert stats.candidates_removed >= 3
        assert stats.candidates_added >= 2


class TestIteration:
    def test_lhs_ascending_per_rhs(self):
        """The cover iterates by RHS, then ascending LHS, whatever the
        order inversion produced its entries in."""
        inverter = Inverter(4)
        for lhs in ([], [0], [1]):
            inverter.process([FD.of(lhs, 3)])
        # {1} was replaced by {0, 1}, which sorts before the kept {2}.
        assert inverter.pcover.lhs_masks(3) == [0b0011, 0b0100]
        assert [fd for fd in inverter.pcover if fd.rhs == 3] == [
            FD(0b0011, 3), FD(0b0100, 3)
        ]


class TestIncrementalEquivalence:
    """Processing non-FDs in one batch or in arbitrary splits/orders must
    produce the same positive cover (the property the double cycle relies
    on)."""

    def test_split_processing_matches_batch(self):
        non_fds = [FD.of([M, B, G], N), FD.of([A, G], N), FD.of([A, M, B], N)]
        batch = Inverter(5)
        batch.process(non_fds)
        split = Inverter(5)
        split.process(non_fds[:1])
        split.process(non_fds[1:])
        assert set(batch.pcover) == set(split.pcover)

    def test_order_independence(self):
        non_fds = [FD.of([M, B, G], N), FD.of([A, G], N), FD.of([A, M, B], N)]
        forward = Inverter(5)
        forward.process(non_fds)
        backward = Inverter(5)
        backward.process(list(reversed(non_fds)))
        assert set(forward.pcover) == set(backward.pcover)

    def test_reprocessing_is_idempotent(self):
        non_fds = [FD.of([A, G], N), FD.of([M, B, G], N)]
        inverter = Inverter(5)
        inverter.process(non_fds)
        snapshot = set(inverter.pcover)
        stats = inverter.process(non_fds)
        assert set(inverter.pcover) == snapshot
        assert stats.candidates_removed == 0


class TestAgainstOracle:
    masks6 = st.integers(min_value=0, max_value=(1 << 6) - 1)

    @given(st.lists(masks6, max_size=14), st.integers(min_value=0, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_inversion_computes_minimal_escaping_family(self, lhss, rhs):
        rhs_bit = attrset.singleton(rhs)
        non_fds = [FD(lhs & ~rhs_bit, rhs) for lhs in lhss]
        inverter = Inverter(6)
        inverter.process(non_fds)
        expected = minimal_escaping_sets(
            [fd.lhs for fd in non_fds], 6, rhs
        )
        assert set(inverter.pcover.lhs_masks(rhs)) == expected

    @given(
        st.lists(st.tuples(masks6, st.integers(min_value=0, max_value=5)),
                 max_size=20),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_incremental_matches_batch_random_split(self, raw, data):
        non_fds = [FD(lhs & ~attrset.singleton(rhs), rhs) for lhs, rhs in raw]
        cut = data.draw(st.integers(min_value=0, max_value=len(non_fds)))
        batch = Inverter(6)
        batch.process(non_fds)
        split = Inverter(6)
        split.process(non_fds[:cut])
        split.process(non_fds[cut:])
        assert set(batch.pcover) == set(split.pcover)


class TestNegativeCoverIntegration:
    def test_inverting_cover_contents_prunes_redundant_non_fds(self):
        """Feeding a cover's minimized contents equals feeding everything."""
        raw = [
            FD.of([A, M, B], N), FD.of([B, G], N), FD.of([M, B, G], N),
            FD.of([A, G], N), FD.of([A], B), FD.of([A, G], B),
        ]
        cover = NegativeCover(5)
        admitted = [fd for fd in raw if cover.add(fd)]
        from_cover = Inverter(5)
        from_cover.process(cover)
        from_raw = Inverter(5)
        from_raw.process(raw)
        assert set(from_cover.pcover) == set(from_raw.pcover)
        assert len(admitted) <= len(raw)


# Small widths, the word boundaries of the uint64 layout (63 | 64 | 65,
# 128), and any width up to 130.
WIDTHS = st.one_of(
    st.sampled_from([1, 2, 3, 4, 5, 63, 64, 65, 127, 128, 129, 130]),
    st.integers(min_value=1, max_value=130),
)


@st.composite
def non_fd_batches(draw):
    """A width and 1-3 batches of non-FDs over it.

    An LHS is either a few attributes or all but a few, so that both the
    generalization and the extension side of Algorithm 3 get exercised
    without the cover exploding at width 130.
    """
    width = draw(WIDTHS)
    attrs = st.lists(
        st.integers(min_value=0, max_value=width - 1), max_size=4
    )
    universe = attrset.universe(width)
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        batch = []
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            lhs = attrset.from_indices(draw(attrs))
            if draw(st.booleans()):
                lhs = universe & ~lhs
            # Few distinct RHSs, so that non-FDs meet in one RHS's cover.
            rhs = draw(st.sampled_from(sorted({0, width // 2, width - 1})))
            batch.append(FD(lhs & ~attrset.singleton(rhs), rhs))
        batches.append(batch)
    return width, batches


class TestDifferentialAgainstTreeInverter:
    """The array-backed cover equals per-candidate tree walks exactly."""

    @given(non_fd_batches())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_cover_and_stats_match_after_every_batch(self, case):
        width, batches = case
        inverter = Inverter(width)
        reference = ReferenceInverter(width)
        for batch in batches:
            assert inverter.process(batch) == reference.process(batch)
            # Iteration order matters too: HyFD validates list(pcover).
            assert list(inverter.pcover) == list(reference.pcover)
            assert len(inverter.pcover) == len(reference.pcover)

    @pytest.mark.parametrize(
        "module, name",
        [(eulerfd, "EulerFD"), (fdep, "Fdep"), (hyfd, "HyFD"), (aidfd, "AidFd")],
        ids=["eulerfd", "fdep", "hyfd", "aidfd"],
    )
    def test_algorithms_unchanged_beyond_one_word(self, monkeypatch, module, name):
        relation = registry.make("uniprot", rows=5, columns=66)
        algorithm = getattr(module, name)
        with_arrays = algorithm().discover(relation).fds
        monkeypatch.setattr(module, "Inverter", ReferenceInverter)
        with_trees = algorithm().discover(relation).fds
        assert with_arrays == with_trees
        assert any(fd.rhs >= 64 or fd.lhs > attrset.universe(64) for fd in with_arrays)
