"""E-IDX (index structures) — negative-cover indexes and the array cover.

Section IV-D motivates the extended binary tree over the classic FD-tree
("consumes less memory while quickly searching for specializations and
generalizations").  This benchmark replays the exact non-FD stream EulerFD
collects on the plista workload twice:

* **negative-cover construction**, where the three ``LhsIndex``
  implementations still serve — every row must keep the same maximal
  non-FDs;
* **inversion**, on the array-backed positive cover EulerFD uses
  (``array-cover``) and, for comparison, on a positive cover kept in each
  of the three trees with one subset walk per candidate — every row must
  produce the same FD set.
"""

from __future__ import annotations

import pytest

from repro.core.inversion import Inverter
from repro.datasets import registry
from repro.fd import (
    FD,
    BinaryLhsTree,
    BitsetLhsIndex,
    FDTreeIndex,
    NegativeCover,
    attrset,
    sort_for_cover_insertion,
)

FACTORIES = {
    "binary-tree": BinaryLhsTree,
    "fd-tree": FDTreeIndex,
    "bitset": BitsetLhsIndex,
}


@pytest.fixture(scope="module")
def workload():
    """The exact non-FD stream of one EulerFD run on plista."""
    from repro.core import EulerFDConfig
    from repro.core.sampler import SamplingModule
    from repro.relation import preprocess

    relation = registry.make("plista", rows=400, columns=20)
    data = preprocess(relation)
    sampler = SamplingModule(data, EulerFDConfig())
    non_fds: list[FD] = []
    for attribute in range(data.num_columns):
        if data.cardinality(attribute) > 1:
            non_fds.append(FD(0, attribute))
    while sampler.has_more():
        violations, stats = sampler.run_pass()
        if stats.pairs_compared == 0:
            break
        for agree, novel in violations:
            for rhs in attrset.to_indices(novel):
                non_fds.append(FD(agree, rhs))
    return data.num_columns, non_fds


@pytest.fixture(scope="module")
def admitted(workload):
    """The stream's non-FDs that grew the negative cover, in order."""
    num_columns, non_fds = workload
    ncover = NegativeCover(num_columns)
    return [fd for fd in non_fds if ncover.add(fd)]


def build_ncover(factory, num_columns, non_fds):
    ncover = NegativeCover(num_columns, index_factory=factory)
    ncover.add_all(non_fds)
    return frozenset(ncover)


def invert(cover_name, num_columns, non_fds):
    if cover_name == "array-cover":
        inverter = Inverter(num_columns)
        inverter.process(non_fds)
        return frozenset(inverter.pcover)
    return invert_with_trees(FACTORIES[cover_name], num_columns, non_fds)


def invert_with_trees(factory, num_columns, non_fds):
    """Algorithm 3 on one tree per RHS: a subset walk per candidate."""
    trees = [factory() for _ in range(num_columns)]
    for tree in trees:
        tree.add(attrset.EMPTY)
    universe = attrset.universe(num_columns)
    for non_fd in sort_for_cover_insertion(non_fds):
        tree = trees[non_fd.rhs]
        extensions = universe & ~non_fd.lhs & ~attrset.singleton(non_fd.rhs)
        for general in tree.find_subsets(non_fd.lhs):
            tree.remove(general)
            for attr in attrset.to_indices(extensions):
                candidate = general | attrset.singleton(attr)
                if not tree.contains_subset(candidate):
                    tree.add(candidate)
    return frozenset(
        FD(lhs, rhs) for rhs, tree in enumerate(trees) for lhs in tree
    )


@pytest.mark.parametrize("index_name", list(FACTORIES))
def test_ncover_with_index(benchmark, workload, index_name):
    num_columns, non_fds = workload
    result = benchmark.pedantic(
        lambda: build_ncover(FACTORIES[index_name], num_columns, non_fds),
        rounds=1,
        iterations=1,
    )
    reference = build_ncover(BinaryLhsTree, num_columns, non_fds)
    assert result == reference  # all indexes must agree exactly


@pytest.mark.parametrize("cover_name", ["array-cover", *FACTORIES])
def test_inversion_with_cover(benchmark, workload, admitted, cover_name):
    num_columns, _ = workload
    result = benchmark.pedantic(
        invert, args=(cover_name, num_columns, admitted), rounds=1, iterations=1
    )
    assert result == invert("array-cover", num_columns, admitted)
