"""The columnar encoded-matrix layer: encoding, fused kernels, mmap.

Equivalence is the load-bearing property here: the columnar backend must
produce byte-identical FD sets and agree masks to the canonical int64
kernels on every dataset, algorithm, and worker count — the encoding
changes storage width, never label values.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.engine.parallel as parallel
import repro.engine.transport as transport
from repro.algorithms import create
from repro.datasets import registry
from repro.engine import (
    ColumnarBackend,
    ExecutionContext,
    close_all_pools,
    get_backend,
    get_pool,
    use_context,
)
from repro.engine.columnar import (
    agree_masks_from_encoded,
    encoded_constant_on,
    encoded_group_keys,
    encoded_of,
    encoded_witness,
)
from repro.engine.transport import (
    EncodedView,
    InlineEncoded,
    MmapEncodedRef,
    publish_encoded,
    resolve_view,
)
from repro.engine.store import (
    ROW_REF_BYTES,
    label_width_bytes,
    partition_cost_bytes,
)
from repro.relation import Relation, preprocess
from repro.relation.preprocess import (
    EncodedMatrix,
    dtype_for_cardinality,
    encode_matrix,
)

from .conftest import mmap_files


@pytest.fixture(autouse=True)
def fresh_pools():
    close_all_pools()
    yield
    close_all_pools()


def _encoded_of_rows(rows, names=None):
    data = preprocess(Relation.from_rows(rows, names), True)
    return data, data.encoded_matrix()


# -- dtype selection -----------------------------------------------------------


class TestDtypeSelection:
    @pytest.mark.parametrize(
        "cardinality,expected",
        [
            (0, "uint8"),
            (1, "uint8"),
            (256, "uint8"),
            (257, "uint16"),
            (65536, "uint16"),
            (65537, "uint32"),
            (1 << 32, "uint32"),
        ],
    )
    def test_tight_ladder(self, cardinality, expected):
        assert dtype_for_cardinality(cardinality) == np.dtype(expected)

    def test_negative_cardinality_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            dtype_for_cardinality(-1)

    def test_u16_to_u32_promotion_on_real_labels(self):
        """A column crossing 65536 distinct labels promotes to uint32."""
        wide = np.arange(65537, dtype=np.int64).reshape(-1, 1)
        narrow = (np.arange(65537, dtype=np.int64) % 65536).reshape(-1, 1)
        assert encode_matrix(wide).dtypes == ("uint32",)
        assert encode_matrix(narrow).dtypes == ("uint16",)
        # values survive the narrowing cast bit-for-bit
        assert np.array_equal(
            encode_matrix(wide).column(0).astype(np.int64), wide[:, 0]
        )

    def test_single_value_and_all_distinct_columns(self):
        rows = [("k", i) for i in range(300)]
        _, encoded = _encoded_of_rows(rows, ["const", "key"])
        assert encoded.cardinalities == (1, 300)
        assert encoded.dtypes == ("uint8", "uint16")
        assert encoded.row_bytes == 3
        assert np.array_equal(encoded.column(0), np.zeros(300, dtype=np.uint8))

    def test_encoding_matches_matrix_labels(self):
        data, encoded = _encoded_of_rows(
            [(i % 7, i % 3, "x") for i in range(50)]
        )
        assert encoded.num_rows == 50
        assert encoded.num_columns == 3
        for j in range(3):
            assert np.array_equal(
                encoded.column(j).astype(np.int64), data.matrix[:, j]
            )
        assert encoded.nbytes == sum(c.nbytes for c in encoded.columns)

    def test_encoded_matrix_is_cached_and_read_only(self):
        data, encoded = _encoded_of_rows([(1, 2), (3, 4)])
        assert data.encoded is encoded
        assert data.encoded_matrix() is encoded
        with pytest.raises(ValueError):
            encoded.column(0)[0] = 1

    def test_lazy_until_asked(self):
        data = preprocess(Relation.from_rows([(1, 2), (3, 4)]), True)
        assert data.encoded is None
        data.encoded_matrix()
        assert data.encoded is not None


# -- null and degenerate labels ------------------------------------------------


class TestNullAndDegenerateLabels:
    ROWS = [
        ("a", None, ""),
        ("a", None, "x"),
        ("b", "", ""),
        ("b", None, "x"),
        (None, "", None),
    ]

    @pytest.mark.parametrize("null_equals_null", [True, False])
    def test_nan_and_empty_string_parity(self, null_equals_null):
        """NULL/empty-string labels validate identically on all backends."""
        relation = Relation.from_rows(self.ROWS, ["a", "b", "c"])
        contexts = {
            name: ExecutionContext(
                relation, backend=name, null_equals_null=null_equals_null
            )
            for name in ("numpy", "python", "columnar")
        }
        from repro.fd import FD, attrset

        universe = attrset.universe(3)
        for lhs in range(universe + 1):
            for rhs in range(3):
                fd = FD(lhs & ~attrset.singleton(rhs), rhs)
                outcomes = {
                    name: context.fd_holds(fd)
                    for name, context in contexts.items()
                }
                assert len(set(outcomes.values())) == 1, (fd, outcomes)

    def test_empty_relation(self):
        data = preprocess(Relation.from_rows([], ["a", "b"]), True)
        encoded = data.encoded_matrix()
        assert encoded.num_rows == 0
        assert encoded.cardinalities == (0, 0)
        keys = encoded_group_keys(encoded, [0, 1])
        assert keys.num_rows == 0
        assert encoded_constant_on(encoded, keys, 1)

    def test_single_row_relation(self):
        data = preprocess(Relation.from_rows([("x", "y")]), True)
        encoded = data.encoded_matrix()
        keys = encoded_group_keys(encoded, [0])
        assert encoded_constant_on(encoded, keys, 1)
        assert encoded_witness(encoded, keys, 1) is None


# -- kernel equivalence --------------------------------------------------------


class TestKernelEquivalence:
    def test_agree_masks_match_matrix_kernel(self):
        relation = registry.make("fd-reduced-30", rows=200, seed=11)
        data = preprocess(relation, True)
        encoded = data.encoded_matrix()
        rows_a = list(range(150))
        rows_b = list(range(50, 200))
        assert agree_masks_from_encoded(encoded, rows_a, rows_b) == (
            data.agree_masks_bulk(rows_a, rows_b)
        )

    def test_agree_masks_beyond_64_attributes(self):
        """> 64 columns exercises the per-pair decode fallback."""
        rng = np.random.default_rng(5)
        rows = [tuple(rng.integers(0, 3, size=70)) for _ in range(20)]
        data, encoded = _encoded_of_rows(rows)
        rows_a = list(range(10))
        rows_b = list(range(10, 20))
        assert agree_masks_from_encoded(encoded, rows_a, rows_b) == (
            data.agree_masks_bulk(rows_a, rows_b)
        )

    def test_backend_agree_masks_entry_point(self):
        data = preprocess(registry.make("bridges", rows=80, seed=1), True)
        backend = get_backend("columnar")
        assert isinstance(backend, ColumnarBackend)
        rows_a, rows_b = [0, 1, 2, 3], [4, 5, 6, 7]
        assert backend.agree_masks(data, rows_a, rows_b) == (
            data.agree_masks_bulk(rows_a, rows_b)
        )

    def test_witness_is_deterministic_and_violating(self):
        relation = registry.make("echocardiogram", rows=100, seed=3)
        data = preprocess(relation, True)
        encoded = data.encoded_matrix()
        numpy_backend = get_backend("numpy")
        columnar = get_backend("columnar")
        from repro.fd import attrset

        for lhs_bits in range(1, 2 ** min(4, data.num_columns)):
            columns = list(attrset.to_indices(lhs_bits))
            keys = encoded_group_keys(encoded, columns)
            for rhs in range(data.num_columns):
                if (lhs_bits >> rhs) & 1:
                    continue
                pair = encoded_witness(encoded, keys, rhs)
                reference = numpy_backend.witness(
                    data, numpy_backend.group_keys(data, lhs_bits), rhs
                )
                assert pair == columnar.witness(
                    data, columnar.group_keys(data, lhs_bits), rhs
                )
                assert (pair is None) == (reference is None)
                if pair is not None:
                    row_a, row_b = pair
                    agree = data.agree_mask(row_a, row_b)
                    assert lhs_bits & ~agree == 0
                    assert not (agree >> rhs) & 1


# -- cross-backend end-to-end sweep --------------------------------------------


DATASETS = (("echocardiogram", 90), ("bridges", 90), ("fd-reduced-30", 150))
ALGORITHMS = ("tane", "hyfd", "eulerfd")


class TestCrossBackendSweep:
    @pytest.mark.parametrize("dataset,rows", DATASETS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("jobs", ["serial", "process:2"])
    def test_fd_sets_identical_across_backends(self, dataset, rows, algorithm, jobs):
        relation = registry.make(dataset, rows=rows, seed=7)
        results = {}
        for backend in ("numpy", "python", "columnar"):
            context = ExecutionContext(relation, backend=backend, jobs=jobs)
            with use_context(context):
                results[backend] = create(algorithm).discover(relation).fds
        assert results["numpy"] == results["python"]
        assert results["numpy"] == results["columnar"]


# -- mmap transport ------------------------------------------------------------


class TestMmapTransport:
    def test_round_trip(self):
        _, encoded = _encoded_of_rows([(i % 5, i, "k") for i in range(100)])
        before = mmap_files()
        handle, cleanup = publish_encoded(encoded)
        try:
            assert isinstance(handle, MmapEncodedRef)
            assert os.path.exists(handle.path)
            attached = resolve_view(handle).encoded_matrix()
            assert attached.cardinalities == encoded.cardinalities
            assert attached.num_rows == encoded.num_rows
            for j in range(encoded.num_columns):
                assert np.array_equal(attached.column(j), encoded.column(j))
                assert attached.column(j).dtype == encoded.column(j).dtype
        finally:
            cleanup()
        assert mmap_files() == before

    def test_cleanup_is_idempotent(self):
        _, encoded = _encoded_of_rows([(1, 2), (3, 4)])
        handle, cleanup = publish_encoded(encoded)
        cleanup()
        cleanup()
        assert not os.path.exists(handle.path)

    def test_inline_fallback(self, unwritable_tempdir):
        _, encoded = _encoded_of_rows([(1, 2), (3, 4)])
        handle, cleanup = publish_encoded(encoded)
        assert isinstance(handle, InlineEncoded)
        assert resolve_view(handle).encoded_matrix() is encoded
        cleanup()

    def test_empty_relation_round_trip(self):
        """Zero rows must not try to mmap an empty file."""
        data = preprocess(Relation.from_rows([], ["a", "b"]), True)
        encoded = data.encoded_matrix()
        handle, cleanup = publish_encoded(encoded)
        try:
            attached = resolve_view(handle)
            assert attached.num_rows == 0
            assert attached.num_columns == 2
            assert attached.matrix.shape == (0, 2)
        finally:
            cleanup()

    def test_resolve_view_wraps_encoded_handles(self):
        data, encoded = _encoded_of_rows([(1, 2), (3, 4), (1, 4)])
        view = resolve_view(InlineEncoded(encoded))
        assert isinstance(view, EncodedView)
        assert view.num_rows == 3
        assert view.num_columns == 2
        assert view.encoded_matrix() is encoded
        assert (view.matrix == data.matrix).all()
        # serial and thread pools hand tasks the relation itself
        assert resolve_view(data) is data

    def test_attachment_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(transport, "_ATTACHED", {})
        published = [
            publish_encoded(_encoded_of_rows([(i, j) for j in range(8)])[1])
            for i in range(transport._ATTACH_LIMIT + 2)
        ]
        try:
            views = [resolve_view(handle) for handle, _ in published]
            assert len(transport._ATTACHED) == transport._ATTACH_LIMIT
            assert resolve_view(published[-1][0]) is views[-1]
            # the oldest was dropped; attaching again still works
            again = resolve_view(published[0][0])
            assert again is not views[0]
            assert (again.matrix == views[0].matrix).all()
        finally:
            for _, cleanup in published:
                cleanup()

    def test_no_leaked_mmap_files_after_pool_close(self, monkeypatch):
        monkeypatch.setattr(parallel, "MIN_PAIRS_PER_WORKER", 1)
        before = mmap_files()
        data = preprocess(registry.make("fd-reduced-30", rows=200, seed=11), True)
        pool = get_pool("process:2")
        backend = get_backend("columnar")
        masks = parallel.agree_masks_sharded(
            pool, data, list(range(150)), list(range(50, 200)), backend
        )
        assert masks == data.agree_masks_bulk(list(range(150)), list(range(50, 200)))
        close_all_pools()
        assert mmap_files() - before == set()

    def test_mmap_metrics_rise_and_fall(self):
        from repro.obs import names
        from repro.obs.metrics import collecting_metrics

        _, encoded = _encoded_of_rows([(i, i % 3) for i in range(64)])
        with collecting_metrics() as registry_:
            _, cleanup = publish_encoded(encoded)
            assert registry_.gauges[names.MMAP_FILES] == 1.0
            assert registry_.gauges[names.MMAP_BYTES] >= encoded.nbytes
            cleanup()
            assert registry_.gauges[names.MMAP_FILES] == 0.0
            assert registry_.gauges[names.MMAP_BYTES] == 0.0
            cleanup()  # idempotent: a second call must not go negative
            assert registry_.gauges[names.MMAP_FILES] == 0.0


# -- store cost model ----------------------------------------------------------


class TestStoreCostModel:
    def test_label_width_defaults_to_int64(self):
        data = preprocess(Relation.from_rows([(1, 2), (3, 4)]), True)
        assert label_width_bytes(data) == ROW_REF_BYTES

    def test_label_width_follows_widest_encoded_column(self):
        rows = [(i % 3, i) for i in range(300)]
        data, encoded = _encoded_of_rows(rows)
        assert encoded.dtypes == ("uint8", "uint16")
        assert label_width_bytes(data) == 2

    def test_partition_cost_scales_with_row_ref_bytes(self):
        data = preprocess(
            Relation.from_rows([(1, 0), (1, 0), (2, 1), (2, 1)]), True
        )
        partition = data.stripped[0]
        wide = partition_cost_bytes(partition)
        narrow = partition_cost_bytes(partition, 1)
        assert wide is not None and narrow is not None
        assert wide - narrow == (ROW_REF_BYTES - 1) * partition.num_grouped_rows

    def test_partition_cost_none_for_foreign_objects(self):
        assert partition_cost_bytes(object(), 1) is None

    def test_columnar_context_charges_narrow_rows(self):
        relation = registry.make("fd-reduced-30", rows=120, seed=2)
        wide = ExecutionContext(relation, backend="numpy")
        narrow = ExecutionContext(relation, backend="columnar")
        assert wide.partitions.row_ref_bytes == ROW_REF_BYTES
        assert narrow.partitions.row_ref_bytes < ROW_REF_BYTES
        assert (
            narrow.partitions.resident_bytes < wide.partitions.resident_bytes
        )
