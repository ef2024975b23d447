"""Tests for CSV input/output."""

from __future__ import annotations

import pytest

from repro.datasets import patients
from repro.relation import Relation, read_csv, write_csv


class TestRoundtrip:
    def test_write_then_read(self, tmp_path, patient_relation):
        path = tmp_path / "patients.csv"
        write_csv(patient_relation, path)
        loaded = read_csv(path)
        assert loaded.column_names == patient_relation.column_names
        assert loaded.num_rows == patient_relation.num_rows
        # Values come back as strings; Age 60 -> "60".
        assert loaded.row(0) == ("Kelly", "60", "High", "Female", "drugA")

    def test_nulls_roundtrip(self, tmp_path):
        relation = Relation.from_rows([("a", None), (None, "b")], ["x", "y"])
        path = tmp_path / "nulls.csv"
        write_csv(relation, path)
        loaded = read_csv(path)
        assert loaded.row(0) == ("a", None)
        assert loaded.row(1) == (None, "b")


class TestRead:
    def test_max_rows(self, tmp_path, patient_relation):
        path = tmp_path / "patients.csv"
        write_csv(patient_relation, path)
        loaded = read_csv(path, max_rows=3)
        assert loaded.num_rows == 3

    def test_no_header(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1,2\n3,4\n")
        loaded = read_csv(path, has_header=False)
        assert loaded.column_names == ("col_0", "col_1")
        assert loaded.num_rows == 2

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "semi.csv"
        path.write_text("a;b\n1;2\n")
        loaded = read_csv(path, delimiter=";")
        assert loaded.column_names == ("a", "b")

    def test_custom_null_token(self, tmp_path):
        path = tmp_path / "na.csv"
        path.write_text("a,b\nNA,2\n")
        loaded = read_csv(path, null_token="NA")
        assert loaded.row(0) == (None, "2")

    def test_relation_name_from_stem(self, tmp_path):
        path = tmp_path / "mydata.csv"
        path.write_text("a\n1\n")
        assert read_csv(path).name == "mydata"
        assert read_csv(path, name="override").name == "override"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="row 1"):
            read_csv(path)

    def test_header_only_gives_empty_relation(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,b\n")
        loaded = read_csv(path)
        assert loaded.shape == (0, 2)

    def test_byte_order_mark_stripped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n")
        loaded = read_csv(path)
        assert loaded.column_names == ("a", "b")
        assert loaded.row(0) == ("1", "2")

    def test_duplicate_column_names_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,b,a\n1,2,3\n")
        with pytest.raises(ValueError, match=r"repeated: \['a'\]"):
            read_csv(path)
