"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import glob
import os
import tempfile

import pytest

from repro.datasets import patients
from repro.relation import Relation


@pytest.fixture(scope="session")
def patient_relation() -> Relation:
    """Table I of the paper (9 tuples, 5 attributes N, A, B, G, M)."""
    return patients()


@pytest.fixture()
def tiny_relation() -> Relation:
    """A 4x3 relation with obvious structure: c0 key, c2 constant."""
    return Relation.from_rows(
        [
            (1, "x", 0),
            (2, "x", 0),
            (3, "y", 0),
            (4, "y", 0),
        ],
        ["c0", "c1", "c2"],
        name="tiny",
    )


@pytest.fixture()
def unwritable_tempdir(monkeypatch, tmp_path):
    """Point the temp directory at a path that does not exist, so the
    mmap transport cannot create its file and takes the inline fallback."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))


def mmap_files() -> set[str]:
    """The mmap-transport files currently in the temp directory."""
    from repro.engine.transport import MMAP_PREFIX

    return set(
        glob.glob(os.path.join(tempfile.gettempdir(), f"{MMAP_PREFIX}*"))
    )


def relation_of(rows, name="test"):
    """Shorthand for building relations from row tuples in tests."""
    width = len(rows[0]) if rows else 0
    return Relation.from_rows(rows, [f"c{i}" for i in range(width)], name=name)
