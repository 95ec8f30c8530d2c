"""Unit tests for the shared persistence helpers (:mod:`repro.durable`)."""

from __future__ import annotations

import pytest

from repro.durable import atomic_write, durable_append


class TestAtomicWrite:
    def test_replaces_the_file_and_creates_the_parent(self, tmp_path):
        path = tmp_path / "sub" / "entry.bin"
        for blob in (b"first", b"second"):
            with atomic_write(path) as fh:
                fh.write(blob)
            assert path.read_bytes() == blob
        assert [p.name for p in path.parent.iterdir()] == ["entry.bin"]

    @pytest.mark.parametrize("fsync", [False, True])
    def test_failed_write_keeps_the_old_file_and_leaks_no_temp(self, tmp_path, fsync):
        path = tmp_path / "entry.bin"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError), atomic_write(path, fsync=fsync) as fh:
            fh.write(b"torn")
            raise RuntimeError("killed mid-write")
        assert path.read_bytes() == b"old"
        assert list(tmp_path.glob("*.tmp")) == []


class TestDurableAppend:
    def test_appends_in_order_and_creates_the_parent(self, tmp_path):
        path = tmp_path / "sub" / "log.jsonl"
        durable_append(path, b"a\n")
        durable_append(path, b"b\n")
        assert path.read_bytes() == b"a\nb\n"
