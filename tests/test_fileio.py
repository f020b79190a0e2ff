"""Atomic writes, canonical JSON serialization and the binary container."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from lcgclab.data import LongTailSpec, load_dataset, save_dataset, synthesize
from lcgclab.errors import ContractError
from lcgclab.fileio import (
    atomic_write_bytes,
    atomic_write_text,
    dump_json,
    read_container,
    write_container,
)
from lcgclab.model import init_mlp, load_checkpoint, save_checkpoint


class TestAtomicWrites:
    def test_writes_bytes(self, tmp_path):
        p = tmp_path / "blob.bin"
        atomic_write_bytes(p, b"\x00\x01payload")
        assert p.read_bytes() == b"\x00\x01payload"

    def test_creates_parent_dirs(self, tmp_path):
        p = tmp_path / "deep" / "nested" / "file.txt"
        atomic_write_text(p, "hello")
        assert p.read_text() == "hello"

    def test_overwrites_in_place(self, tmp_path):
        p = tmp_path / "f.txt"
        atomic_write_text(p, "first")
        atomic_write_text(p, "second")
        assert p.read_text() == "second"

    def test_no_temp_files_left_behind(self, tmp_path):
        p = tmp_path / "f.txt"
        atomic_write_text(p, "data")
        names = {q.name for q in tmp_path.iterdir()}
        assert names == {"f.txt"}


class TestDumpJson:
    def test_sorted_keys_give_stable_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        dump_json(a, {"zebra": 1, "apple": 2})
        dump_json(b, {"apple": 2, "zebra": 1})
        assert a.read_bytes() == b.read_bytes()

    def test_trailing_newline(self, tmp_path):
        p = tmp_path / "x.json"
        dump_json(p, [1, 2])
        text = p.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == [1, 2]


class TestContainer:
    def test_roundtrip_keeps_names_order_shapes_and_meta(self, tmp_path):
        p = tmp_path / "c.bin"
        arrays = {
            "z": np.arange(6.0).reshape(2, 3),
            "a": np.array([1, 2, 3], dtype=np.int64),
            "empty": np.zeros((0, 4)),
        }
        write_container(p, "test", {"k": [1, None]}, arrays)
        meta, back = read_container(p, "test")
        assert meta == {"k": [1, None]}
        assert list(back) == ["z", "a", "empty"]
        for name, a in arrays.items():
            assert back[name].dtype == np.float64
            assert back[name].shape == a.shape
            np.testing.assert_array_equal(back[name], a)

    def test_dataset_read_as_checkpoint_names_the_kind(self, tmp_path):
        p = tmp_path / "pool.bin"
        save_dataset(synthesize(LongTailSpec(seed=3)), p)
        with pytest.raises(ContractError, match="'mlp-checkpoint'"):
            load_checkpoint(p)

    def test_checkpoint_read_as_dataset_names_the_kind(self, tmp_path):
        p = tmp_path / "model.ckpt"
        save_checkpoint(init_mlp((4, 8, 3), seed=2), p)
        with pytest.raises(ContractError, match="'dataset'"):
            load_dataset(p)

    def test_version_one_header_rejected(self, tmp_path):
        p = tmp_path / "old.bin"
        # The retired dataset header: magic, u16 1, u32 C, d, test_per_class.
        p.write_bytes(b"LCGC" + struct.pack("<HIII", 1, 3, 2, 2) + bytes(64))
        with pytest.raises(ContractError, match="version 1"):
            load_dataset(p)
        with pytest.raises(ContractError, match="version 1"):
            load_checkpoint(p)

    def test_bad_array_table_rejected(self, tmp_path):
        p = tmp_path / "c.bin"
        bad_shapes = [[["a", s]] for s in ([-1, 2], [True, 1], [2.0], "ab", 3)]
        duplicate = [["a", [1]], ["a", [1]]]
        for table in bad_shapes + [duplicate]:
            manifest = json.dumps(
                {"arrays": table, "kind": "k", "meta": None}
            ).encode()
            p.write_bytes(
                b"LCGC" + struct.pack("<HI", 2, len(manifest)) + manifest
            )
            with pytest.raises(ContractError, match="manifest"):
                read_container(p, "k")
