"""Atomic writes, canonical JSON serialization and the binary container."""

from __future__ import annotations

import json
import math
import re
import struct

import numpy as np
import pytest

from lcgclab.data import (
    LongTailSpec,
    export_csv,
    load_dataset,
    save_dataset,
    synthesize,
)
from lcgclab import fileio
from lcgclab.errors import ConfigError, ContractError
from lcgclab.fileio import (
    atomic_write_bytes,
    atomic_write_text,
    dump_json,
    read_container,
    write_container,
)
from lcgclab.model import init_mlp, load_checkpoint, save_checkpoint

_DS = synthesize(LongTailSpec(classes=3, dim=4, n_max_labeled=20, n_max_unlabeled=30,
                              gamma_labeled=2.0, gamma_unlabeled=2.0, test_per_class=5))

# Every public writer, on valid arguments but the path.
WRITERS = {
    "atomic_write_bytes": lambda p: atomic_write_bytes(p, b"new"),
    "atomic_write_text": lambda p: atomic_write_text(p, "new"),
    "dump_json": lambda p: dump_json(p, {"new": 1}),
    "write_container": lambda p: write_container(p, "k", {}, {"a": np.ones(2)}),
    "save_dataset": lambda p: save_dataset(_DS, p),
    "export_csv": lambda p: export_csv(_DS, p),
    "save_checkpoint": lambda p: save_checkpoint(init_mlp((4, 8, 3), seed=2), p),
}


def read_dataset_container(p):
    return read_container(p, "dataset")


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

    @pytest.mark.parametrize("existed", [False, True])
    def test_failed_replace_cleans_up(self, tmp_path, monkeypatch, existed):
        """A write that fails at the rename raises ConfigError, removes
        its temp file and leaves the target as it was."""
        p = tmp_path / "f.txt"
        if existed:
            p.write_text("old")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(fileio.os, "replace", refuse)
        with pytest.raises(ConfigError, match="replace refused"):
            atomic_write_text(p, "new")
        assert [q.name for q in tmp_path.iterdir()] == (["f.txt"] if existed else [])
        if existed:
            assert p.read_text() == "old"

    @pytest.mark.parametrize("where", ["directory", "under-a-file"])
    @pytest.mark.parametrize("writer", list(WRITERS))
    def test_unwritable_path_is_a_config_error(self, tmp_path, writer, where):
        """A directory in the target's place, or a path under a regular
        file: ConfigError naming the path, from the OSError; no temp file
        is left, and the file in the way keeps its bytes. Under a file,
        the reason is the one a directory under a file gets."""
        (tmp_path / "d").mkdir()
        (tmp_path / "f").write_bytes(b"kept")
        p = tmp_path / "d" if where == "directory" else tmp_path / "f" / "x.bin"
        why = "" if where == "directory" else "Not a directory$"
        match = re.escape(f"cannot write '{p}': ") + why
        with pytest.raises(ConfigError, match=match) as e:
            WRITERS[writer](p)
        assert isinstance(e.value.__cause__, OSError)
        assert sorted(q.name for q in tmp_path.rglob("*")) == ["d", "f"]
        assert (tmp_path / "f").read_bytes() == b"kept"


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

    @pytest.mark.parametrize(
        "load", [load_dataset, load_checkpoint, read_dataset_container]
    )
    @pytest.mark.parametrize("where", ["missing", "directory", "under-a-file"])
    def test_unreadable_path_names_the_path(self, tmp_path, load, where):
        (tmp_path / "f").write_bytes(b"LCGC")
        p = {"missing": tmp_path / "none.bin", "directory": tmp_path,
             "under-a-file": tmp_path / "f" / "x.bin"}[where]
        with pytest.raises(ConfigError, match=re.escape(f"cannot read '{p}': ")) as e:
            load(p)
        assert isinstance(e.value.__cause__, OSError)

    def test_version_one_header_rejected(self, tmp_path):
        p = tmp_path / "old.bin"
        # The retired dataset header: magic, u16 1, u32 C, d, test_per_class.
        p.write_bytes(b"LCGC" + struct.pack("<HIII", 1, 3, 2, 2) + bytes(64))
        with pytest.raises(ContractError, match="version 1"):
            load_dataset(p)
        with pytest.raises(ContractError, match="version 1"):
            load_checkpoint(p)

    def test_bad_array_table_rejected(self, tmp_path):
        """Each reader raises ContractError on a manifest it cannot read,
        Python's and numpy's refusals included: JSON nested too deep
        (RecursionError), and, with the payload their sizes ask for,
        more than 64 dims and shapes past numpy's size limit (ValueError)."""
        p = tmp_path / "c.bin"
        bad_shapes = [[["a", s]] for s in ([-1, 2], [True, 1], [2.0], "ab", 3)]
        duplicate = [["a", [1]], ["a", [1]]]
        refused = [[1] * 70, [2**63, 0], [0, 2**62, 2**62]]  # 1, 0 and 0 values
        tables = [(t, b"") for t in bad_shapes + [duplicate]]
        tables += [([["a", s]], bytes(8 * math.prod(s))) for s in refused]
        readers = {"dataset": [load_dataset, read_dataset_container],
                   "mlp-checkpoint": [load_checkpoint]}
        for kind, loads in readers.items():
            manifests = [(b"[" * 200000, b"")] + [
                (json.dumps({"arrays": t, "kind": kind, "meta": None}).encode(), payload)
                for t, payload in tables
            ]
            for manifest, payload in manifests:
                header = b"LCGC" + struct.pack("<HI", 2, len(manifest))
                p.write_bytes(header + manifest + payload)
                for load in loads:
                    with pytest.raises(ContractError, match="manifest"):
                        load(p)
