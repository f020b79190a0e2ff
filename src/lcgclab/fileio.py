"""Atomic file writes, canonical JSON and the binary container.

Writers go through a temp file in the target directory followed by
os.replace, so a crash never leaves a half-written artifact. Here an
OSError writing or reading a file becomes a ConfigError naming it, and
a failed write removes its temp file. JSON is serialized with sorted
keys so equal payloads produce equal bytes.

Datasets and checkpoints are containers of one layout, little-endian:

    b"LCGC" | u16 version (2) | u32 manifest length |
    manifest: sorted-key JSON {"arrays": [[name, shape], ...],
                               "kind": str, "meta": any} |
    the arrays as f64, C order, in manifest order

``read_container`` owns every byte-level check; callers check only
what their kind's arrays and ``meta`` must mean. A path is a str or a
path-like (``errors.as_path``), a text or a kind a str; anything else
raises ContractError.
"""

from __future__ import annotations

import errno
import json
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, as_instance, as_path

_MAGIC = b"LCGC"
_VERSION = 2
_HEADER = struct.Struct("<4sHI")  # magic, version, manifest length


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    path = as_path(path, "path")
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except FileExistsError as e:  # mkdir's, on a parent that is a regular file
        raise ConfigError(f"cannot write '{path}': {os.strerror(errno.ENOTDIR)}") from e
    except OSError as e:
        raise ConfigError(f"cannot write '{path}': {e.strerror or e}") from e
    finally:  # after the rename, tmp is gone
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, as_instance(text, "text", str).encode("utf-8"))


def dump_json(path: str | Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_container(
    path: str | Path, kind: str, meta, arrays: dict[str, np.ndarray]
) -> None:
    """Atomically write named arrays, stored as f64, and JSON ``meta``;
    equal inputs give equal bytes."""
    blocks = {name: np.asarray(a, dtype="<f8") for name, a in arrays.items()}
    table = [[name, list(a.shape)] for name, a in blocks.items()]
    manifest = json.dumps(
        {"kind": as_instance(kind, "kind", str), "meta": meta, "arrays": table},
        sort_keys=True,
    ).encode("utf-8")
    header = _HEADER.pack(_MAGIC, _VERSION, len(manifest))
    payload = [a.tobytes() for a in blocks.values()]
    atomic_write_bytes(path, b"".join([header, manifest, *payload]))


def read_container(path: str | Path, kind: str) -> tuple[object, dict]:
    """Return (meta, {name: fresh float64 array}) in manifest order.

    A file that cannot be read (missing, a directory) raises ConfigError;
    a foreign, truncated, padded or corrupt one (a manifest too deep
    for JSON or whose shapes numpy refuses included), another kind, and
    a non-finite value raise ContractError."""
    p = as_path(path, "path")
    try:
        raw = p.read_bytes()
    except OSError as e:
        raise ConfigError(f"cannot read '{p}': {e.strerror or e}") from e
    if len(raw) < _HEADER.size or raw[: len(_MAGIC)] != _MAGIC:
        raise ContractError(f"{path}: not an LCGC container (or truncated)")
    _, version, mlen = _HEADER.unpack_from(raw)
    if version != _VERSION:
        raise ContractError(f"{path}: unsupported container version {version}")
    start = _HEADER.size + mlen
    try:  # ValueError includes UnicodeDecodeError and JSONDecodeError
        manifest = json.loads(raw[_HEADER.size : start].decode("utf-8"))
        found, meta = manifest["kind"], manifest["meta"]
        shapes = {name: tuple(shape) for name, shape in manifest["arrays"]}
        # type() rather than isinstance(): a bool is no dimension.
        if len(shapes) != len(manifest["arrays"]) or not all(
            type(n) is int and n >= 0 for shape in shapes.values() for n in shape
        ):
            raise ValueError(f"bad array table {manifest['arrays']}")
    except (ValueError, KeyError, TypeError, RecursionError) as e:  # deep JSON nesting
        raise ContractError(f"{path}: unreadable container manifest ({e})") from None
    if found != as_instance(kind, "kind", str):
        raise ContractError(f"{path}: expected a {kind!r} container, found {found!r}")
    sizes = [math.prod(shape) for shape in shapes.values()]  # ints: no overflow
    if len(raw) != start + 8 * sum(sizes):
        raise ContractError(f"{path}: container truncated or padded")
    values = np.frombuffer(raw, dtype="<f8", offset=start)
    if not np.isfinite(values).all():
        raise ContractError(f"{path}: non-finite value in container")
    arrays, off = {}, 0
    try:  # numpy refuses over 64 dims, and a shape past intp even when empty
        for (name, shape), size in zip(shapes.items(), sizes):
            arrays[name] = values[off : off + size].astype(np.float64).reshape(shape)
            off += size
    except ValueError as e:
        raise ContractError(f"{path}: unreadable container manifest ({e})") from None
    return meta, arrays
