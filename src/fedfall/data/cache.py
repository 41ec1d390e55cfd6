"""Binary dataset cache and its human-readable summary.

Layout: magic bytes, a 4-byte little-endian JSON header length, the JSON
header (window/feature sizes, counts, labels, origins), then the train and
test window values as contiguous little-endian float64 blocks, and
nothing after them.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from fedfall.data.split import DatasetSplit
from fedfall.data.windows import SequenceWindow, check_window_shapes

MAGIC = b"EPFLDS1"


def _window_block(windows: list[SequenceWindow]) -> bytes:
    if not windows:
        return b""
    try:
        block = np.stack([w.values for w in windows])
    except ValueError:
        check_window_shapes(windows)
        raise
    return block.astype("<f8").tobytes()


def save_dataset(path, split: DatasetSplit) -> None:
    """Write the cache to ``path`` and its summary to ``path.summary.txt``."""
    path = Path(path)
    for name, group in (("train", split.train), ("test", split.test)):
        if group:
            t, f = group[0].values.shape
            break
    else:
        raise ValueError("empty dataset")
    header = {
        "window": t,
        "features": f,
        "n_train": len(split.train),
        "n_test": len(split.test),
        "train_labels": [w.label for w in split.train],
        "test_labels": [w.label for w in split.test],
        "train_origins": [list(w.origin) for w in split.train],
        "test_origins": [list(w.origin) for w in split.test],
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(blob).to_bytes(4, "little"))
        fh.write(blob)
        fh.write(_window_block(split.train))
        fh.write(_window_block(split.test))
    Path(str(path) + ".summary.txt").write_text(summary_text(split), encoding="utf-8")


_HEADER_KEYS = (
    "window", "features", "n_train", "n_test",
    "train_labels", "test_labels", "train_origins", "test_origins",
)
# The header's sizes and the least value each may take.
_HEADER_SIZES = (("window", 1), ("features", 1), ("n_train", 0), ("n_test", 0))


def _read_exact(fh, size: int, path) -> bytes:
    """Read ``size`` bytes, first checking that the file still holds them,
    so that a corrupt size in the header cannot force a huge allocation."""
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError(f"{path}: truncated dataset cache")
    return fh.read(size)


def _window_meta(path, name: str, i: int, label, origin) -> tuple[int, tuple[str, str, int]]:
    """Check one window's label (0 or 1) and origin ([str, str, int])."""
    if type(label) is not int or label not in (0, 1):
        raise ValueError(f"{path}: {name}_labels[{i}] is {label!r}, not 0 or 1")
    if not (
        isinstance(origin, list)
        and len(origin) == 3
        and isinstance(origin[0], str)
        and isinstance(origin[1], str)
        and type(origin[2]) is int
    ):
        raise ValueError(
            f"{path}: {name}_origins[{i}] is {origin!r}, not [individual, sequence, start]"
        )
    return label, tuple(origin)


def load_dataset(path) -> DatasetSplit:
    """Read a cache written by ``save_dataset``; raise ValueError naming
    ``path`` on any other file, including a header that lacks a key, whose
    sizes are not integers in range, whose labels and origins are not lists
    as long as its window counts, or that holds a label other than 0/1 or an
    origin that is not [str, str, int], and on a window that holds a NaN or
    an infinity, naming its origin.

    Each group's windows are read-only views of one block."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise ValueError(f"{path}: not a dataset cache")
        hlen = int.from_bytes(fh.read(4), "little")
        blob = _read_exact(fh, hlen, path)
        try:
            header = json.loads(blob.decode("utf-8"))
        except ValueError as exc:
            raise ValueError(f"{path}: unreadable cache header ({exc})") from None
        if not isinstance(header, dict):
            raise ValueError(f"{path}: cache header is not a JSON object")
        missing = [k for k in _HEADER_KEYS if k not in header]
        if missing:
            raise ValueError(f"{path}: cache header lacks {', '.join(missing)}")
        for key, least in _HEADER_SIZES:
            if type(header[key]) is not int or header[key] < least:
                raise ValueError(
                    f"{path}: cache header {key} is {header[key]!r}, not an integer >= {least}"
                )
        t, f = header["window"], header["features"]
        groups = {}
        for name in ("train", "test"):
            n = header[f"n_{name}"]
            labels, origins = header[f"{name}_labels"], header[f"{name}_origins"]
            if not (isinstance(labels, list) and isinstance(origins, list)):
                raise ValueError(f"{path}: {name}_labels and {name}_origins must be lists")
            if len(labels) != n or len(origins) != n:
                raise ValueError(
                    f"{path}: n_{name} = {n} but {len(labels)} labels and {len(origins)} origins"
                )
            meta = [_window_meta(path, name, i, labels[i], origins[i]) for i in range(n)]
            raw = _read_exact(fh, n * t * f * 8, path)
            # read-only; on a little-endian host it is the bytes themselves
            values = np.frombuffer(raw, dtype="<f8").astype(np.float64, copy=False)
            values = values.reshape(n, t, f)
            values.flags.writeable = False
            bad = np.flatnonzero(~np.isfinite(values).all(axis=(1, 2)))
            if bad.size:
                i = int(bad[0])
                raise ValueError(
                    f"{path}: {name} window {i} from {meta[i][1]} holds a non-finite value"
                )
            groups[name] = [
                SequenceWindow(values=values[i], label=label, origin=origin)
                for i, (label, origin) in enumerate(meta)
            ]
        if fh.read(1):
            raise ValueError(f"{path}: bytes after the test block")

    # as in split_train_test, every individual gets both lists, even an empty one
    split = DatasetSplit(train=groups["train"], test=groups["test"])
    for group, own, other in (
        (split.train, split.train_by_client, split.test_by_client),
        (split.test, split.test_by_client, split.train_by_client),
    ):
        for w in group:
            own.setdefault(w.individual, []).append(w)
            other.setdefault(w.individual, [])
    return split


def summary_text(split: DatasetSplit) -> str:
    lines = ["dataset summary", "==============="]
    for name, group, by_client in (
        ("train", split.train, split.train_by_client),
        ("test", split.test, split.test_by_client),
    ):
        pos = sum(w.label for w in group)
        lines.append(f"{name}: {len(group)} windows, {pos} fall ({_pct(pos, len(group))})")
        for cid in sorted(by_client):
            ws = by_client[cid]
            cpos = sum(w.label for w in ws)
            lines.append(f"  {cid}: {len(ws)} windows, {cpos} fall ({_pct(cpos, len(ws))})")
    return "\n".join(lines) + "\n"


def _pct(part: int, whole: int) -> str:
    return f"{100.0 * part / whole:.2f}%" if whole else "n/a"
