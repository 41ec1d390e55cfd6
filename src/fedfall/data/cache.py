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
from fedfall.data.windows import SequenceWindow

MAGIC = b"EPFLDS1"


def _window_block(windows: list[SequenceWindow]) -> bytes:
    if not windows:
        return b""
    return np.stack([w.values for w in windows]).astype("<f8").tobytes()


def save_dataset(path, split: DatasetSplit) -> None:
    """Write the cache to ``path`` and its summary to ``path.summary.txt``."""
    path = Path(path)
    if split.window_shape is None:
        raise ValueError("empty dataset")
    train, test = split.train, split.test
    header = {
        "window": split.window_shape[0],
        "features": split.window_shape[1],
        "n_train": len(train),
        "n_test": len(test),
        "train_labels": [w.label for w in train],
        "test_labels": [w.label for w in test],
        "train_origins": [list(w.origin) for w in train],
        "test_origins": [list(w.origin) for w in test],
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(blob).to_bytes(4, "little"))
        fh.write(blob)
        fh.write(_window_block(train))
        fh.write(_window_block(test))
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
    origin that is not [str, str, int], and on windows that ``DatasetSplit``
    refuses, such as one that holds a NaN or an infinity, with its message.

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
            by_client = groups[name] = {}
            for i, (label, origin) in enumerate(meta):
                window = SequenceWindow(values=values[i], label=label, origin=origin)
                by_client.setdefault(origin[0], []).append(window)
        if fh.read(1):
            raise ValueError(f"{path}: bytes after the test block")

    train, test = groups["train"], groups["test"]
    # as in split_train_test, every individual gets both lists, even an empty one
    clients = train.keys() | test.keys()
    try:
        return DatasetSplit(
            {cid: train.get(cid, ()) for cid in clients},
            {cid: test.get(cid, ()) for cid in clients},
        )
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def summary_text(split: DatasetSplit) -> str:
    lines = ["dataset summary", "==============="]
    for name, group, by_client in (
        ("train", split.train, split.train_by_client),
        ("test", split.test, split.test_by_client),
    ):
        pos = sum(w.label for w in group)
        lines.append(f"{name}: {len(group)} windows, {pos} fall ({_pct(pos, len(group))})")
        for cid, ws in by_client.items():
            cpos = sum(w.label for w in ws)
            lines.append(f"  {cid}: {len(ws)} windows, {cpos} fall ({_pct(cpos, len(ws))})")
    return "\n".join(lines) + "\n"


def _pct(part: int, whole: int) -> str:
    return f"{100.0 * part / whole:.2f}%" if whole else "n/a"
