"""Pinned bytes of the data path: cache and summary for two fixed inputs.

A refactor of parsing, alignment, windowing or splitting must leave both
files byte-identical; any change to these digests is a change of data.
"""

import hashlib

import numpy as np

from fedfall.data import (
    ANKLE_TAGS,
    BELT_TAG,
    CHEST_TAG,
    make_synthetic_dataset,
    prepare_dataset,
    save_dataset,
)

LEFT, RIGHT = ANKLE_TAGS


def _digests(path):
    summary = path.with_name(path.name + ".summary.txt")
    return (
        hashlib.sha256(path.read_bytes()).hexdigest(),
        hashlib.sha256(summary.read_bytes()).hexdigest(),
    )


def _write_csv(path):
    """Two individuals, two sequences each; both ankle tags appear, the
    streams have uneven lengths (so alignment subsamples), a few readings
    are falls, and one row is malformed."""
    rng = np.random.default_rng(11)
    lines = ["sequence,tag,timestamp,date,x,y,z,activity"]
    lengths = {
        "A01": {LEFT: 30, RIGHT: 24, CHEST_TAG: 27, BELT_TAG: 33},
        "A02": {LEFT: 18, CHEST_TAG: 22, BELT_TAG: 20},
        "B01": {RIGHT: 26, CHEST_TAG: 25, BELT_TAG: 29},
        "B02": {LEFT: 21, RIGHT: 23, CHEST_TAG: 23, BELT_TAG: 19},
    }
    for seq, streams in lengths.items():
        for tag, n in streams.items():
            for t in range(n):
                x, y, z = rng.normal(size=3)
                act = "falling" if t in (9, 10) and seq[0] == "A" else "walking"
                lines.append(
                    f"{seq},{tag},{1000 + 7 * t},27.05.2009 14:03:25:{t:03d},"
                    f"{x:.5f},{y:.5f},{z:.5f},{act}"
                )
    lines.insert(40, "A01,010-000-024-033,oops,d,1.0,2.0,3.0,walking")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_synthetic_cache_bytes_pinned(tmp_path):
    split = make_synthetic_dataset(
        seed=4, n_clients=3, sequences_per_client=3, sequence_length=90, window=10, stride=4
    )
    path = tmp_path / "synthetic.cache"
    save_dataset(path, split)
    assert _digests(path) == (
        "71e4a914c8d889aafa2b595393f8a3c56adb836918e87bc7889efe6a449f3715",
        "770d4a09adf18de69da75b4e5e8fcbd8885e9ee23d044fa2849f909fdb3c9628",
    )


def test_csv_cache_bytes_pinned(tmp_path):
    csv = tmp_path / "ldpa.csv"
    _write_csv(csv)
    path = tmp_path / "ldpa.cache"
    split, stats = prepare_dataset(csv, window=6, stride=3, seed=2, cache_path=path)
    assert stats.malformed_rows == 1
    assert stats.skipped_sequences == []
    assert sum(w.label for w in split.train + split.test) > 0
    assert _digests(path) == (
        "cc215d173cc23ec691e19198225a9e7698aa565e8b070d5d77caea5c2a3c45df",
        "882e8d7b04429b72094c818f945d0e274f15730f1ab6743ba25e83f5b08ed11e",
    )
