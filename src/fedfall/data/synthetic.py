"""A synthetic dataset with the same shape as the real pipeline's output.

``make_synthetic_dataset`` builds per-client sensor-like sequences with a
planted fall motif in roughly 2% of windows, heterogeneous across clients
(offsets, scales, motif amplitude). It exercises the full stack.
"""

from __future__ import annotations

import numpy as np

from fedfall.data.split import DatasetSplit, split_train_test
from fedfall.data.windows import SequenceWindow, window_segments

CLIENT_IDS = ("A", "B", "C", "D", "E")


def _client_profile(rng: np.random.Generator) -> dict:
    return {
        "offset": rng.normal(0.0, 0.5, size=9),
        "scale": rng.uniform(0.8, 1.2),
        "motif_amp": rng.uniform(4.0, 6.0),
    }


def _synthetic_sequence(
    profile: dict,
    length: int,
    motif_len: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Smooth noise around the client baseline with one fall transient.

    Returns the (length, 9) values and the (length,) 0/1 labels.
    """
    drift_freq = rng.uniform(0.002, 0.01, size=9)
    drift_phase = rng.uniform(0, 2 * np.pi, size=9)
    t = np.arange(length)[:, None]
    base = (
        profile["offset"]
        + 0.4 * np.sin(2 * np.pi * drift_freq * t + drift_phase)
        + rng.normal(0.0, 0.25, size=(length, 9))
    ) * profile["scale"]

    labels = np.zeros(length, dtype=np.int64)
    pos = int(rng.integers(0, length - motif_len))
    # lean-in and recovery shoulders around a full-amplitude impact core;
    # only the impact rows carry the fall label, so every positive window
    # contains at least one unmistakable row
    core_lo = motif_len // 3
    core_hi = motif_len - motif_len // 3
    ramp = np.full(motif_len, 0.2)
    ramp[core_lo:core_hi] = 1.0
    # a fall: sharp drop on the ankle vertical, jolt on chest and belt
    base[pos : pos + motif_len, 2] -= profile["motif_amp"] * ramp
    base[pos : pos + motif_len, 5] += 0.6 * profile["motif_amp"] * ramp
    base[pos : pos + motif_len, 8] -= 0.4 * profile["motif_amp"] * ramp
    labels[pos + core_lo : pos + core_hi] = 1

    return base, labels


def make_synthetic_dataset(
    seed: int = 0,
    n_clients: int = 5,
    sequences_per_client: int = 5,
    sequence_length: int = 1218,
    window: int = 20,
    stride: int = 2,
    motif_len: int = 6,
) -> DatasetSplit:
    """Heterogeneous multi-client dataset with ~2% fall windows.

    Each client contributes ``sequences_per_client`` sequences named like
    the real corpus ("A01".."A05"); the split holds out the last per
    client.
    """
    if n_clients > len(CLIENT_IDS):
        raise ValueError(f"at most {len(CLIENT_IDS)} clients supported")
    root = np.random.SeedSequence(seed)
    client_seeds = root.spawn(n_clients)
    windows_by_sequence: dict[str, list[SequenceWindow]] = {}
    for ci in range(n_clients):
        cid = CLIENT_IDS[ci]
        crng = np.random.default_rng(client_seeds[ci])
        profile = _client_profile(crng)
        for si in range(1, sequences_per_client + 1):
            seq_name = f"{cid}{si:02d}"
            values, labels = _synthetic_sequence(profile, sequence_length, motif_len, crng)
            windows_by_sequence[seq_name] = window_segments(
                values, labels, window=window, stride=stride, sequence_name=seq_name
            )
    return split_train_test(windows_by_sequence)

