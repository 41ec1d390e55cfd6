"""Sliding-window segmentation of merged sequences."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedfall.data.ldpa import MergedRecord, individual_of


@dataclass(frozen=True)
class SequenceWindow:
    """One training/evaluation unit: a T x F slice of a sequence.

    ``origin`` is (individual id, sequence name, start index); synthetic
    windows use a start index of -1.
    """

    values: np.ndarray
    label: int
    origin: tuple[str, str, int]

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError(f"window values must be T x F, got shape {self.values.shape}")
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")

    @property
    def individual(self) -> str:
        return self.origin[0]


def window_segments(
    series: list[MergedRecord],
    window: int,
    stride: int,
    sequence_name: str = "",
) -> list[SequenceWindow]:
    """Windows at starts 0, stride, 2*stride, ... while start+window <= len.

    A window is labeled 1 when any record inside it is labeled 1.
    """
    if window < 1 or stride < 1:
        raise ValueError(f"window and stride must be >= 1, got {window}, {stride}")
    n = len(series)
    if n < window:
        return []
    values = np.array([rec.values for rec in series], dtype=np.float64)
    labels = np.array([rec.label for rec in series], dtype=np.int64)
    individual = individual_of(sequence_name) if sequence_name else ""
    out = []
    for start in range(0, n - window + 1, stride):
        out.append(
            SequenceWindow(
                values=values[start : start + window].copy(),
                label=int(labels[start : start + window].any()),
                origin=(individual, sequence_name, start),
            )
        )
    return out


def expected_window_count(length: int, window: int, stride: int) -> int:
    if length < window:
        return 0
    return (length - window) // stride + 1


def stack_windows(
    windows: list[SequenceWindow], dtype=np.float64
) -> tuple[np.ndarray, np.ndarray]:
    """(B, T, F) batch array in ``dtype`` and (B,) float64 label array.

    The values are cast while stacking, so no float64 stack is made on the
    way to a float32 one.
    """
    if not windows:
        raise ValueError("no windows to stack")
    batch = np.stack([w.values for w in windows], dtype=dtype)
    labels = np.array([w.label for w in windows], dtype=np.float64)
    return batch, labels
