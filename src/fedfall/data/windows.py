"""Sliding-window segmentation of aligned sequences.

A sequence is an (n, F) array of per-time-step features with an (n,)
array of 0/1 labels, as ``align_and_merge`` and the synthetic generator
produce them.

Each sample is held once: ``window_segments`` takes one read-only copy of
the sequence, and every window's ``values`` is a view (slice) of it, so
overlapping windows share their time steps and the caller's array stays
its own. Writing to a window's values raises; build a new array instead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from fedfall.data.ldpa import individual_of
from fedfall.errors import ShapeMismatchError


@dataclass(frozen=True)
class SequenceWindow:
    """One training/evaluation unit: a T x F slice of a sequence.

    ``origin`` is (individual id, sequence name, start index); synthetic
    windows use a start index of -1. Two windows are equal when their
    origins, labels and values agree; windows are not hashable.
    """

    values: np.ndarray
    label: int
    origin: tuple[str, str, int]

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError(f"window values must be T x F, got shape {self.values.shape}")
        if type(self.label) is not int or self.label not in (0, 1):
            raise ValueError(f"label must be the int 0 or 1, got {self.label!r}")

    def __eq__(self, other):
        # the generated __eq__ compares the arrays inside a tuple and raises
        if not isinstance(other, SequenceWindow):
            return NotImplemented
        return (
            self.origin == other.origin
            and self.label == other.label
            and bool(np.array_equal(self.values, other.values))
        )


def window_segments(
    values: np.ndarray,
    labels: np.ndarray,
    window: int,
    stride: int,
    sequence_name: str = "",
) -> list[SequenceWindow]:
    """Windows at starts 0, stride, 2*stride, ... while start+window <= n.

    ``values`` is the (n, F) sequence and ``labels`` its (n,) time-step
    labels. A window is labeled 1 when any time step inside it is labeled
    nonzero. Every window's values are a read-only view of one copy of
    ``values``.
    """
    if window < 1 or stride < 1:
        raise ValueError(f"window and stride must be >= 1, got {window}, {stride}")
    if values.ndim != 2:
        raise ValueError(f"sequence values must be n x F, got shape {values.shape}")
    if len(labels) != len(values):
        raise ValueError(f"{len(labels)} labels for {len(values)} time steps")
    individual = individual_of(sequence_name)
    held = np.array(values)
    held.flags.writeable = False
    # before[i] counts the nonzero labels before time step i, so a window
    # holds a fall when the count rises from its start to its end
    before = np.concatenate(([0], np.cumsum(np.asarray(labels) != 0)))
    ends = np.arange(window, len(values) + 1, stride)
    falls = before[ends] > before[ends - window]
    return [
        SequenceWindow(
            values=held[start : start + window],
            label=int(fall),
            origin=(individual, sequence_name, start),
        )
        for start, fall in zip((ends - window).tolist(), falls.tolist())
    ]


def stack_windows(
    windows: list[SequenceWindow], dtype=np.float64
) -> tuple[np.ndarray, np.ndarray]:
    """(B, T, F) batch array in ``dtype`` and (B,) float64 label array.

    The values are cast while stacking, so no float64 stack is made on the
    way to a float32 one.
    """
    if not windows:
        raise ValueError("no windows to stack")
    try:
        batch = np.stack([w.values for w in windows], dtype=dtype)
    except ValueError:
        check_window_shapes(windows)
        raise
    labels = np.array([w.label for w in windows], dtype=np.float64)
    return batch, labels


def check_window_shapes(windows: list[SequenceWindow]) -> None:
    """Raise ShapeMismatchError naming the first window whose shape is not
    the most common one (the first seen, on a tie)."""
    expected = Counter(w.values.shape for w in windows).most_common(1)[0][0]
    for w in windows:
        if w.values.shape != expected:
            raise ShapeMismatchError(
                f"window {w.origin} has shape {w.values.shape}; expected {expected}"
            )
