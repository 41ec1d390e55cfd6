"""Train/test split at whole-sequence granularity."""

from __future__ import annotations

from dataclasses import dataclass, field

from fedfall.data.ldpa import individual_of
from fedfall.data.windows import SequenceWindow


@dataclass
class DatasetSplit:
    """Windows split per the one-test-sequence-per-individual protocol."""

    train: list[SequenceWindow]
    test: list[SequenceWindow]
    train_by_client: dict[str, list[SequenceWindow]] = field(default_factory=dict)
    test_by_client: dict[str, list[SequenceWindow]] = field(default_factory=dict)

    @property
    def clients(self) -> list[str]:
        return sorted(self.train_by_client)


def split_train_test(windows_by_sequence: dict[str, list[SequenceWindow]]) -> DatasetSplit:
    """Hold out each individual's highest-numbered sequence for testing.

    Every individual needs at least two sequences. Because the split
    happens at sequence level, no window can straddle it.
    """
    by_individual: dict[str, list[str]] = {}
    for seq_name in windows_by_sequence:
        by_individual.setdefault(individual_of(seq_name), []).append(seq_name)

    split = DatasetSplit(train=[], test=[])
    for ind, seqs in sorted(by_individual.items()):
        if len(seqs) < 2:
            raise ValueError(f"individual {ind!r} has {len(seqs)} sequence(s); need at least 2")
        held_out = max(seqs)
        split.train_by_client[ind] = []
        split.test_by_client[ind] = []
        for seq_name in sorted(seqs):
            windows = windows_by_sequence[seq_name]
            if seq_name == held_out:
                split.test.extend(windows)
                split.test_by_client[ind].extend(windows)
            else:
                split.train.extend(windows)
                split.train_by_client[ind].extend(windows)
    return split
