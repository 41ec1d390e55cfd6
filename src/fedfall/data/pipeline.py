"""End-to-end dataset preparation: CSV to cached window split."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from fedfall.data.cache import save_dataset
from fedfall.data.ldpa import align_and_merge, group_by_sequence, parse_ldpa_csv
from fedfall.data.split import DatasetSplit, split_train_test
from fedfall.data.windows import window_segments
from fedfall.errors import MissingSensorError

logger = logging.getLogger(__name__)


@dataclass
class PrepareStats:
    n_records: int
    malformed_rows: int
    skipped_sequences: list[str]


def prepare_dataset(
    csv_path,
    window: int,
    stride: int,
    seed: int,
    cache_path=None,
) -> tuple[DatasetSplit, PrepareStats]:
    """Parse, align, window, and split; optionally write the binary cache.

    Sequences missing a required sensor are skipped with a warning rather
    than failing the run. Oversampling is not applied here; it happens per
    client at training time so the test set stays untouched.
    """
    parsed = parse_ldpa_csv(csv_path)
    by_seq = group_by_sequence(parsed.records)
    root = np.random.SeedSequence(seed)
    windows_by_sequence = {}
    skipped = []
    for seq_name, seq_seed in zip(sorted(by_seq), root.spawn(len(by_seq))):
        rng = np.random.default_rng(seq_seed)
        try:
            values, labels = align_and_merge(by_seq[seq_name], rng)
        except MissingSensorError as err:
            logger.warning("sequence %s skipped: %s", seq_name, err)
            skipped.append(seq_name)
            continue
        windows_by_sequence[seq_name] = window_segments(
            values, labels, window=window, stride=stride, sequence_name=seq_name
        )
    split = split_train_test(windows_by_sequence)
    stats = PrepareStats(
        n_records=len(parsed.records),
        malformed_rows=parsed.malformed_count,
        skipped_sequences=skipped,
    )
    if cache_path is not None:
        save_dataset(cache_path, split)
    return split, stats
