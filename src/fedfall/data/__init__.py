"""Dataset ingestion, alignment, windowing, oversampling, caching."""

from fedfall.data.cache import load_dataset, save_dataset, summary_text
from fedfall.data.ldpa import (
    ACTIVITIES,
    ANKLE_TAGS,
    BELT_TAG,
    CHEST_TAG,
    FALL_ACTIVITY,
    SENSOR_LOCATIONS,
    ParseResult,
    RawRecord,
    align_and_merge,
    group_by_sequence,
    individual_of,
    parse_ldpa_csv,
)
from fedfall.data.pipeline import PrepareStats, prepare_dataset
from fedfall.data.smote import smote_oversample
from fedfall.data.split import DatasetSplit, split_train_test
from fedfall.data.synthetic import make_synthetic_dataset
from fedfall.data.windows import SequenceWindow, stack_windows, window_segments

__all__ = [
    "ACTIVITIES",
    "ANKLE_TAGS",
    "BELT_TAG",
    "CHEST_TAG",
    "FALL_ACTIVITY",
    "SENSOR_LOCATIONS",
    "DatasetSplit",
    "ParseResult",
    "PrepareStats",
    "RawRecord",
    "SequenceWindow",
    "align_and_merge",
    "group_by_sequence",
    "individual_of",
    "load_dataset",
    "make_synthetic_dataset",
    "parse_ldpa_csv",
    "prepare_dataset",
    "save_dataset",
    "smote_oversample",
    "split_train_test",
    "stack_windows",
    "summary_text",
    "window_segments",
]
