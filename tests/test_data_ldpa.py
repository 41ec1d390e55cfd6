"""CSV parsing and sensor-stream alignment."""

import numpy as np
import pytest

from fedfall.data import (
    ANKLE_TAGS,
    BELT_TAG,
    CHEST_TAG,
    SENSOR_LOCATIONS,
    RawRecord,
    align_and_merge,
    group_by_sequence,
    individual_of,
    parse_ldpa_csv,
)
from fedfall.errors import MissingSensorError

LEFT, RIGHT = ANKLE_TAGS


def row(seq="A01", tag=LEFT, ts=1, date="27.05.2009 14:03:25:123", x=1.0, y=2.0, z=3.0, act="walking"):
    return f"{seq},{tag},{ts},{date},{x},{y},{z},{act}"


def rec(seq="A01", tag=LEFT, ts=1, x=0.0, y=0.0, z=0.0, act="walking"):
    return RawRecord(
        sequence_name=seq, sensor_tag=tag, timestamp=ts, date="d", x=x, y=y, z=z, activity=act
    )


class TestParse:
    def test_single_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(row() + "\n")
        result = parse_ldpa_csv(path)
        assert result.malformed_count == 0
        assert len(result.records) == 1
        r = result.records[0]
        assert r.sequence_name == "A01"
        assert r.sensor_tag == LEFT
        assert SENSOR_LOCATIONS[r.sensor_tag] == "left_ankle"
        assert (r.x, r.y, r.z) == (1.0, 2.0, 3.0)
        assert r.activity == "walking"
        assert r.timestamp == 1

    def test_file_order_preserved(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("\n".join(row(ts=t) for t in (5, 3, 9)) + "\n")
        result = parse_ldpa_csv(path)
        assert [r.timestamp for r in result.records] == [5, 3, 9]

    def test_malformed_rows_counted(self, tmp_path):
        path = tmp_path / "data.csv"
        lines = [
            row(ts=1),
            row(ts=2).replace("1.0", "not-a-number"),
            "short,row",
            row(ts=3, tag="999-000-000-000"),
            row(ts=4, act="moonwalking"),
            row(ts=5),
        ]
        path.write_text("\n".join(lines) + "\n")
        result = parse_ldpa_csv(path)
        assert len(result.records) == 2
        assert result.malformed_count == 4

    @pytest.mark.parametrize("coord", ["x", "y", "z"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_coordinate_is_malformed(self, tmp_path, coord, value):
        path = tmp_path / "data.csv"
        path.write_text("\n".join([row(ts=1), row(ts=2, **{coord: value}), row(ts=3)]) + "\n")
        result = parse_ldpa_csv(path)
        assert [r.timestamp for r in result.records] == [1, 3]
        assert result.malformed_count == 1

    def test_header_not_counted(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("sequence,tag,timestamp,date,x,y,z,activity\n" + row() + "\n")
        result = parse_ldpa_csv(path)
        assert len(result.records) == 1
        assert result.malformed_count == 0

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(row() + "\n\n\n" + row(ts=2) + "\n")
        result = parse_ldpa_csv(path)
        assert len(result.records) == 2
        assert result.malformed_count == 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            parse_ldpa_csv(tmp_path / "nope.csv")

    def test_individual_of(self):
        assert individual_of("A01") == "A"
        assert individual_of("e05") == "E"


class TestAlignAndMerge:
    def test_equal_lengths_no_subsampling(self):
        records = []
        for t in range(5):
            records.append(rec(tag=LEFT, ts=t, x=float(t)))
            records.append(rec(tag=CHEST_TAG, ts=t, y=10.0 + t))
            records.append(rec(tag=BELT_TAG, ts=t, z=20.0 + t))
        values, labels = align_and_merge(records, np.random.default_rng(0))
        assert values.shape == (5, 9) and values.dtype == np.float64
        assert labels.shape == (5,) and labels.dtype == np.int64
        assert values[3, 0] == 3.0  # ankle x
        assert values[3, 4] == 13.0  # chest y
        assert values[3, 8] == 23.0  # belt z

    def test_truncation_to_shortest(self):
        records = (
            [rec(tag=LEFT, ts=t) for t in range(10)]
            + [rec(tag=CHEST_TAG, ts=t) for t in range(12)]
            + [rec(tag=BELT_TAG, ts=t) for t in range(15)]
        )
        values, labels = align_and_merge(records, np.random.default_rng(1))
        assert values.shape == (10, 9)
        assert labels.shape == (10,)

    def test_subsampling_preserves_order(self):
        # encode the timestamp in a coordinate to observe survivor order
        records = (
            [rec(tag=LEFT, ts=t) for t in range(10)]
            + [rec(tag=CHEST_TAG, ts=t, x=float(t)) for t in range(50)]
            + [rec(tag=BELT_TAG, ts=t, x=float(t)) for t in range(40)]
        )
        for seed in range(10):
            values, _ = align_and_merge(records, np.random.default_rng(seed))
            chest_ts = values[:, 3].tolist()
            belt_ts = values[:, 6].tolist()
            assert chest_ts == sorted(chest_ts) and len(set(chest_ts)) == 10
            assert belt_ts == sorted(belt_ts) and len(set(belt_ts)) == 10

    def test_ankle_with_more_records_wins(self):
        records = (
            [rec(tag=LEFT, ts=t, x=1.0) for t in range(5)]
            + [rec(tag=RIGHT, ts=t, x=2.0) for t in range(8)]
            + [rec(tag=CHEST_TAG, ts=t) for t in range(8)]
            + [rec(tag=BELT_TAG, ts=t) for t in range(8)]
        )
        values, _ = align_and_merge(records, np.random.default_rng(2))
        assert len(values) == 8
        assert (values[:, 0] == 2.0).all()

    def test_ankle_tie_breaks_lexicographically(self):
        records = (
            [rec(tag=LEFT, ts=t, x=1.0) for t in range(4)]
            + [rec(tag=RIGHT, ts=t, x=2.0) for t in range(4)]
            + [rec(tag=CHEST_TAG, ts=t) for t in range(4)]
            + [rec(tag=BELT_TAG, ts=t) for t in range(4)]
        )
        values, _ = align_and_merge(records, np.random.default_rng(3))
        winner = min(LEFT, RIGHT)
        assert (values[:, 0] == (1.0 if winner == LEFT else 2.0)).all()

    def test_fall_on_any_stream_labels_record(self):
        for fall_tag in (LEFT, CHEST_TAG, BELT_TAG):
            records = []
            for t in range(4):
                records.append(rec(tag=LEFT, ts=t, act="falling" if (t == 2 and fall_tag == LEFT) else "walking"))
                records.append(rec(tag=CHEST_TAG, ts=t, act="falling" if (t == 2 and fall_tag == CHEST_TAG) else "lying"))
                records.append(rec(tag=BELT_TAG, ts=t, act="falling" if (t == 2 and fall_tag == BELT_TAG) else "sitting"))
            _, labels = align_and_merge(records, np.random.default_rng(4))
            assert labels.tolist() == [0, 0, 1, 0]

    def test_missing_chest_raises(self):
        records = [rec(tag=LEFT, ts=t) for t in range(3)] + [rec(tag=BELT_TAG, ts=t) for t in range(3)]
        with pytest.raises(MissingSensorError):
            align_and_merge(records, np.random.default_rng(5))

    def test_missing_both_ankles_raises(self):
        records = [rec(tag=CHEST_TAG, ts=t) for t in range(3)] + [rec(tag=BELT_TAG, ts=t) for t in range(3)]
        with pytest.raises(MissingSensorError):
            align_and_merge(records, np.random.default_rng(6))

    def test_timestamps_sorted_before_merge(self):
        records = (
            [rec(tag=LEFT, ts=t, x=float(t)) for t in (3, 1, 2)]
            + [rec(tag=CHEST_TAG, ts=t) for t in range(3)]
            + [rec(tag=BELT_TAG, ts=t) for t in range(3)]
        )
        values, _ = align_and_merge(records, np.random.default_rng(7))
        assert values[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_deterministic_for_seed(self):
        records = (
            [rec(tag=LEFT, ts=t) for t in range(10)]
            + [rec(tag=CHEST_TAG, ts=t, x=float(t)) for t in range(30)]
            + [rec(tag=BELT_TAG, ts=t) for t in range(10)]
        )
        a_values, a_labels = align_and_merge(records, np.random.default_rng(42))
        b_values, b_labels = align_and_merge(records, np.random.default_rng(42))
        np.testing.assert_array_equal(a_values, b_values)
        np.testing.assert_array_equal(a_labels, b_labels)

    def test_group_by_sequence(self):
        records = [rec(seq="A01"), rec(seq="B02"), rec(seq="A01", ts=2)]
        groups = group_by_sequence(records)
        assert set(groups) == {"A01", "B02"}
        assert len(groups["A01"]) == 2
