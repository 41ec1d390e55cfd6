"""Sliding windows, oversampling, splitting, and the dataset cache."""

import copy
import dataclasses
import json
import pickle
import re
import tracemalloc
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfall.data import (
    DatasetSplit,
    SequenceWindow,
    load_dataset,
    save_dataset,
    smote_oversample,
    split_train_test,
    stack_windows,
    summary_text,
    window_segments,
)
from fedfall.errors import ConfigError, FedfallError, ShapeMismatchError


def series(n, fall_at=()):
    """(values, labels) of an n-step, 9-feature sequence; step t holds
    t + 0.1 * f in feature f and is labeled 1 iff t is in ``fall_at``."""
    t = np.arange(n)
    values = t[:, None] + 0.1 * np.arange(9)
    labels = np.isin(t, list(fall_at)).astype(np.int64)
    return values, labels


def make_window(label=0, ind="A", seq="A01", start=0, seed=0, shape=(4, 3)):
    rng = np.random.default_rng(seed)
    return SequenceWindow(values=rng.normal(size=shape), label=label, origin=(ind, seq, start))


class TestWindowSegments:
    def test_count_formula(self):
        ws = window_segments(*series(100), window=20, stride=1, sequence_name="A01")
        assert len(ws) == 81

    def test_too_short_series(self):
        assert window_segments(*series(19), window=20, stride=1) == []

    def test_stride(self):
        ws = window_segments(*series(100), window=20, stride=2)
        assert len(ws) == 41
        assert [w.origin[2] for w in ws[:3]] == [0, 2, 4]

    def test_label_any_rule(self):
        ws = window_segments(*series(30, fall_at={25}), window=10, stride=1, sequence_name="B01")
        for w in ws:
            start = w.origin[2]
            assert w.label == (1 if start <= 25 <= start + 9 else 0)

    def test_values_content(self):
        ws = window_segments(*series(25), window=5, stride=5, sequence_name="C02")
        assert ws[1].values.shape == (5, 9)
        assert ws[1].values[0, 0] == 5.0
        assert ws[1].origin == ("C", "C02", 5)

    @given(
        st.lists(st.sampled_from([0, 0, 0, 1, 2, -1]), max_size=60),
        st.integers(1, 12),
        st.integers(1, 5),
    )
    @settings(max_examples=80, deadline=None)
    def test_labels_match_the_per_window_rule(self, steps, window, stride):
        labels = np.array(steps, dtype=np.int64)
        ws = window_segments(np.zeros((len(steps), 2)), labels, window=window, stride=stride)
        expected = [
            int(labels[s : s + window].any()) for s in range(0, len(steps) - window + 1, stride)
        ]
        assert [w.label for w in ws] == expected

    def test_windows_are_read_only_views_of_one_copy(self):
        values, labels = series(30, fall_at={12})
        ws = window_segments(values, labels, window=10, stride=5, sequence_name="A01")
        held = ws[0].values.base
        assert held is not None and not held.flags.writeable
        assert all(w.values.base is held for w in ws)
        assert not np.shares_memory(held, values)
        values[5, 0] = -1.0  # the caller's array stays writable and apart
        assert ws[1].values[0, 0] == 5.0
        with pytest.raises(ValueError, match="read-only"):
            ws[1].values[0, 0] = 0.0

    def test_synthetic_corpus_memory_per_window(self):
        from fedfall.data import make_synthetic_dataset

        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            split = make_synthetic_dataset(seed=0)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # a copied 20 x 9 float64 window alone is 1,440 bytes of values
        assert held / (len(split.train) + len(split.test)) < 600

    @given(st.integers(1, 200), st.integers(1, 30), st.integers(1, 10))
    @settings(max_examples=80, deadline=None)
    def test_count_formula_property(self, length, window, stride):
        ws = window_segments(*series(length), window=window, stride=stride)
        assert len(ws) == ((length - window) // stride + 1 if length >= window else 0)

    def test_bad_args(self):
        values, labels = series(10)
        with pytest.raises(ValueError):
            window_segments(values, labels, window=0, stride=1)
        with pytest.raises(ValueError):
            window_segments(values, labels, window=5, stride=0)
        with pytest.raises(ValueError, match="n x F"):
            window_segments(values.ravel(), labels, window=5, stride=1)
        with pytest.raises(ValueError, match="9 labels for 10 time steps"):
            window_segments(values, labels[:-1], window=5, stride=1)

    # a label the cache can write back as it reads it: the int 0 or 1
    @pytest.mark.parametrize(
        "label", [1.0, 0.0, True, False, np.int64(1), np.float64(0.0), 2, -1, "1"], ids=repr
    )
    def test_label_must_be_the_int_0_or_1(self, label):
        with pytest.raises(ValueError, match="label must be the int 0 or 1"):
            make_window(label=label)

    def test_stack(self):
        ws = window_segments(*series(30, fall_at={3}), window=10, stride=10)
        batch, labels = stack_windows(ws)
        assert batch.shape == (3, 10, 9)
        assert labels.tolist() == [1.0, 0.0, 0.0]

    def test_stack_names_a_short_window(self):
        ws = window_segments(*series(30), window=10, stride=10, sequence_name="A01")
        short = SequenceWindow(values=ws[1].values[:7], label=0, origin=ws[1].origin)
        message = "window ('A', 'A01', 10) has shape (7, 9); expected (10, 9)"
        with pytest.raises(ShapeMismatchError, match=re.escape(message)):
            stack_windows([ws[0], short, ws[2]])


class TestSmote:
    def test_no_synthesis_when_balanced_enough(self):
        ws = [make_window(label=1, seed=i) for i in range(25)] + [
            make_window(label=0, seed=100 + i) for i in range(75)
        ]
        out = smote_oversample(ws, target_minority_fraction=0.25, k=3, rng=np.random.default_rng(0))
        assert len(out) == 100

    def test_reaches_target_fraction(self):
        ws = [make_window(label=1, seed=i) for i in range(10)] + [
            make_window(label=0, seed=100 + i) for i in range(90)
        ]
        out = smote_oversample(ws, target_minority_fraction=0.25, k=5, rng=np.random.default_rng(0))
        total = len(out)
        minority = sum(w.label for w in out)
        assert minority / total >= 0.25
        assert minority / total <= 0.25 + 1.0 / total
        # originals untouched, in order, at the front
        assert out[:100] == ws

    def test_identical_minority_points_reproduce_themselves(self):
        base = make_window(label=1, seed=7)
        twin = SequenceWindow(values=base.values.copy(), label=1, origin=("A", "A02", 9))
        ws = [base, twin] + [make_window(label=0, seed=100 + i) for i in range(20)]
        out = smote_oversample(ws, target_minority_fraction=0.3, k=1, rng=np.random.default_rng(1))
        for w in out[22:]:
            np.testing.assert_array_equal(w.values, base.values)
            assert w.label == 1

    def test_synthetics_are_convex_combinations(self):
        rng = np.random.default_rng(2)
        ws = [make_window(label=1, seed=i) for i in range(8)] + [
            make_window(label=0, seed=200 + i) for i in range(92)
        ]
        out = smote_oversample(ws, target_minority_fraction=0.25, k=5, rng=rng)
        originals = np.stack([w.values.ravel() for w in ws if w.label == 1])
        for w in out[100:]:
            flat = w.values.ravel()
            assert flat.min() >= originals.min() - 1e-12
            assert flat.max() <= originals.max() + 1e-12

    def test_too_few_minority_skips(self):
        ws = [make_window(label=1, seed=1)] + [make_window(label=0, seed=100 + i) for i in range(50)]
        out = smote_oversample(ws, target_minority_fraction=0.25, k=5, rng=np.random.default_rng(0))
        assert out == ws

    def test_label_zero_minority_supported(self):
        ws = [make_window(label=0, seed=i) for i in range(10)] + [
            make_window(label=1, seed=100 + i) for i in range(90)
        ]
        out = smote_oversample(ws, target_minority_fraction=0.25, k=3, rng=np.random.default_rng(3))
        minority = sum(1 for w in out if w.label == 0)
        assert minority / len(out) >= 0.25

    def test_deterministic(self):
        ws = [make_window(label=1, seed=i) for i in range(10)] + [
            make_window(label=0, seed=100 + i) for i in range(90)
        ]
        a = smote_oversample(ws, 0.25, 5, np.random.default_rng(42))
        b = smote_oversample(ws, 0.25, 5, np.random.default_rng(42))
        assert len(a) == len(b)
        for wa, wb in zip(a, b):
            np.testing.assert_array_equal(wa.values, wb.values)

    def test_short_minority_window_named(self):
        ws = [make_window(label=1, seed=i, start=i) for i in range(10)] + [
            make_window(label=0, seed=100 + i) for i in range(90)
        ]
        ws[3] = make_window(label=1, seed=3, start=3, shape=(3, 3))
        message = "window ('A', 'A01', 3) has shape (3, 3); expected (4, 3)"
        with pytest.raises(ShapeMismatchError, match=re.escape(message)):
            smote_oversample(ws, 0.25, 5, np.random.default_rng(0))

    def test_bad_target(self):
        with pytest.raises(ValueError):
            smote_oversample([], target_minority_fraction=0.0, k=5, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            smote_oversample([], target_minority_fraction=1.0, k=5, rng=np.random.default_rng(0))


class TestSplit:
    def make_sequences(self, individuals="ABCDE", per=5, windows_each=4):
        out = {}
        for ind in individuals:
            for s in range(1, per + 1):
                name = f"{ind}{s:02d}"
                out[name] = [
                    make_window(ind=ind, seq=name, start=i, seed=hash(name) % 1000 + i)
                    for i in range(windows_each)
                ]
        return out

    def test_counts(self):
        split = split_train_test(self.make_sequences())
        assert len(split.train) == 5 * 4 * 4
        assert len(split.test) == 5 * 1 * 4
        assert split.clients == list("ABCDE")

    def test_default_holds_out_highest(self):
        split = split_train_test(self.make_sequences())
        test_seqs = {w.origin[1] for w in split.test}
        assert test_seqs == {f"{i}05" for i in "ABCDE"}

    def test_no_origin_overlap(self):
        split = split_train_test(self.make_sequences())
        train_origins = {(w.origin[1], w.origin[2]) for w in split.train}
        test_origins = {(w.origin[1], w.origin[2]) for w in split.test}
        assert not train_origins & test_origins

    def test_single_sequence_individual_rejected(self):
        seqs = self.make_sequences("AB")
        seqs["Z01"] = [make_window(ind="Z", seq="Z01")]
        with pytest.raises(ValueError):
            split_train_test(seqs)

    def test_client_partition_consistent(self):
        split = split_train_test(self.make_sequences())
        for cid, ws in split.train_by_client.items():
            assert all(w.origin[0] == cid for w in ws)
        assert sum(len(v) for v in split.train_by_client.values()) == len(split.train)


class TestRecord:
    """``DatasetSplit`` checks its windows once, when it is built."""

    @staticmethod
    def parts():
        train = {c: [make_window(ind=c, seq=f"{c}01", start=i, seed=i) for i in range(3)] for c in "BA"}
        test = {c: [make_window(ind=c, seq=f"{c}02", seed=9)] for c in "AB"}
        return train, test

    def test_sorted_tuples_joined_in_client_order(self):
        train, test = self.parts()
        split = DatasetSplit(train, test)
        assert list(split.train_by_client) == split.clients == ["A", "B"]
        assert all(type(ws) is tuple for ws in split.train_by_client.values())
        assert split.train == train["A"] + train["B"]
        assert split.test == test["A"] + test["B"]
        assert split.window_shape == (4, 3)
        assert DatasetSplit({}, {}).window_shape is None

    def test_replace_checks_the_new_record(self):
        split = DatasetSplit(*self.parts())
        stray = make_window(ind="A", seq="A01", start=7)
        with pytest.raises(ConfigError, match=re.escape(f"train window {stray.origin} is filed under client 'B'")):
            dataclasses.replace(split, train_by_client={**split.train_by_client, "B": (stray,)})

    @pytest.mark.parametrize("name", ["train_by_client", "test_by_client"])
    def test_mappings_refuse_writes(self, name):
        split = DatasetSplit(*self.parts())
        by_client = getattr(split, name)
        nan_window = make_window(ind="A", seq="A01")
        nan_window.values[0, 0] = np.nan
        with pytest.raises(TypeError):
            by_client["A"] = (nan_window,)
        with pytest.raises(TypeError):
            by_client["Z"] = ()
        with pytest.raises(TypeError):
            del by_client["B"]
        assert split.clients == ["A", "B"]
        assert all(np.isfinite(w.values).all() for w in split.train + split.test)

    @pytest.mark.parametrize("how", ["pickle", "deepcopy"])
    def test_copies_keep_the_windows_and_check_again(self, how, monkeypatch):
        split = DatasetSplit(*self.parts())
        built = []
        real = DatasetSplit.__post_init__
        monkeypatch.setattr(DatasetSplit, "__post_init__", lambda s: built.append(s) or real(s))
        copied = pickle.loads(pickle.dumps(split)) if how == "pickle" else copy.deepcopy(split)
        assert len(built) == 1 and built[0] is copied
        assert type(copied.train_by_client) is MappingProxyType
        assert copied.clients == split.clients and copied.window_shape == split.window_shape
        for kind in ("train", "test"):
            pairs = list(zip(getattr(copied, kind), getattr(split, kind), strict=True))
            assert all(a.origin == b.origin and a.label == b.label for a, b in pairs)
            assert all(np.array_equal(a.values, b.values) for a, b in pairs)

    @pytest.mark.parametrize("how", ["pickle", "deepcopy"])
    def test_copies_compare_equal(self, how):
        from fedfall.data import make_synthetic_dataset

        split = make_synthetic_dataset(seed=0, stride=12)
        copied = pickle.loads(pickle.dumps(split)) if how == "pickle" else copy.deepcopy(split)
        assert split == copied
        assert split.train[0] == copied.train[0]

    def test_windows_differing_in_one_value_compare_unequal(self):
        window = make_window()
        values = window.values.copy()
        values[1, 2] += 1e-12
        changed = SequenceWindow(values=values, label=window.label, origin=window.origin)
        assert window != changed
        assert window == SequenceWindow(window.values.copy(), window.label, window.origin)
        assert window != make_window(start=1) and window != make_window(label=1)
        assert window.__eq__(window.values) is NotImplemented and window != "A"
        with pytest.raises(TypeError, match="unhashable"):
            hash(window)

    def test_a_client_without_a_training_entry_is_refused(self):
        train, test = self.parts()
        del train["B"]
        message = "client 'B' is in test_by_client but not in train_by_client"
        with pytest.raises(ConfigError, match=re.escape(message)):
            DatasetSplit(train, test)

    def test_windows_filed_under_another_client_are_refused(self, tmp_path):
        # the cache files each window under its origin's client, so such a
        # split would load back renamed, with every client's seed stream shifted
        train, test = self.parts()
        renamed = [{("alice" if c == "A" else c): ws for c, ws in d.items()} for d in (train, test)]
        message = f"train window {train['A'][0].origin} is filed under client 'alice'"
        with pytest.raises(ConfigError, match=re.escape(message)):
            DatasetSplit(*renamed)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_value_in_a_window_is_refused(self, value):
        values, labels = series(25)
        values[12, 3] = value
        ws = window_segments(values, labels, window=10, stride=10, sequence_name="A01")
        test = window_segments(*series(10), window=10, stride=10, sequence_name="A02")
        message = "train window ('A', 'A01', 10) of client 'A' holds a non-finite value"
        with pytest.raises(ConfigError, match=re.escape(message)):
            DatasetSplit({"A": ws}, {"A": test})

    def test_a_non_finite_value_outside_every_window_is_accepted(self):
        values, labels = series(25)
        values[24, 0] = np.nan  # windows at 0 and 10 end at step 19
        ws = window_segments(values, labels, window=10, stride=10, sequence_name="A01")
        test = window_segments(*series(10), window=10, stride=10, sequence_name="A02")
        assert DatasetSplit({"A": ws}, {"A": test}).train == ws


def _with_header(data: bytes, make) -> bytes:
    """Cache bytes whose JSON header is replaced by ``make(header)``."""
    start = len(b"EPFLDS1") + 4
    end = start + int.from_bytes(data[start - 4 : start], "little")
    blob = json.dumps(make(json.loads(data[start:end]))).encode("utf-8")
    return data[: start - 4] + len(blob).to_bytes(4, "little") + blob + data[end:]


def with_value(data: bytes, group: str, i: int, row: int, col: int, value: float) -> bytes:
    """Cache bytes with one float64 of ``group`` window ``i`` replaced by ``value``."""
    start = len(b"EPFLDS1") + 4
    end = start + int.from_bytes(data[start - 4 : start], "little")
    header = json.loads(data[start:end])
    t, f = header["window"], header["features"]
    before = header["n_train"] if group == "test" else 0
    at = end + 8 * (((before + i) * t + row) * f + col)
    return data[:at] + np.float64(value).astype("<f8").tobytes() + data[at + 8 :]


# Malformed variants of a valid cache's bytes, each of which load_dataset
# must reject with a ValueError naming the file.
CACHE_CORRUPTIONS = {
    "not_a_cache": lambda data: b"not an archive",
    "header_not_an_object": lambda data: _with_header(data, lambda h: 7),
    "header_without_window": lambda data: _with_header(
        data, lambda h: {k: v for k, v in h.items() if k != "window"}
    ),
    "extra_train_label": lambda data: _with_header(
        data, lambda h: dict(h, train_labels=h["train_labels"] + [0])
    ),
    "missing_train_label": lambda data: _with_header(
        data, lambda h: dict(h, train_labels=h["train_labels"][:-1])
    ),
    "missing_test_origin": lambda data: _with_header(
        data, lambda h: dict(h, test_origins=h["test_origins"][:-1])
    ),
    "trailing_bytes": lambda data: data + b"\0",
    "train_label_two": lambda data: _with_header(
        data, lambda h: dict(h, train_labels=[2] + h["train_labels"][1:])
    ),
    "empty_train_origin": lambda data: _with_header(
        data, lambda h: dict(h, train_origins=[[]] + h["train_origins"][1:])
    ),
    "test_origin_start_not_int": lambda data: _with_header(
        data, lambda h: dict(h, test_origins=[h["test_origins"][0][:2] + ["0"]] + h["test_origins"][1:])
    ),
    "window_a_string": lambda data: _with_header(data, lambda h: dict(h, window=str(h["window"]))),
    "window_fractional": lambda data: _with_header(data, lambda h: dict(h, window=2.5)),
    "window_zero": lambda data: _with_header(data, lambda h: dict(h, window=0)),
    "features_a_float": lambda data: _with_header(data, lambda h: dict(h, features=float(h["features"]))),
    "n_test_negative": lambda data: _with_header(data, lambda h: dict(h, n_test=-1)),
    "block_larger_than_file": lambda data: _with_header(data, lambda h: dict(h, window=10**12)),
    "train_labels_not_a_list": lambda data: _with_header(data, lambda h: dict(h, train_labels=5)),
    "header_longer_than_file": lambda data: data[:7] + (2**32 - 1).to_bytes(4, "little") + data[11:],
}


class TestCache:
    def make_split(self):
        seqs = TestSplit().make_sequences("AB", per=3, windows_each=5)
        return split_train_test(seqs)

    def test_round_trip(self, tmp_path):
        split = self.make_split()
        path = tmp_path / "data.bin"
        save_dataset(path, split)
        loaded = load_dataset(path)
        assert len(loaded.train) == len(split.train)
        assert len(loaded.test) == len(split.test)
        for a, b in zip(loaded.train + loaded.test, split.train + split.test):
            np.testing.assert_array_equal(a.values, b.values)
            assert a.label == b.label
            assert a.origin == b.origin
        assert loaded.train_by_client.keys() == split.train_by_client.keys()

    def test_round_trip_keeps_a_client_without_train_windows(self, tmp_path):
        split = self.make_split()
        split = dataclasses.replace(split, train_by_client={**split.train_by_client, "A": ()})
        save_dataset(tmp_path / "data.bin", split)
        loaded = load_dataset(tmp_path / "data.bin")
        assert loaded.clients == split.clients == ["A", "B"]
        assert loaded.train_by_client["A"] == ()
        assert len(loaded.test_by_client["A"]) == len(split.test_by_client["A"])

    def test_magic_bytes(self, tmp_path):
        split = self.make_split()
        path = tmp_path / "data.bin"
        save_dataset(path, split)
        assert path.read_bytes()[:7] == b"EPFLDS1"

    def test_summary_written(self, tmp_path):
        split = self.make_split()
        path = tmp_path / "data.bin"
        save_dataset(path, split)
        text = (tmp_path / "data.bin.summary.txt").read_text()
        assert "train" in text and "test" in text and "A:" in text
        assert text == summary_text(split)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"WRONGMAGIC" + b"\x00" * 50)
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_truncated_rejected(self, tmp_path):
        split = self.make_split()
        path = tmp_path / "data.bin"
        save_dataset(path, split)
        data = path.read_bytes()
        path.write_bytes(data[:-40])
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_loaded_windows_are_read_only(self, tmp_path):
        save_dataset(tmp_path / "data.bin", self.make_split())
        loaded = load_dataset(tmp_path / "data.bin")
        for w in loaded.train + loaded.test:
            assert not w.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            loaded.test[0].values[0, 0] = 0.0

    @pytest.mark.parametrize("group", ["train", "test"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_window_rejected_naming_origin(self, tmp_path, group, value):
        split = self.make_split()
        w = getattr(split, group)[3]
        path = tmp_path / "data.bin"
        save_dataset(path, split)
        path.write_bytes(with_value(path.read_bytes(), group, 3, 1, 2, value))
        message = f"{path}: {group} window {w.origin} of client {w.origin[0]!r} holds a non-finite"
        with pytest.raises(FedfallError, match=re.escape(message)):
            load_dataset(path)

    @pytest.mark.parametrize("kind", sorted(CACHE_CORRUPTIONS))
    def test_malformed_rejected_naming_path(self, tmp_path, kind):
        path = tmp_path / "data.bin"
        save_dataset(path, self.make_split())
        path.write_bytes(CACHE_CORRUPTIONS[kind](path.read_bytes()))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_dataset(path)


class TestSynthetic:
    def test_fall_window_share_near_two_percent(self):
        from fedfall.data import make_synthetic_dataset

        split = make_synthetic_dataset(seed=3)
        all_w = split.train + split.test
        share = sum(w.label for w in all_w) / len(all_w)
        assert 0.01 <= share <= 0.04

    def test_structure(self):
        from fedfall.data import make_synthetic_dataset

        split = make_synthetic_dataset(seed=1, n_clients=5)
        assert split.clients == list("ABCDE")
        test_seqs = {w.origin[1] for w in split.test}
        assert test_seqs == {f"{c}05" for c in "ABCDE"}
        assert split.train[0].values.shape == (20, 9)

    def test_deterministic(self):
        from fedfall.data import make_synthetic_dataset

        a = make_synthetic_dataset(seed=5)
        b = make_synthetic_dataset(seed=5)
        assert len(a.train) == len(b.train)
        np.testing.assert_array_equal(a.train[17].values, b.train[17].values)
        c = make_synthetic_dataset(seed=6)
        assert not np.array_equal(a.train[17].values, c.train[17].values)

    def test_separable_dataset(self):
        from fedfall.data import stack_windows
        from separable import make_separable_dataset

        split = make_separable_dataset(seed=0)
        batch, labels = stack_windows(split.train)
        means = batch[:, :, 0].mean(axis=1)
        # feature-0 mean separates the classes with a wide margin
        assert means[labels == 1].min() > means[labels == 0].max() + 1.0
        assert 0.4 <= labels.mean() <= 0.6
