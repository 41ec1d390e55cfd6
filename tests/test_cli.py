"""Command line surface: artifacts, exit codes, reproducible evaluation."""

import argparse
import ast
import csv
import dataclasses
import importlib
import json
import logging
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import fedfall
import fedfall.cli
import fedfall.errors
import fedfall.secure_transport
import fedfall.simulate
from fedfall.cli import _sweep_values, build_parser, cli_main
from fedfall.data.cache import save_dataset
from fedfall.data.split import DatasetSplit
from fedfall.data.synthetic import make_synthetic_dataset
from fedfall.errors import AggregationInfeasibleError, ConfigError
from fedfall.secure_transport import keygen
from fedfall.simulate import SCENARIOS
from test_data_windows import CACHE_CORRUPTIONS, with_value
from test_simulate import with_one_short_window

ARTIFACTS = ("metrics.json", "round_log.jsonl", "loss_curve.csv", "predictions.json", "config.cfg")

FAST = [
    "--set", "hidden_size=4",
    "--set", "stride=12",
    "--set", "global_epochs=2",
    "--set", "client_epochs=1",
    "--set", "smote_target=0.0",
    "--set", "batch_size=32",
]


_VALID_CLIENTS = '"clients": {"B": {"probabilities": [0.5], "labels": [1]}}'

# predictions.json files that evaluate must reject, by what is wrong
PREDICTION_CORRUPTIONS = {
    "not_json": "not json",
    "not_an_object": "[1, 2]",
    "no_clients": '{"threshold": 0.3}',
    "clients_not_an_object": '{"threshold": 0.3, "clients": []}',
    "no_threshold": '{"clients": {}}',
    "threshold_not_a_number": '{"threshold": "high", "clients": {}}',
    "threshold_a_bool": '{"threshold": true, ' + _VALID_CLIENTS + "}",
    "threshold_out_of_range": '{"threshold": 7, ' + _VALID_CLIENTS + "}",
    "no_windows": '{"threshold": 0.3, "clients": {}}',
    "no_windows_in_any_client": '{"threshold": 0.3, "clients": {"B": {"probabilities": [], "labels": []}}}',
    "client_not_an_object": '{"threshold": 0.3, "clients": {"A": [0.5]}}',
    "no_probabilities": '{"threshold": 0.3, "clients": {"A": {"labels": [1]}}}',
    "labels_not_a_list": '{"threshold": 0.3, "clients": {"A": {"probabilities": [0.5], "labels": 1}}}',
    "probability_a_string": '{"threshold": 0.3, "clients": {"A": {"probabilities": ["a"], "labels": [1]}}}',
    "probability_null": '{"threshold": 0.3, "clients": {"A": {"probabilities": [null], "labels": [1]}}}',
    "probability_nan": '{"threshold": 0.3, "clients": {"A": {"probabilities": [NaN], "labels": [1]}}}',
    "probability_infinite": '{"threshold": 0.3, "clients": {"A": {"probabilities": [Infinity], "labels": [1]}}}',
    "probability_above_one": '{"threshold": 0.3, "clients": {"A": {"probabilities": [1.5], "labels": [1]}}}',
    "probability_negative": '{"threshold": 0.3, "clients": {"A": {"probabilities": [-0.1], "labels": [1]}}}',
    "probability_a_bool": '{"threshold": 0.3, "clients": {"A": {"probabilities": [true], "labels": [1]}}}',
    "label_seven": '{"threshold": 0.3, "clients": {"A": {"probabilities": [0.5], "labels": [7]}}}',
    "label_a_string": '{"threshold": 0.3, "clients": {"A": {"probabilities": [0.5], "labels": ["x"]}}}',
    "label_a_float": '{"threshold": 0.3, "clients": {"A": {"probabilities": [0.5], "labels": [1.0]}}}',
    "label_a_bool": '{"threshold": 0.3, "clients": {"A": {"probabilities": [0.5], "labels": [true]}}}',
    "lengths_differ": '{"threshold": 0.3, "clients": {"A": {"probabilities": [0.5, 0.5], "labels": [1]}}}',
    # provenance fields beside one valid client
    "seed_a_string": '{"seed": "x", "threshold": 0.3, ' + _VALID_CLIENTS + "}",
    "seed_negative": '{"seed": -1, "threshold": 0.3, ' + _VALID_CLIENTS + "}",
    "seed_a_bool": '{"seed": true, "threshold": 0.3, ' + _VALID_CLIENTS + "}",
    "scenario_not_a_string": '{"scenario": 5, "threshold": 0.3, ' + _VALID_CLIENTS + "}",
    "fingerprint_not_a_string": '{"config_fingerprint": null, "threshold": 0.3, ' + _VALID_CLIENTS + "}",
}


def write_ldpa_csv(path, extra_rows=()):
    """Three 16-step sequences of individual A in the raw CSV format, with a
    fall at steps 7 and 8, then ``extra_rows``."""
    tags = ("010-000-024-033", "020-000-033-111", "020-000-032-221")
    rows = []
    for seq in ("A01", "A02", "A03"):
        for t in range(16):
            for k, tag in enumerate(tags):
                activity = "falling" if t in (7, 8) else "walking"
                rows.append(
                    f"{seq},{tag},{633790226057339000 + t * 1000 + k},"
                    f"27.05.2009 14:03:25:{t:03d},"
                    f"{2.0 + 0.1 * t},{1.5 - 0.05 * t},{0.3},{activity}"
                )
    path.write_text("\n".join(rows + list(extra_rows)) + "\n")
    return path


def _no_round(*args, **kwargs):
    raise AssertionError("trained on input it should reject")


def run_train(tmp_path, extra=(), out_name="run", scenario="fl_fedavg"):
    out = tmp_path / out_name
    code = cli_main(
        ["train", "--scenario", scenario, "--synthetic", "--out", str(out)]
        + FAST + list(extra)
    )
    return code, out


class TestTrain:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        code, out = run_train(tmp_path)
        assert code == 0
        for name in ARTIFACTS:
            assert (out / name).exists(), name
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["metrics"]["scenario"] == "fl_fedavg"
        assert 0.0 <= payload["metrics"]["accuracy"] <= 1.0
        assert payload["rounds_run"] >= 1
        printed = capsys.readouterr().out
        assert "accuracy" in printed

    def test_round_log_is_jsonl(self, tmp_path):
        _, out = run_train(tmp_path)
        rows = [json.loads(l) for l in (out / "round_log.jsonl").read_text().splitlines()]
        assert rows
        assert all("round" in r for r in rows)

    def test_loss_curve_is_csv(self, tmp_path):
        _, out = run_train(tmp_path)
        with open(out / "loss_curve.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [c for c in rows[0]] == ["round", "train_loss", "val_recall", "val_f1"]
        assert float(rows[0]["train_loss"]) > 0

    def test_config_snapshot_reloads(self, tmp_path):
        from fedfall.config import load_config

        _, out = run_train(tmp_path)
        cfg = load_config(str(out / "config.cfg"), env={})
        assert cfg.hidden_size == 4
        assert cfg.global_epochs == 2

    def test_predictions_cover_all_clients(self, tmp_path):
        _, out = run_train(tmp_path)
        preds = json.loads((out / "predictions.json").read_text())
        assert sorted(preds["clients"]) == ["A", "B", "C", "D", "E"]
        for block in preds["clients"].values():
            assert len(block["probabilities"]) == len(block["labels"])

    def test_seed_flag_changes_fingerprint(self, tmp_path):
        _, out1 = run_train(tmp_path, out_name="a")
        _, out2 = run_train(tmp_path, extra=["--seed", "5"], out_name="b")
        p1 = json.loads((out1 / "predictions.json").read_text())
        p2 = json.loads((out2 / "predictions.json").read_text())
        assert p1["seed"] == 0 and p2["seed"] == 5
        assert p1["config_fingerprint"] != p2["config_fingerprint"]

    def test_train_reruns_identically(self, tmp_path):
        _, out1 = run_train(tmp_path, out_name="a")
        _, out2 = run_train(tmp_path, out_name="b")
        m1 = json.loads((out1 / "metrics.json").read_text())
        m2 = json.loads((out2 / "metrics.json").read_text())
        assert m1 == m2

    def test_requires_a_data_source(self, tmp_path):
        code = cli_main(["train", "--scenario", "central", "--out", str(tmp_path / "x")])
        assert code == 1


class TestEvaluate:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_reproduces_training_metrics(self, tmp_path, capsys, scenario):
        _, out = run_train(tmp_path, scenario=scenario)
        trained = json.loads((out / "metrics.json").read_text())["metrics"]
        capsys.readouterr()
        code = cli_main(["evaluate", "--predictions", str(out / "predictions.json")])
        assert code == 0
        replayed = json.loads(capsys.readouterr().out)
        assert replayed == trained

    def test_threshold_override_changes_counts(self, tmp_path, capsys):
        _, out = run_train(tmp_path)
        capsys.readouterr()
        assert cli_main(
            ["evaluate", "--predictions", str(out / "predictions.json"),
             "--threshold", "0.999"]
        ) == 0
        strict = json.loads(capsys.readouterr().out)
        # nothing clears 0.999, so no predicted positives remain
        assert strict["recall"] == 0.0
        assert "precision" in strict["degenerate"]

    def test_report_written_to_file(self, tmp_path, capsys):
        _, out = run_train(tmp_path)
        target = tmp_path / "report.json"
        cli_main(
            ["evaluate", "--predictions", str(out / "predictions.json"),
             "--out", str(target)]
        )
        capsys.readouterr()
        assert json.loads(target.read_text())["scenario"] == "fl_fedavg"

    def test_bad_threshold_is_validation_error(self, tmp_path, capsys):
        _, out = run_train(tmp_path)
        code = cli_main(
            ["evaluate", "--predictions", str(out / "predictions.json"),
             "--threshold", "1.5"]
        )
        assert code == 1

    def test_missing_predictions_file_is_runtime_error(self, tmp_path):
        assert cli_main(["evaluate", "--predictions", str(tmp_path / "none.json")]) == 2

    @pytest.mark.parametrize("kind", sorted(PREDICTION_CORRUPTIONS))
    def test_malformed_predictions_file_is_validation_error(self, tmp_path, capsys, kind):
        bad = tmp_path / "predictions.json"
        bad.write_text(PREDICTION_CORRUPTIONS[kind])
        assert cli_main(["evaluate", "--predictions", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        if '"A"' in PREDICTION_CORRUPTIONS[kind]:
            assert "client 'A'" in err

    def test_threshold_flag_stands_in_for_a_missing_one(self, tmp_path, capsys):
        saved = tmp_path / "predictions.json"
        saved.write_text('{"clients": {"A": {"probabilities": [0.9, 0.1], "labels": [1, 0]}}}')
        assert cli_main(["evaluate", "--predictions", str(saved), "--threshold", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["recall"] == 1.0


class TestPrepareData:
    def test_synthetic_cache_roundtrip(self, tmp_path, capsys):
        from fedfall.data.cache import load_dataset

        cache = tmp_path / "synthetic.npz"
        code = cli_main(
            ["prepare-data", "--synthetic", "--out", str(cache),
             "--set", "stride=12"]
        )
        assert code == 0
        split = load_dataset(str(cache))
        assert sorted(split.train_by_client) == ["A", "B", "C", "D", "E"]
        printed = capsys.readouterr().out
        assert "test windows" in printed

    def test_cached_data_trains(self, tmp_path):
        cache = tmp_path / "synthetic.npz"
        cli_main(["prepare-data", "--synthetic", "--out", str(cache), "--set", "stride=12"])
        out = tmp_path / "run"
        code = cli_main(
            ["train", "--scenario", "fl_fedavg", "--data", str(cache),
             "--out", str(out)] + FAST
        )
        assert code == 0
        assert (out / "metrics.json").exists()

    def test_cache_of_another_window_is_validation_error(self, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "synthetic.npz"
        assert cli_main(["prepare-data", "--synthetic", "--out", str(cache), "--set", "stride=12"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(fedfall.simulate, "run_round", _no_round)
        out = tmp_path / "run"
        code = cli_main(
            ["train", "--scenario", "fl_fedavg", "--data", str(cache), "--out", str(out)]
            + FAST + ["--set", "window=10"]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {cache}: windows of 20 steps, but config window is 10; "
            "pass --set window=20\n"
        )
        assert not out.exists()

    def test_csv_ingestion(self, tmp_path, capsys):
        csv_path = write_ldpa_csv(tmp_path / "raw.csv")
        # the CSV comes from --csv or, failing that, the config's data_path
        for name, source in (
            ("flag.npz", ["--csv", str(csv_path)]),
            ("config.npz", ["--set", f"data_path={csv_path}"]),
        ):
            cache = tmp_path / name
            code = cli_main(
                ["prepare-data", "--out", str(cache), "--set", "window=8", "--set", "stride=4"]
                + source
            )
            assert code == 0
            assert cache.exists()

    def test_requires_a_data_source(self, tmp_path, capsys):
        code = cli_main(["prepare-data", "--out", str(tmp_path / "c.npz")])
        assert code == 1
        err = capsys.readouterr().err
        assert all(name in err for name in ("--csv", "--synthetic", "data_path"))


class TestSweep:
    def test_grid_of_five_thresholds(self, tmp_path):
        out = tmp_path / "sweep"
        code = cli_main(
            ["sweep", "--scenario", "fl_fedavg", "--synthetic",
             "--param", "classification_threshold=0.3:0.5:0.05",
             "--out", str(out)]
            + FAST + ["--set", "global_epochs=1"]
        )
        assert code == 0
        dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert dirs == [
            "classification_threshold=0.3",
            "classification_threshold=0.35",
            "classification_threshold=0.4",
            "classification_threshold=0.45",
            "classification_threshold=0.5",
        ]
        for d in dirs:
            assert (out / d / "metrics.json").exists()

    def test_integer_parameter_grid(self, tmp_path):
        out = tmp_path / "sweep"
        code = cli_main(
            ["sweep", "--scenario", "central", "--synthetic",
             "--param", "global_epochs=1:2:1", "--out", str(out)]
            + FAST
        )
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "global_epochs=1", "global_epochs=2"
        ]

    def test_sweep_reads_a_cache(self, tmp_path):
        cache = tmp_path / "synthetic.npz"
        assert cli_main(["prepare-data", "--synthetic", "--out", str(cache), "--set", "stride=12"]) == 0
        out = tmp_path / "sweep"
        code = cli_main(
            ["sweep", "--scenario", "central", "--data", str(cache),
             "--param", "classification_threshold=0.3:0.4:0.1", "--out", str(out)]
            + FAST
        )
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "classification_threshold=0.3", "classification_threshold=0.4"
        ]

    def test_encrypted_sweep_searches_primes_for_one_key(self, tmp_path, monkeypatch):
        keygen.cache_clear()
        calls = []
        search = fedfall.secure_transport._random_prime

        def counting_search(bits, rng):
            calls.append(bits)
            return search(bits, rng)

        monkeypatch.setattr(fedfall.secure_transport, "_random_prime", counting_search)
        out = tmp_path / "sweep"
        code = cli_main(
            ["sweep", "--scenario", "pfl_swa", "--synthetic", "--seed", "3",
             "--param", "mu=0:0.02:0.01", "--out", str(out),
             "--set", "encrypt_transport=true", "--set", "he_key_bits=256"]
            + FAST + ["--set", "global_epochs=1"]
        )
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["mu=0", "mu=0.01", "mu=0.02"]
        swept = len(calls)
        keygen.cache_clear()
        keygen(256, seed=3)
        assert swept == len(calls) - swept >= 2

    @pytest.mark.parametrize(
        "param", ["seed=0:1:1", "stride=12:24:12", "lr=0.001:0.002:0.001"],
        ids=lambda param: param.partition("=")[0],
    )
    def test_run_directories_reproduce_under_train(self, tmp_path, capsys, param):
        out = tmp_path / "sweep"
        assert cli_main(
            ["sweep", "--scenario", "fl_fedavg", "--synthetic", "--param", param,
             "--out", str(out)] + FAST + ["--set", "global_epochs=1"]
        ) == 0
        runs = sorted(out.iterdir())
        assert len(runs) == 2
        for run in runs:
            replay = tmp_path / "replay" / run.name
            assert cli_main(
                ["train", "--scenario", "fl_fedavg", "--synthetic",
                 "--config", str(run / "config.cfg"), "--out", str(replay)]
            ) == 0
            for name in ARTIFACTS:
                assert (run / name).read_bytes() == (replay / name).read_bytes(), (run.name, name)

    @pytest.mark.parametrize("name", ["window", "stride"])
    def test_cache_grid_over_the_data_is_validation_error(self, tmp_path, capsys, name):
        cache = tmp_path / "synthetic.npz"
        assert cli_main(["prepare-data", "--synthetic", "--out", str(cache), "--set", "stride=12"]) == 0
        out = tmp_path / "sweep"
        code = cli_main(
            ["sweep", "--scenario", "central", "--data", str(cache),
             "--param", f"{name}=12:24:12", "--out", str(out)] + FAST
        )
        assert code == 1
        assert f"a {name} grid needs --synthetic" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "param, names",
        [
            # 1e+06 twice under %g
            ("hidden_size=1000000:1000001:1", ["hidden_size=1000000", "hidden_size=1000001"]),
            # lr=0.001 three times under %g
            ("lr=0.001:0.0010000021:0.000000001", ["lr=0.001", "lr=0.001000001", "lr=0.001000002"]),
        ],
        ids=["int", "float"],
    )
    def test_run_names_tell_grid_values_apart(self, tmp_path, monkeypatch, param, names):
        ran = []
        monkeypatch.setattr(fedfall.cli, "_run", lambda args, config, out_dir: ran.append(out_dir))
        out = tmp_path / "sweep"
        assert cli_main(["sweep", "--scenario", "central", "--synthetic", "--param", param,
                         "--out", str(out)]) == 0
        assert ran == [out / name for name in names]

    def test_colliding_run_names_are_validation_error(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = cli_main(
            ["sweep", "--scenario", "central", "--synthetic",
             "--param", "mu=10:10.000000000002:0.000000000001", "--out", str(out)] + FAST
        )
        assert code == 1
        assert "share one run directory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec",
        [
            "classification_threshold=0.5:0.3:0.05",  # start past stop
            "classification_threshold=0.3:0.5:0",  # zero step
            "classification_threshold=0.3:0.5",  # malformed
            "nope=0.3:0.5:0.1",  # unknown field
            "global_epochs=1:2:0.5",  # fractional step for int field, after a valid value
            "beta=0.4:0.5:0.1",  # out of range, after a valid value
            "output_dir=1:2:1",  # non-numeric field
        ],
    )
    def test_bad_grid_specs_are_validation_errors(self, tmp_path, spec):
        out = tmp_path / "s"
        code = cli_main(
            ["sweep", "--scenario", "pfl_swa", "--synthetic",
             "--param", spec, "--out", str(out)] + FAST
        )
        assert code == 1
        assert not out.exists()  # no grid value runs before every one is checked

    @pytest.mark.parametrize(
        "grid", ["0:nan:0.1", "0:inf:1", "nan:1:0.1", "-inf:0:1", "0:1:nan", "0:1:inf"]
    )
    def test_non_finite_grid_rejected(self, grid):
        with pytest.raises(ConfigError, match="finite"):
            _sweep_values(f"lr={grid}")


class TestSecureDemoAndGradcheck:
    def test_secure_demo_small_key(self, capsys):
        code = cli_main(["secure-demo", "--clients", "3", "--dim", "50",
                         "--set", "he_key_bits=256"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "max_abs_error" in printed

    def test_gradcheck_passes_quickly(self, capsys):
        code = cli_main(["gradcheck", "--models", "2", "--coords", "6"])
        assert code == 0
        assert "max_rel_err" in capsys.readouterr().out

    def test_gradcheck_impossible_tolerance_fails(self):
        assert cli_main(["gradcheck", "--models", "1", "--coords", "4",
                         "--tol", "1e-15"]) == 1


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli_main(["train", "--scenario", "central", "--frobnicate"]) == 1

    def test_unknown_command_is_usage_error(self):
        assert cli_main(["explode"]) == 1

    def test_no_command_is_usage_error(self):
        assert cli_main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "prepare-data" in capsys.readouterr().out

    def test_bad_set_value_is_validation_error(self, tmp_path):
        code = cli_main(
            ["train", "--scenario", "central", "--synthetic",
             "--out", str(tmp_path / "x"), "--set", "hidden_size=tiny"]
        )
        assert code == 1

    def test_malformed_set_pair_is_validation_error(self, tmp_path):
        code = cli_main(
            ["train", "--scenario", "central", "--synthetic",
             "--out", str(tmp_path / "x"), "--set", "hidden_size"]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["gradcheck", "--models", "0"],
            ["gradcheck", "--coords", "0"],
            ["gradcheck", "--timesteps", "0"],
            ["gradcheck", "--features", "0"],
            ["secure-demo", "--dim", "0"],
            ["secure-demo", "--clients", "-1"],
        ],
        ids=lambda argv: argv[1],
    )
    def test_count_below_one_is_usage_error(self, capsys, argv):
        assert cli_main(argv) == 1
        assert f"argument {argv[1]}: must be an integer >= 1" in capsys.readouterr().err

    def test_zero_key_bits_is_validation_error(self, capsys, monkeypatch):
        def no_key(*args, **kwargs):
            raise AssertionError("made a key for a config it should reject")

        monkeypatch.setattr(fedfall.cli, "keygen", no_key)
        assert cli_main(["secure-demo", "--dim", "1", "--set", "he_key_bits=0"]) == 1
        assert capsys.readouterr().err == "error: he_key_bits must be >= 128, got 0\n"

    @pytest.mark.parametrize(
        "command, out, taken",
        [
            ("train", "file", "file"),
            ("train", "file/run", "file"),
            ("sweep", "file", "file"),
            ("sweep", "dir", "dir/lr=0.002"),  # the second run's directory
        ],
        ids=["train", "train-parent", "sweep", "sweep-run"],
    )
    def test_unusable_output_path_is_validation_error(
        self, tmp_path, capsys, monkeypatch, command, out, taken
    ):
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        (tmp_path / "dir" / "lr=0.002").write_text("")
        monkeypatch.setattr(fedfall.simulate, "run_round", _no_round)
        grid = ["--param", "lr=0.001:0.002:0.001"] if command == "sweep" else []
        code = cli_main(
            [command, "--scenario", "central", "--synthetic", "--out", str(tmp_path / out)]
            + grid + FAST
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: output directory ")
        assert err.endswith(f": {tmp_path / taken} exists and is not a directory\n")
        assert sorted(p.name for p in (tmp_path / "dir").iterdir()) == ["lr=0.002"]

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "tiny"])
    def test_bad_tolerance_is_usage_error(self, capsys, tol):
        assert cli_main(["gradcheck", "--models", "1", "--tol", tol]) == 1
        assert "argument --tol: must be a finite number > 0" in capsys.readouterr().err

    def test_missing_csv_is_runtime_error(self, tmp_path):
        code = cli_main(
            ["prepare-data", "--csv", str(tmp_path / "absent.csv"),
             "--out", str(tmp_path / "c.npz")]
        )
        assert code == 2

    @pytest.mark.parametrize("kind", sorted(CACHE_CORRUPTIONS))
    def test_corrupt_cache_is_validation_error(self, tmp_path, capsys, kind):
        bad = tmp_path / "corrupt.cache"
        assert cli_main(["prepare-data", "--synthetic", "--out", str(bad), "--set", "stride=12"]) == 0
        bad.write_bytes(CACHE_CORRUPTIONS[kind](bad.read_bytes()))
        capsys.readouterr()
        code = cli_main(
            ["train", "--scenario", "central", "--data", str(bad),
             "--out", str(tmp_path / "x")] + FAST
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    @pytest.mark.parametrize("label", [0, 1])
    def test_short_window_is_validation_error(self, tmp_path, capsys, monkeypatch, label):
        split, train, origin = with_one_short_window(label)
        monkeypatch.setattr(
            fedfall.cli, "make_synthetic_dataset", lambda **kw: DatasetSplit(train, split.test_by_client)
        )
        code = cli_main(
            ["train", "--scenario", "pfl_swa", "--synthetic", "--out", str(tmp_path / "x")]
            + FAST + ["--set", "smote_target=0.3"]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: window {origin} has shape (19, ")

    def test_cache_without_training_windows_is_validation_error(self, tmp_path, capsys):
        split = make_synthetic_dataset(seed=0, stride=12)
        split = dataclasses.replace(split, train_by_client={cid: () for cid in split.clients})
        cache = tmp_path / "test_only.cache"
        save_dataset(cache, split)
        code = cli_main(
            ["train", "--scenario", "central", "--data", str(cache),
             "--out", str(tmp_path / "x")] + FAST
        )
        assert code == 1
        assert capsys.readouterr().err == "error: dataset has no training windows\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_test_window_is_validation_error(
        self, tmp_path, capsys, monkeypatch, value
    ):
        split = make_synthetic_dataset(seed=0, stride=12)
        i = len(split.test) // 2
        w = split.test[i]
        cache = tmp_path / "bad.cache"
        save_dataset(cache, split)
        cache.write_bytes(with_value(cache.read_bytes(), "test", i, 7, 4, value))
        monkeypatch.setattr(fedfall.simulate, "run_round", _no_round)
        code = cli_main(
            ["train", "--scenario", "epfl_swa", "--data", str(cache),
             "--out", str(tmp_path / "x")] + FAST
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {cache}: test window {w.origin} of client {w.origin[0]!r} "
            "holds a non-finite value\n"
        )
        assert not (tmp_path / "x").exists()

    def test_cache_without_test_windows_is_validation_error(self, tmp_path, capsys):
        split = make_synthetic_dataset(seed=0, stride=12)
        split = dataclasses.replace(split, test_by_client={cid: () for cid in split.clients})
        cache = tmp_path / "train_only.cache"
        save_dataset(cache, split)
        code = cli_main(
            ["train", "--scenario", "pfl_swa", "--data", str(cache),
             "--out", str(tmp_path / "x")] + FAST
        )
        assert code == 1
        assert capsys.readouterr().err == "error: dataset has no test windows\n"
        assert not (tmp_path / "x").exists()


class TestLogLevel:
    def train_without_b(self, tmp_path, monkeypatch, level):
        split = make_synthetic_dataset(seed=0, stride=12)
        split = dataclasses.replace(split, train_by_client={**split.train_by_client, "B": ()})
        monkeypatch.setattr(fedfall.cli, "make_synthetic_dataset", lambda **kw: split)
        level_flag = [] if level is None else ["--log-level", level]
        code, _ = run_train(tmp_path, level_flag, out_name=f"run-{level}")
        assert code == 0

    def test_error_hides_the_skipped_client_warning(self, tmp_path, capsys, monkeypatch):
        warning = "WARNING:fedfall.federation:client B has no training windows; skipped\n"
        self.train_without_b(tmp_path, monkeypatch, None)
        assert warning in capsys.readouterr().err
        self.train_without_b(tmp_path, monkeypatch, "ERROR")
        assert capsys.readouterr().err == ""

    def test_debug_shows_a_malformed_row(self, tmp_path, capsys):
        csv_path = write_ldpa_csv(tmp_path / "raw.csv", ["A01,only,three"])
        argv = ["prepare-data", "--csv", str(csv_path), "--set", "window=8", "--set", "stride=4"]
        assert cli_main(argv + ["--out", str(tmp_path / "a.npz")]) == 0
        assert "skipping malformed row" not in capsys.readouterr().err
        assert cli_main(argv + ["--out", str(tmp_path / "b.npz"), "--log-level", "DEBUG"]) == 0
        err = capsys.readouterr().err
        assert "DEBUG:fedfall.data.ldpa:skipping malformed row 145: only 3 columns, need 8\n" in err

    @pytest.mark.parametrize("level", ["VERBOSE", "CRITICAL", ""])
    def test_unknown_level_is_usage_error(self, capsys, level):
        assert cli_main(["gradcheck", "--models", "1", "--log-level", level]) == 1
        assert "--log-level" in capsys.readouterr().err

    def test_package_logger_restored(self):
        package_logger = logging.getLogger("fedfall")
        before = (package_logger.level, list(package_logger.handlers))
        assert cli_main(["gradcheck", "--models", "1", "--log-level", "DEBUG"]) == 0
        assert (package_logger.level, list(package_logger.handlers)) == before


# every exception class in fedfall.errors, plus the two built-in bases
# that the exit codes name
_RAISED = sorted(
    (obj for obj in vars(fedfall.errors).values()
     if isinstance(obj, type) and issubclass(obj, Exception)),
    key=lambda cls: cls.__name__,
) + [ValueError, OSError]


@pytest.mark.parametrize("cls", _RAISED, ids=lambda cls: cls.__name__)
def test_exit_code_follows_the_error_class(monkeypatch, capsys, cls):
    """A ValueError exits 1; any other package error or an OSError exits 2."""
    exc = cls(3, 0.4, 2) if cls is AggregationInfeasibleError else cls("boom")

    def fail(args):
        raise exc

    monkeypatch.setattr(fedfall.cli, "cmd_train", fail)
    code = cli_main(["train", "--scenario", "central", "--synthetic"])
    err = capsys.readouterr().err
    if issubclass(cls, ValueError):
        assert code == 1 and err == f"error: {exc}\n"
    else:
        assert code == 2 and err == f"runtime failure: {exc}\n"


def test_readme_command_line_names_every_option():
    """README's "Command line" section names every option of every
    subcommand but --help, and no option that none of them has."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    written = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    subcommands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices.values()
    options = {
        option
        for p in subcommands
        for action in p._actions
        for option in action.option_strings
        if option.startswith("--")
    } - {"--help"}
    assert sorted(options - written) == [], "options the README leaves out"
    assert sorted(written - options) == [], "options the README names that do not exist"


def test_cli_loads_every_module():
    """A module that ``import fedfall.cli`` does not load is reachable only
    from tests; walk_packages imports subpackages itself, so sys.modules is
    read before the walk."""
    src = str(Path(fedfall.__file__).parents[1])
    script = (
        "import pkgutil, sys, fedfall, fedfall.cli\n"
        "loaded = set(sys.modules)\n"
        "for m in pkgutil.walk_packages(fedfall.__path__, 'fedfall.'):\n"
        "    if m.name not in loaded: print(m.name)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.split() == []


# Kept without a caller in src/: the planned run checkpoint builds on them.
_UNREFERENCED_ALLOWED = frozenset({"save_params", "load_params"})


def _references(node: ast.AST) -> dict:
    """How often each name is used under ``node``: as a bare name, as an attribute."""
    refs = {ast.Name: Counter(), ast.Attribute: Counter()}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[ast.Name][sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[ast.Attribute][sub.attr] += 1
    return refs


def _overrides(module: str, cls: str, name: str) -> bool:
    """A dunder (Python calls it by protocol) or a method some base class defines."""
    if name.startswith("__") and name.endswith("__"):
        return True
    bases = getattr(importlib.import_module(module), cls).__mro__[1:]
    return any(name in vars(base) for base in bases)


def test_src_defines_nothing_only_tests_use():
    """Every top-level function, class and method in src/fedfall is named
    somewhere in src/ outside its own definition. A method counts only as an
    attribute (``x.name``), so a local of the same name does not hide it; a
    module-level definition counts as a bare name or an attribute. Imports
    and ``__all__`` strings are not references, so ``__init__`` re-exports
    do not count."""
    root = Path(fedfall.__file__).parent
    trees = {
        ".".join(("fedfall",) + path.relative_to(root).with_suffix("").parts).removesuffix(
            ".__init__"
        ): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(root.rglob("*.py"))
    }
    used = {kind: Counter() for kind in (ast.Name, ast.Attribute)}
    for tree in trees.values():
        for kind, counts in _references(tree).items():
            used[kind] += counts
    kinds = (ast.FunctionDef, ast.ClassDef)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, kinds):
                continue
            defs = [(node, None)]
            if isinstance(node, ast.ClassDef):
                defs += [(sub, node.name) for sub in node.body if isinstance(sub, kinds)]
            for d, cls in defs:
                own = _references(d)
                counted = (ast.Attribute,) if cls else (ast.Name, ast.Attribute)
                if any(used[k][d.name] > own[k][d.name] for k in counted):
                    continue
                if d.name in fedfall.__all__ or d.name in _UNREFERENCED_ALLOWED:
                    continue
                if cls is not None and _overrides(module, cls, d.name):
                    continue
                unused.append(f"{module}.{cls + '.' if cls else ''}{d.name}")
    assert not unused, "referenced from no src/ code: " + ", ".join(unused)
