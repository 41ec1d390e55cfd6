"""Experiment configuration: defaults, parsing, fingerprints, overrides."""

import dataclasses

import pytest

from fedfall.config import (
    ENV_SEED,
    ExperimentConfig,
    config_to_text,
    load_config,
    parse_config_text,
)
from fedfall.errors import ConfigError


class TestDefaults:
    def test_reference_values(self):
        cfg = ExperimentConfig()
        assert cfg.window == 20
        assert cfg.stride == 1
        assert cfg.smote_target == 0.25
        assert cfg.smote_k == 5
        assert cfg.hidden_size == 128
        assert cfg.lr == 0.001
        assert cfg.batch_size == 32
        assert cfg.global_epochs == 60
        assert cfg.client_epochs == 30
        assert cfg.mu == 0.01
        assert cfg.beta == 0.1
        assert cfg.alpha == 0.1
        assert cfg.swa_mode == "delta"
        assert cfg.trim_enabled is True
        assert cfg.classification_threshold == 0.3
        assert cfg.alert_threshold == 0.4
        assert cfg.early_stop_patience == 10
        assert cfg.feedback_enabled is False
        assert cfg.feedback_noise_p == 0.0
        assert cfg.encrypt_transport is False
        assert cfg.he_key_bits == 1024
        assert cfg.fixed_point_bits == 20
        assert cfg.clip_range == 100.0
        assert cfg.seed == 0

    @pytest.mark.parametrize(
        "kw",
        [
            {"window": 1},
            {"stride": 0},
            {"smote_target": 1.0},
            {"smote_target": -0.1},
            {"smote_k": 0},
            {"hidden_size": 0},
            {"lr": 0.0},
            {"batch_size": 0},
            {"global_epochs": 0},
            {"client_epochs": 0},
            {"mu": -1e-9},
            {"beta": 0.5},
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"swa_mode": "mean"},
            {"classification_threshold": 0.0},
            {"alert_threshold": 1.0},
            {"early_stop_patience": 0},
            {"feedback_noise_p": 1.1},
            {"monitor_windows_per_round": -1},
            {"he_key_bits": 64},
            {"fixed_point_bits": 0},
            {"clip_range": 0.0},
            {"seed": -1},
            {"batch_size": 1},
            {"lr": float("nan")},
            {"mu": float("nan")},
            # codec slots that do not fit below the key's modulus
            {"he_key_bits": 128, "fixed_point_bits": 130},
            {"he_key_bits": 128, "fixed_point_bits": 111},
            {"fixed_point_bits": 1100},
            {"clip_range": 1e300},
            {"clip_range": float("inf")},
            {"classification_threshold": 1.0},
            {"alert_threshold": 1.2},
            {"beta": -0.1},
            {"beta": float("nan")},
            {"alpha": float("nan")},
            {"feedback_noise_p": -0.1},
        ],
    )
    def test_field_validation(self, kw):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kw)

    def test_largest_fitting_codec_accepted(self):
        cfg = ExperimentConfig(he_key_bits=128, fixed_point_bits=110)
        assert cfg.fixed_point_bits == 110

    def test_replace_checks_keys(self):
        cfg = ExperimentConfig()
        assert cfg.replace(lr=0.01).lr == 0.01
        with pytest.raises(ConfigError):
            cfg.replace(learning_rate=0.01)

    def test_replace_revalidates(self):
        with pytest.raises(ConfigError):
            ExperimentConfig().replace(lr=-1.0)


class TestParsing:
    def test_key_value_lines_with_comments(self):
        values = parse_config_text(
            "# experiment\nhidden_size = 16\nlr=0.01\n\nfeedback_enabled = yes\n"
        )
        assert values == {"hidden_size": 16, "lr": 0.01, "feedback_enabled": True}

    def test_unknown_key_rejected_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("lr = 0.1\nlearning_rate = 0.1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("lr = 0.1\nlr = 0.2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config_text("just some words\n")

    @pytest.mark.parametrize("raw", ["true", "1", "yes", "on", "TRUE", "On"])
    def test_bool_true_words(self, raw):
        assert parse_config_text(f"trim_enabled = {raw}")["trim_enabled"] is True

    @pytest.mark.parametrize("raw", ["false", "0", "no", "off"])
    def test_bool_false_words(self, raw):
        assert parse_config_text(f"trim_enabled = {raw}")["trim_enabled"] is False

    def test_bad_scalar_values(self):
        with pytest.raises(ConfigError, match="boolean"):
            parse_config_text("trim_enabled = maybe")
        with pytest.raises(ConfigError, match="integer"):
            parse_config_text("hidden_size = twelve")
        with pytest.raises(ConfigError, match="number"):
            parse_config_text("lr = fast")

    def test_string_fields_pass_through(self):
        assert parse_config_text("data_path = /data/x.csv")["data_path"] == "/data/x.csv"


class TestLoadConfig:
    def test_file_then_overrides_then_env(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lr = 0.01\nseed = 3\nhidden_size = 8\n")
        cfg = load_config(
            str(path), overrides={"lr": "0.05"}, env={ENV_SEED: "99"}
        )
        assert cfg.lr == 0.05  # override beats file
        assert cfg.seed == 99  # env beats both
        assert cfg.hidden_size == 8  # file beats default
        assert cfg.batch_size == 32  # default survives

    def test_no_sources_gives_defaults(self):
        assert load_config(env={}) == ExperimentConfig()

    def test_env_ignored_when_absent(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 7\n")
        assert load_config(str(path), env={}).seed == 7

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError):
            load_config(overrides={"nope": "1"}, env={})

    def test_roundtrip_through_text(self, tmp_path):
        cfg = ExperimentConfig(
            lr=0.007, hidden_size=24, trim_enabled=False, swa_mode="literal",
            feedback_enabled=True, data_path="/tmp/x.csv", seed=5,
        )
        path = tmp_path / "round.cfg"
        path.write_text(config_to_text(cfg))
        assert load_config(str(path), env={}) == cfg

    def test_serialized_text_is_flat_key_value(self):
        text = config_to_text(ExperimentConfig())
        for line in text.strip().splitlines():
            key, eq, _ = line.partition("=")
            assert eq == "="
            assert key.strip() in {f.name for f in dataclasses.fields(ExperimentConfig)}


class TestFingerprint:
    def test_stable_across_equal_configs(self):
        assert ExperimentConfig().fingerprint() == ExperimentConfig().fingerprint()
        assert len(ExperimentConfig().fingerprint()) == 16

    def test_output_dir_is_not_effective(self):
        a = ExperimentConfig(output_dir="runs")
        b = ExperimentConfig(output_dir="elsewhere")
        assert a.fingerprint() == b.fingerprint()

    def test_every_other_field_is_effective(self):
        base = ExperimentConfig()
        probes = {
            "window": 21, "stride": 2, "smote_target": 0.3, "smote_k": 6,
            "hidden_size": 64, "lr": 0.002, "batch_size": 16, "global_epochs": 61,
            "client_epochs": 29, "mu": 0.02, "beta": 0.2, "alpha": 0.2,
            "swa_mode": "literal", "trim_enabled": False,
            "classification_threshold": 0.35, "alert_threshold": 0.45,
            "early_stop_patience": 11, "feedback_enabled": True,
            "feedback_noise_p": 0.1, "monitor_windows_per_round": 21,
            "encrypt_transport": True, "he_key_bits": 2048,
            "fixed_point_bits": 21, "clip_range": 50.0, "seed": 1,
            "data_path": "a.csv", "cache_path": "b.npz",
        }
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(probes) == fields - {"output_dir"}
        for key, value in probes.items():
            changed = base.replace(**{key: value})
            assert changed.fingerprint() != base.fingerprint(), key

    def test_float_changes_below_str_precision_still_count(self):
        a = ExperimentConfig(lr=0.1)
        b = ExperimentConfig(lr=0.1 + 1e-12)
        assert a.fingerprint() != b.fingerprint()
