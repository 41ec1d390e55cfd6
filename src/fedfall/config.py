"""Experiment configuration: one flat record of every tunable.

Configs load from flat ``key = value`` text files (# comments allowed),
can be overridden per-key from the command line, and honor the
FEDFALL_SEED environment variable as a final seed override. Unknown keys
are rejected rather than ignored so typos fail loudly.

The fingerprint hashes every result-affecting field, so two runs carry
the same fingerprint exactly when their effective parameters match.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass

from fedfall.errors import ConfigError
from fedfall.secure_transport import FixedPointCodec, min_modulus_bits, slot_layout

ENV_SEED = "FEDFALL_SEED"

# The two readings of the aggregation rule (see ``fedfall.aggregation``).
MODES = ("delta", "literal")

# Output location does not alter results, so it stays out of the fingerprint.
_NON_EFFECTIVE_FIELDS = frozenset({"output_dir"})


@dataclass(frozen=True)
class ExperimentConfig:
    """Defaults reproduce the reference fall-detection setup."""

    # data preparation
    window: int = 20
    stride: int = 1
    smote_target: float = 0.25
    smote_k: int = 5
    # model
    hidden_size: int = 128
    # local training
    lr: float = 0.001
    batch_size: int = 32
    global_epochs: int = 60
    client_epochs: int = 30
    mu: float = 0.01
    # aggregation
    beta: float = 0.1
    alpha: float = 0.1
    swa_mode: str = "delta"
    trim_enabled: bool = True
    # inference and alerting
    classification_threshold: float = 0.3
    alert_threshold: float = 0.4
    early_stop_patience: int = 10
    feedback_enabled: bool = False
    feedback_noise_p: float = 0.0
    monitor_windows_per_round: int = 20
    # encrypted transport
    encrypt_transport: bool = False
    he_key_bits: int = 1024
    fixed_point_bits: int = 20
    clip_range: float = 100.0
    # reproducibility and paths
    seed: int = 0
    data_path: str = ""
    cache_path: str = ""
    output_dir: str = "runs"

    def __post_init__(self):
        def need(cond: bool, msg: str) -> None:
            if not cond:
                raise ConfigError(msg)

        need(self.window >= 2, f"window must be >= 2, got {self.window}")
        need(self.stride >= 1, f"stride must be >= 1, got {self.stride}")
        need(0.0 <= self.smote_target < 1.0, f"smote_target must be in [0,1), got {self.smote_target}")
        need(self.smote_k >= 1, f"smote_k must be >= 1, got {self.smote_k}")
        need(self.hidden_size >= 1, f"hidden_size must be >= 1, got {self.hidden_size}")
        need(self.lr > 0, f"lr must be positive, got {self.lr}")
        need(self.batch_size >= 2,
             f"batch_size must be >= 2 (a train-mode batch needs 2 windows), got {self.batch_size}")
        for name in ("global_epochs", "client_epochs", "early_stop_patience"):
            value = getattr(self, name)
            need(value >= 1, f"{name} must be >= 1, got {value}")
        need(self.mu >= 0, f"mu must be >= 0, got {self.mu}")
        need(0.0 <= self.beta < 0.5, f"beta must be in [0, 0.5), got {self.beta}")
        need(0.0 < self.alpha <= 1.0, f"alpha must be in (0, 1], got {self.alpha}")
        need(self.swa_mode in MODES, f"swa_mode must be one of {MODES}, got {self.swa_mode!r}")
        for name in ("classification_threshold", "alert_threshold"):
            value = getattr(self, name)
            need(0.0 < value < 1.0, f"{name} must be in (0,1), got {value}")
        need(0.0 <= self.feedback_noise_p <= 1.0,
             f"feedback_noise_p must be in [0,1], got {self.feedback_noise_p}")
        need(self.monitor_windows_per_round >= 0,
             f"monitor_windows_per_round must be >= 0, got {self.monitor_windows_per_round}")
        need(self.he_key_bits >= 128, f"he_key_bits must be >= 128, got {self.he_key_bits}")
        try:
            codec = FixedPointCodec(scale_bits=self.fixed_point_bits, clip_range=self.clip_range)
            slot_layout(codec, min_modulus_bits(self.he_key_bits))
        except ValueError as exc:
            raise ConfigError(f"he_key_bits/fixed_point_bits/clip_range: {exc}") from None
        need(self.seed >= 0, f"seed must be >= 0, got {self.seed}")

    def replace(self, **changes) -> "ExperimentConfig":
        unknown = set(changes) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return dataclasses.replace(self, **changes)

    def fingerprint(self) -> str:
        parts = []
        for f in sorted(dataclasses.fields(self), key=lambda f: f.name):
            if f.name in _NON_EFFECTIVE_FIELDS:
                continue
            value = getattr(self, f.name)
            if isinstance(value, float):
                text = repr(value)
            else:
                text = str(value)
            parts.append(f"{f.name}={text}")
        digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
        return digest[:16]


FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}

_TRUE_WORDS = {"true", "1", "yes", "on"}
_FALSE_WORDS = {"false", "0", "no", "off"}


def _coerce(key: str, raw: str):
    kind = FIELD_TYPES[key]
    raw = raw.strip()
    if kind == "bool":
        low = raw.lower()
        if low in _TRUE_WORDS:
            return True
        if low in _FALSE_WORDS:
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if kind == "float":
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    return raw


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines into typed values."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def load_config(
    path: str | None = None,
    overrides: dict | None = None,
    env: dict | None = None,
) -> ExperimentConfig:
    """Defaults, then file values, then explicit overrides, then FEDFALL_SEED."""
    values: dict = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            values.update(parse_config_text(fh.read()))
    if overrides:
        unknown = set(overrides) - set(FIELD_TYPES)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in overrides.items():
            values[key] = _coerce(key, value) if isinstance(value, str) else value
    env = os.environ if env is None else env
    if ENV_SEED in env:
        values["seed"] = _coerce("seed", env[ENV_SEED])
    return ExperimentConfig(**values)


def config_to_text(config: ExperimentConfig) -> str:
    """Serialize a config to the same flat format ``load_config`` reads."""
    lines = []
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
