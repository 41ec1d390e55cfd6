"""Names and call shapes that tools outside the package rely on.

The benchmark in ``perfbench/`` wraps public functions by the path they are
exported from, tells train, bulk-eval and single-window-eval forwards apart
by the ``mode`` keyword and the batch length of
``fedfall.nn.model_forward(params, batch, mode=...)``, digests the final
weights with ``fedfall.nn.params_to_vector``, and pairs each
``encrypt_vector`` call with the next ``decrypt_vector(enc, key, codec)``
call to check every encrypted update's round trip, counting coordinates
with ``len()`` of the encrypted vector.
"""

import importlib
import inspect
import sys

import numpy as np
import pytest

import fedfall.nn
import fedfall.secure_transport
from fedfall.config import ExperimentConfig
from fedfall.simulate import simulate_full

from separable import make_separable_dataset

PUBLIC = (
    "fedfall.nn.model_forward",
    "fedfall.nn.model_backward",
    "fedfall.nn.adam_step",
    "fedfall.nn.vector_to_params",
    "fedfall.nn.params_to_vector",
    "fedfall.data.stack_windows",
    "fedfall.data.smote_oversample",
    "fedfall.federation.local_train",
    "fedfall.federation.run_round",
    "fedfall.federation.ensemble_predict",
    "fedfall.federation.alert_and_feedback",
    "fedfall.aggregation.swa_aggregate",
    "fedfall.aggregation.fedavg",
    "fedfall.secure_transport.keygen",
    "fedfall.secure_transport.encrypt_vector",
    "fedfall.secure_transport.decrypt_vector",
    "fedfall.simulate.simulate_full",
)


def tiny_dataset(seed):
    return make_separable_dataset(
        seed=seed, n_clients=3, train_per_client=16, test_per_client=4, window=4, features=2
    )


@pytest.mark.parametrize("path", PUBLIC)
def test_public_function_exported(path):
    module, _, attr = path.rpartition(".")
    assert callable(getattr(importlib.import_module(module), attr))


def test_model_forward_signature():
    params = inspect.signature(fedfall.nn.model_forward).parameters
    assert list(params)[:3] == ["params", "batch", "mode"]
    assert params["mode"].default == "train"


def test_params_to_vector_digests_simulation_result():
    config = ExperimentConfig(
        hidden_size=2, global_epochs=1, batch_size=8, smote_target=0.0, seed=1
    )
    result = simulate_full(tiny_dataset(1), config, "pfl_swa")
    vec = fedfall.nn.params_to_vector(result.global_params)
    assert vec.dtype == np.float64 and vec.ndim == 1
    assert vec.size == fedfall.nn.manifest_for(2, 2).dim


def test_inference_calls_model_forward_with_mode_keyword(monkeypatch):
    real = fedfall.nn.model_forward
    calls = []  # (positional count, mode keyword, batch length)

    def spy(*args, **kwargs):
        calls.append((len(args), kwargs.get("mode"), len(args[1])))
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "fedfall" or name.startswith("fedfall.")):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, spy)

    config = ExperimentConfig(
        hidden_size=2,
        global_epochs=2,
        batch_size=8,
        smote_target=0.0,
        feedback_enabled=True,
        monitor_windows_per_round=2,
        seed=0,
    )
    simulate_full(tiny_dataset(0), config, "epfl_swa")
    assert calls and all(n == 2 for n, _, _ in calls), "mode must be passed by keyword"
    assert {mode for _, mode, _ in calls} == {"train", "eval"}
    eval_lengths = {length for _, mode, length in calls if mode == "eval"}
    assert 1 in eval_lengths and max(eval_lengths) > 1


def test_one_encrypt_and_one_positional_decrypt_per_update(monkeypatch):
    real_encrypt = fedfall.secure_transport.encrypt_vector
    real_decrypt = fedfall.secure_transport.decrypt_vector
    calls = []

    def encrypt_spy(params, *args, **kwargs):
        enc = real_encrypt(params, *args, **kwargs)
        calls.append(("encrypt", len(params), len(enc)))
        return enc

    def decrypt_spy(*args, **kwargs):
        assert len(args) == 3 and not kwargs, "decrypt_vector(enc, key, codec) is positional"
        out = real_decrypt(*args, **kwargs)
        calls.append(("decrypt", len(args[0]), len(out)))
        return out

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "fedfall" or name.startswith("fedfall.")):
            for attr, value in list(vars(module).items()):
                if value is real_encrypt:
                    monkeypatch.setattr(module, attr, encrypt_spy)
                elif value is real_decrypt:
                    monkeypatch.setattr(module, attr, decrypt_spy)

    config = ExperimentConfig(
        hidden_size=1,
        global_epochs=2,
        batch_size=8,
        smote_target=0.0,
        encrypt_transport=True,
        he_key_bits=256,
        seed=2,
    )
    simulate_full(tiny_dataset(2), config, "fl_fedavg")
    dim = fedfall.nn.manifest_for(2, 1).dim
    assert calls == [("encrypt", dim, dim), ("decrypt", dim, dim)] * (3 * 2)
