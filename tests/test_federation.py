"""Client/server round mechanics: privacy, local training, aggregation."""

import logging
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from fedfall.config import ExperimentConfig
from fedfall.errors import (
    AggregationInfeasibleError,
    ConfigError,
    PrivacyViolationError,
    ShapeMismatchError,
)
from fedfall.federation import (
    ClientState,
    FeedbackEvent,
    PrivateDataset,
    TransportConfig,
    alert_and_feedback,
    client_scope,
    early_stop_check,
    ensemble_predict,
    local_train,
    run_round,
)
from fedfall.metrics import report_from_probabilities
from fedfall.data.windows import SequenceWindow
from fedfall.nn import (
    AdamState,
    adam_step,
    bce_loss,
    commit_batchnorm_stats,
    init_params,
    manifest_for,
    model_backward,
    model_forward,
    params_to_vector,
    vector_to_params,
)
from fedfall.secure_transport import FixedPointCodec, keygen

import random as _random

from oracles import fedprox_penalty

T, F, H = 6, 3, 2


def make_windows(n, seed=0, labels=None):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        label = labels[i] if labels is not None else int(i % 2)
        out.append(
            SequenceWindow(
                values=rng.normal(size=(T, F)),
                label=label,
                origin=("A", "A01", i),
            )
        )
    return out


def make_client(cid="A", n_windows=8, seed=0, data_seed=0):
    return ClientState(
        client_id=cid,
        dataset=PrivateDataset(cid, make_windows(n_windows, seed=data_seed)),
        local_params=init_params(F, H, seed),
        adam=None,
        rng=np.random.default_rng(seed),
    )


def client_state(client):
    """Every part of a client's state that training reads or writes, as
    plain values."""
    return (
        client.local_params.vec.tobytes(),
        None if client.adam is None
        else (client.adam.t, client.adam.m.tobytes(), client.adam.v.tobytes()),
        client.rng.bit_generator.state,
        dict(client.last_train_log),
        dict(client.dataset.access_log),
    )


def small_config(**kw):
    defaults = dict(
        global_epochs=2,
        client_epochs=1,
        batch_size=4,
        lr=0.01,
        mu=0.01,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestPrivateDataset:
    def test_read_outside_any_scope_rejected_and_logged(self):
        ds = PrivateDataset("A", make_windows(3))
        with pytest.raises(PrivacyViolationError):
            ds.windows()
        assert ds.access_log == {"server": 1}

    def test_read_from_other_client_rejected(self):
        ds = PrivateDataset("A", make_windows(3))
        with client_scope("B"):
            with pytest.raises(PrivacyViolationError):
                ds.windows()
        assert ds.access_log == {"B": 1}

    def test_owner_reads_and_appends(self):
        ds = PrivateDataset("A", make_windows(3))
        with client_scope("A"):
            got = ds.windows()
            ds.append(got[0])
        assert len(ds) == 4
        assert ds.access_log == {"A": 2}

    def test_length_is_shared_metadata(self):
        ds = PrivateDataset("A", make_windows(3))
        assert len(ds) == 3  # no scope required, not logged
        assert ds.access_log == {}

    def test_append_outside_owner_rejected(self):
        ds = PrivateDataset("A", make_windows(1))
        with pytest.raises(PrivacyViolationError):
            ds.append(make_windows(1)[0])
        assert len(ds) == 1

    def test_scopes_nest_and_restore(self):
        a = PrivateDataset("A", make_windows(1))
        b = PrivateDataset("B", make_windows(1))
        with pytest.raises(PrivacyViolationError):
            a.windows()
        with client_scope("A"):
            a.windows()
            with client_scope("B"):
                b.windows()
                with pytest.raises(PrivacyViolationError):
                    a.windows()
            a.windows()  # back in A
            with pytest.raises(PrivacyViolationError):
                b.windows()
        with pytest.raises(PrivacyViolationError):
            a.windows()  # back on the server
        assert a.access_log == {"server": 2, "A": 2, "B": 1}
        assert b.access_log == {"B": 1, "A": 1}


class TestLocalTrain:
    def test_returns_update_with_counts(self):
        client = make_client()
        cfg = small_config(client_epochs=3)
        update, client = local_train(client, params_to_vector(client.local_params), cfg)
        assert update.client_id == "A"
        assert update.epochs_trained == 3
        assert update.sample_count == 8
        assert np.all(np.isfinite(update.params))
        assert len(client.last_train_log["epoch_losses"]) == 3

    def test_input_state_is_left_as_it_was(self):
        client = make_client()
        before = client_state(client)
        _, trained = local_train(client, params_to_vector(init_params(F, H, 9)), small_config())
        assert client_state(client) == before
        assert client.dataset.access_log == {} and trained.dataset.access_log == {"A": 1}
        assert client_state(trained) != before
        with client_scope("A"):
            trained.dataset.append(make_windows(1, seed=9)[0])
        assert (len(client.dataset), len(trained.dataset)) == (8, 9)
        with pytest.raises(FrozenInstanceError):
            client.adam = trained.adam

    def test_empty_dataset_skipped_with_warning(self, caplog):
        # one window cannot form a train-mode batch, so it is skipped like none
        for windows, message in (([], "no training windows"), (make_windows(1), "1 training window")):
            caplog.clear()
            client = ClientState(
                client_id="A",
                dataset=PrivateDataset("A", windows),
                local_params=init_params(F, H, 0),
                adam=None,
                rng=np.random.default_rng(0),
            )
            with caplog.at_level(logging.WARNING):
                update, state = local_train(client, params_to_vector(client.local_params), small_config())
            assert update is None and state is client
            assert any(message in r.message for r in caplog.records)

    def test_dataset_only_read_in_owner_scope(self):
        client = make_client()
        _, client = local_train(client, params_to_vector(client.local_params), small_config())
        assert set(client.dataset.access_log) == {"A"}

    @staticmethod
    def reference_training(seed, data_seed, anchor, mu, epochs=2, n=8, batch_size=4, lr=0.01):
        """Minibatch Adam on BCE plus ``fedprox_penalty``, written out step by
        step: forward and backward on a fresh float32 copy of the master
        weights at every step, and Adam on the float64 master."""
        windows = make_windows(n, seed=data_seed)
        batch_all = np.stack([w.values for w in windows]).astype(np.float32)
        labels_all = np.asarray([w.label for w in windows], dtype=np.float64)
        params = init_params(F, H, seed)
        adam = AdamState(dim=manifest_for(F, H).dim, lr=lr)
        rng = np.random.default_rng(seed)
        losses = []
        for _ in range(epochs):
            order = rng.permutation(n)
            batch_losses = []
            for s in range(0, n, batch_size):
                idx = order[s : s + batch_size]
                shadow = params.astype(np.float32)
                probs, cache = model_forward(shadow, batch_all[idx], mode="train")
                loss, dprobs = bce_loss(probs, labels_all[idx])
                grads = model_backward(cache, dprobs).vec.astype(np.float64)
                penalty = 0.0
                if mu != 0.0:
                    for lo, hi in manifest_for(F, H).trainable_slices:
                        part, pen_grad = fedprox_penalty(params.vec[lo:hi], anchor[lo:hi], mu)
                        penalty += part
                        grads[lo:hi] += pen_grad
                adam_step(adam, params.vec, grads)
                commit_batchnorm_stats(params, cache)
                batch_losses.append(loss + penalty)
            losses.append(float(np.mean(batch_losses)))
        return params.vec, losses

    def test_mu_zero_equals_plain_bce_training(self):
        """With no penalty the loop is exactly minibatch Adam on BCE."""
        cfg = small_config(mu=0.0, client_epochs=2, batch_size=4, lr=0.01)
        client = make_client(seed=5, data_seed=7)
        global_vec = params_to_vector(init_params(F, H, 99))
        update, client = local_train(client, global_vec, cfg)

        # independent plain-BCE loop with the same seeds and batching
        vec, losses = self.reference_training(5, 7, global_vec, mu=0.0)
        np.testing.assert_array_equal(update.params, vec)
        assert client.last_train_log["epoch_losses"] == pytest.approx(losses, abs=1e-12)

    def test_in_place_penalty_equals_fedprox_penalty(self):
        """The in-place proximal term is bit-identical to ``fedprox_penalty``."""
        cfg = small_config(mu=0.5, client_epochs=2, batch_size=4, lr=0.01)
        client = make_client(seed=5, data_seed=7)
        global_vec = params_to_vector(init_params(F, H, 99))
        update, client = local_train(client, global_vec, cfg)

        vec, losses = self.reference_training(5, 7, global_vec, mu=0.5)
        np.testing.assert_array_equal(update.params, vec)
        assert client.last_train_log["epoch_losses"] == losses
        # the penalty moved the result: the comparison is not vacuous
        plain, _ = self.reference_training(5, 7, global_vec, mu=0.0)
        assert not np.array_equal(vec, plain)

    def test_huge_mu_pins_trainable_params_to_global(self):
        cfg = small_config(mu=1e6, client_epochs=2, batch_size=4, lr=1e-4)
        client = make_client(seed=3)
        global_vec = params_to_vector(client.local_params)  # start at the anchor
        update, _ = local_train(client, global_vec, cfg)
        mask = manifest_for(F, H).trainable_mask()
        drift = np.max(np.abs(update.params[mask] - global_vec[mask]))
        assert drift < 1e-3

    def test_shape_mismatch_rejected(self):
        client = make_client()
        with pytest.raises(ShapeMismatchError):
            local_train(client, np.zeros(7), small_config())

    def test_deterministic_given_seeds(self):
        g = params_to_vector(init_params(F, H, 42))
        u1, _ = local_train(make_client(seed=1, data_seed=2), g, small_config())
        u2, _ = local_train(make_client(seed=1, data_seed=2), g, small_config())
        np.testing.assert_array_equal(u1.params, u2.params)

    def test_single_sample_tail_batch_skipped(self):
        client = make_client(n_windows=5)
        cfg = small_config(batch_size=4)
        update, client = local_train(client, params_to_vector(client.local_params), cfg)
        assert update.sample_count == 5
        assert np.isfinite(client.last_train_log["loss"])

    def test_adam_state_persists_across_calls(self):
        client = make_client()
        g = params_to_vector(client.local_params)
        cfg = small_config()
        _, first = local_train(client, g, cfg)
        moments = (first.adam.t, first.adam.m.copy(), first.adam.v.copy())
        _, second = local_train(first, g, cfg)
        # the moments carry over through the returned state, and the input's
        # Adam state is not moved
        assert second.adam.t == 2 * first.adam.t
        assert first.adam.t == moments[0]
        np.testing.assert_array_equal(first.adam.m, moments[1])
        np.testing.assert_array_equal(first.adam.v, moments[2])

    def test_update_params_do_not_alias_client_model(self):
        client = make_client()
        update, client = local_train(client, params_to_vector(client.local_params), small_config())
        trained = client.local_params.vec.copy()
        update.params[:] *= 1000.0  # an update_transform may scale it in place
        np.testing.assert_array_equal(client.local_params.vec, trained)

    def test_failed_training_leaves_client_model(self):
        client = make_client()
        before = client.local_params.vec.copy()
        with pytest.raises(ShapeMismatchError):
            local_train(client, np.zeros(7), small_config())
        np.testing.assert_array_equal(client.local_params.vec, before)

    def test_updates_client_local_params(self):
        client = make_client()
        before = params_to_vector(client.local_params)
        update, client = local_train(client, before, small_config())
        np.testing.assert_array_equal(params_to_vector(client.local_params), update.params)
        assert not np.array_equal(update.params, before)


def zeroed_client(cid, labels, seed=0):
    """Client whose model is all zeros and whose windows are identical."""
    values = np.ones((T, F)) * 0.3
    windows = [
        SequenceWindow(values=values.copy(), label=l, origin=(cid, f"{cid}01", i))
        for i, l in enumerate(labels)
    ]
    params = vector_to_params(np.zeros(manifest_for(F, H).dim), F, H)
    return ClientState(
        client_id=cid,
        dataset=PrivateDataset(cid, windows),
        local_params=params,
        adam=None,
        rng=np.random.default_rng(seed),
    )


class TestRunRound:
    def test_zero_gradient_fixed_point_under_delta_swa(self):
        # balanced labels in one full batch + all-zero params: every gradient
        # cancels, so the aggregated global must equal the incoming one
        # bit for bit.
        clients = [zeroed_client(c, [0, 1, 0, 1]) for c in "ABC"]
        global_vec = params_to_vector(clients[0].local_params)
        cfg = small_config(batch_size=4, mu=0.01)
        result = run_round(global_vec, clients, cfg, strategy="swa")
        np.testing.assert_array_equal(result.global_params, global_vec)

    def test_round_log_records_per_client_stats(self):
        clients = [make_client(c, seed=i, data_seed=i) for i, c in enumerate("ABC")]
        g = params_to_vector(clients[0].local_params)
        result = run_round(g, clients, small_config(), strategy="swa", round_index=4)
        assert len(result.entries) == 3
        for entry, cid in zip(result.entries, "ABC"):
            assert entry["round"] == 4
            assert entry["client"] == cid
            assert entry["epochs"] == 1
            assert entry["n_samples"] == 8
            assert entry["update_norm"] > 0
            assert np.isfinite(entry["loss"])
            assert entry["encrypted"] is False

    def test_empty_client_skipped_and_logged(self):
        clients = [make_client("A"), make_client("B", n_windows=0), make_client("C")]
        g = params_to_vector(clients[0].local_params)
        result = run_round(g, clients, small_config(), strategy="fedavg")
        skipped = [e for e in result.entries if e.get("skipped")]
        assert [e["client"] for e in skipped] == ["B"]
        assert len(result.entries) == 3

    def test_fedavg_of_one_trained_client_is_its_model(self):
        # B has no windows and is skipped; A's 12 windows are a weight of 1
        clients = [make_client("A", n_windows=12), make_client("B", n_windows=0)]
        g = params_to_vector(init_params(F, H, 5))
        result = run_round(g, clients, small_config(), strategy="fedavg")
        trained = params_to_vector(result.clients[0].local_params)
        assert result.global_params.tobytes() == trained.tobytes()

    def test_all_clients_empty_is_an_error(self):
        clients = [make_client("A", n_windows=0)]
        g = params_to_vector(clients[0].local_params)
        with pytest.raises(ConfigError):
            run_round(g, clients, small_config(), strategy="fedavg")

    def test_unknown_strategy_rejected(self):
        client = make_client()
        g = params_to_vector(client.local_params)
        with pytest.raises(ConfigError):
            run_round(g, [client], small_config(), strategy="median")

    def test_swa_infeasible_with_two_clients_aborts(self):
        clients = [make_client(c, data_seed=i) for i, c in enumerate("AB")]
        g = params_to_vector(clients[0].local_params)
        with pytest.raises(AggregationInfeasibleError):
            run_round(g, clients, small_config(), strategy="swa")

    def test_fedavg_and_swa_differ_only_in_aggregation(self):
        captured = {"fedavg": [], "swa": []}

        def interceptor(key):
            def _tap(update):
                captured[key].append(update.params.copy())
                return update

            return _tap

        g = params_to_vector(init_params(F, H, 0))
        out = {}
        for strategy in ("fedavg", "swa"):
            clients = [make_client(c, seed=i, data_seed=i) for i, c in enumerate("ABC")]
            result = run_round(
                g, clients, small_config(), strategy=strategy,
                update_transform=interceptor(strategy),
            )
            out[strategy] = result.global_params
        for a, b in zip(captured["fedavg"], captured["swa"]):
            np.testing.assert_array_equal(a, b)
        assert not np.array_equal(out["fedavg"], out["swa"])

    def test_update_transform_feeds_aggregation(self):
        def corrupt(update):
            if update.client_id == "B":
                return type(update)(
                    client_id=update.client_id,
                    params=update.params * 1000.0,
                    epochs_trained=update.epochs_trained,
                    sample_count=update.sample_count,
                )
            return update

        g = params_to_vector(init_params(F, H, 0))
        clean = run_round(
            g, [make_client(c, seed=i, data_seed=i) for i, c in enumerate("ABC")],
            small_config(), strategy="fedavg",
        )
        dirty = run_round(
            g, [make_client(c, seed=i, data_seed=i) for i, c in enumerate("ABC")],
            small_config(), strategy="fedavg", update_transform=corrupt,
        )
        assert not np.array_equal(clean.global_params, dirty.global_params)

    def test_encrypted_transport_changes_little_and_is_logged(self):
        g = params_to_vector(init_params(F, H, 0))
        plain = run_round(
            g, [make_client(c, seed=i, data_seed=i) for i, c in enumerate("ABC")],
            small_config(), strategy="swa",
        )
        transport = TransportConfig(
            key=keygen(256, seed=11),
            codec=FixedPointCodec(scale_bits=20, clip_range=100.0),
            rng=_random.Random(3),
        )
        secured = run_round(
            g, [make_client(c, seed=i, data_seed=i) for i, c in enumerate("ABC")],
            small_config(), strategy="swa", transport=transport,
        )
        assert np.max(np.abs(secured.global_params - plain.global_params)) <= 1e-5
        assert all(e["encrypted"] for e in secured.entries)

    @pytest.mark.parametrize("strategy", ["fedavg", "swa"])
    def test_encrypted_transport_equals_codec_quantisation(self, strategy):
        codec = FixedPointCodec(scale_bits=12, clip_range=0.3)

        def quantise(update):
            params = np.array([codec.decode(codec.encode(x)[0]) for x in update.params.tolist()])
            return replace(update, params=params)

        g = params_to_vector(init_params(F, H, 0))
        quantised = run_round(
            g, [make_client(c, seed=i, data_seed=i) for i, c in enumerate("ABC")],
            small_config(), strategy=strategy, update_transform=quantise,
        )
        transport = TransportConfig(key=keygen(256, seed=11), codec=codec, rng=_random.Random(3))
        secured = run_round(
            g, [make_client(c, seed=i, data_seed=i) for i, c in enumerate("ABC")],
            small_config(), strategy=strategy, transport=transport,
        )
        assert secured.global_params.tobytes() == quantised.global_params.tobytes()

    @pytest.mark.parametrize("strategy", ["fedavg", "swa"])
    def test_encrypted_nonfinite_update_names_the_client(self, strategy):
        def poison(update):
            if update.client_id == "A":
                params = update.params.copy()
                params[3] = np.inf
                return replace(update, params=params)
            return update

        transport = TransportConfig(
            key=keygen(256, seed=11),
            codec=FixedPointCodec(scale_bits=20, clip_range=100.0),
            rng=_random.Random(3),
        )
        g = params_to_vector(init_params(F, H, 0))
        with pytest.raises(ValueError, match="^update 'A': .*non-finite"):
            run_round(
                g, [make_client(c, seed=i, data_seed=i) for i, c in enumerate("ABC")],
                small_config(), strategy=strategy, update_transform=poison, transport=transport,
            )


class TestEnsembleAndClassify:
    def test_ensemble_is_exact_mean_of_model_outputs(self):
        a = init_params(F, H, 1)
        b = init_params(F, H, 2)
        batch = np.random.default_rng(0).normal(size=(4, T, F))
        pa, _ = model_forward(a, batch, mode="eval")
        pb, _ = model_forward(b, batch, mode="eval")
        np.testing.assert_array_equal(ensemble_predict(a, b, batch), (pa + pb) / 2.0)
        assert ((0.6 + 0.2) / 2.0) == 0.4  # the headline arithmetic

    def test_identical_models_give_model_output_exactly(self):
        a = init_params(F, H, 1)
        batch = np.random.default_rng(1).normal(size=(3, T, F))
        pa, _ = model_forward(a, batch, mode="eval")
        np.testing.assert_array_equal(ensemble_predict(a, a.copy(), batch), pa)

    def test_ensemble_within_min_max_bounds(self):
        a = init_params(F, H, 3)
        b = init_params(F, H, 4)
        batch = np.random.default_rng(2).normal(size=(8, T, F))
        pa, _ = model_forward(a, batch, mode="eval")
        pb, _ = model_forward(b, batch, mode="eval")
        ens = ensemble_predict(a, b, batch)
        assert np.all(ens >= np.minimum(pa, pb)) and np.all(ens <= np.maximum(pa, pb))

    @staticmethod
    def falls(probs, threshold):
        """The windows classified as falls: each probability is one client's
        lone positive window, so its recall is 1.0 for a fall, else 0.0."""
        probs = {f"{i:03d}": np.asarray([p]) for i, p in enumerate(probs)}
        labels = {cid: np.ones(1) for cid in probs}
        per = report_from_probabilities(probs, labels, threshold).per_client
        return [int(per[cid]) for cid in sorted(probs)]

    def test_classification_is_strict_inequality(self):
        assert self.falls([0.31], 0.3) == [1]
        assert self.falls([0.3], 0.3) == [0]
        assert self.falls([0.29, 0.3, 0.31], 0.3) == [0, 0, 1]

    def test_threshold_grid_supported(self):
        for threshold in (0.3, 0.35, 0.4, 0.45, 0.5):
            assert self.falls([0.51], threshold) == [1]

    def test_threshold_validation(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError, match="threshold must be in"):
                self.falls([0.5], bad)


class TestAlertAndFeedback:
    def test_below_threshold_changes_nothing(self):
        client = make_client()
        rng = np.random.default_rng(0)
        window = make_windows(1, seed=9)[0]
        event = alert_and_feedback(client, window, 0.39, rng, small_config(), 2)
        assert event is None
        assert len(client.dataset) == 8

    def test_alert_appends_truth_labeled_window(self):
        client = make_client()
        rng = np.random.default_rng(0)
        window = make_windows(1, seed=9, labels=[1])[0]
        event = alert_and_feedback(client, window, 0.41, rng, small_config(), 2)
        assert isinstance(event, FeedbackEvent)
        assert event.response == 1
        assert event.alert_probability == 0.41
        assert event.round_index == 2
        assert len(client.dataset) == 9
        with client_scope("A"):
            added = client.dataset.windows()[-1]
        assert added.label == 1
        assert added.origin == ("A", "feedback", 2)
        np.testing.assert_array_equal(added.values, window.values)

    def test_full_noise_always_flips(self):
        client = make_client()
        rng = np.random.default_rng(0)
        cfg = small_config(feedback_noise_p=1.0)
        for label in (0, 1):
            window = make_windows(1, labels=[label])[0]
            event = alert_and_feedback(client, window, 0.9, rng, cfg, 0)
            assert event.response == 1 - label
            with client_scope("A"):
                assert client.dataset.windows()[-1].label == 1 - label

    def test_dataset_grows_by_alert_count(self):
        client = make_client()
        rng = np.random.default_rng(0)
        windows = make_windows(6, seed=4)
        probs = [0.39, 0.41, 0.9, 0.4, 0.45, 0.1]  # 0.4 is not > theta
        fired = 0
        for w, p in zip(windows, probs):
            if alert_and_feedback(client, w, p, rng, small_config(), 0) is not None:
                fired += 1
        assert fired == 3
        assert len(client.dataset) == 8 + 3

    def test_draws_one_uniform_per_alert_under_noise(self):
        client = make_client()
        window = make_windows(1, labels=[0])[0]
        rng = np.random.default_rng(3)
        ref = np.random.default_rng(3)
        noisy = small_config(feedback_noise_p=0.5)
        alert_and_feedback(client, window, 0.9, rng, small_config(), 0)  # no noise: no draw
        alert_and_feedback(client, window, 0.1, rng, noisy, 0)  # no alert: no draw
        event = alert_and_feedback(client, window, 0.9, rng, noisy, 0)
        assert event.response == int(ref.uniform() < 0.5)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_append_happens_in_owner_scope(self):
        client = make_client()
        rng = np.random.default_rng(0)
        alert_and_feedback(client, make_windows(1)[0], 0.9, rng, small_config(), 0)
        assert set(client.dataset.access_log) == {"A"}


class TestEarlyStop:
    def test_strictly_improving_never_stops(self):
        history = []
        for score in np.linspace(0.1, 0.9, 30):
            history.append(float(score))
            assert early_stop_check(history, 5) is False

    def test_flat_history_of_patience_plus_one_stops(self):
        assert early_stop_check([0.5] * 11, 10) is True
        assert early_stop_check([0.5] * 10, 10) is False

    def test_stops_when_best_is_patience_old(self):
        history = [0.9] + [0.1] * 3
        assert early_stop_check(history, 3) is True
        assert early_stop_check(history[:-1], 3) is False

    def test_late_best_resets_the_clock(self):
        history = [0.5, 0.4, 0.4, 0.8, 0.4, 0.4]
        assert early_stop_check(history, 3) is False

    def test_empty_history_continues(self):
        assert early_stop_check([], 3) is False

    def test_patience_validated(self):
        with pytest.raises(ValueError):
            early_stop_check([0.5], 0)


class TestRoundConfig:
    """The round protocol the federation reads off ``ExperimentConfig``."""

    def test_reference_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.global_epochs == 60
        assert cfg.client_epochs == 30
        assert cfg.batch_size == 32
        assert cfg.lr == 0.001
        assert cfg.mu == 0.01
        assert cfg.classification_threshold == 0.3
        assert cfg.alert_threshold == 0.4
        assert cfg.early_stop_patience == 10

    @pytest.mark.parametrize(
        "kw",
        [
            {"classification_threshold": 0.0},
            {"classification_threshold": 1.0},
            {"alert_threshold": 1.2},
            {"global_epochs": 0},
            {"client_epochs": 0},
            {"batch_size": 0},
            {"early_stop_patience": 0},
            {"lr": 0.0},
            {"mu": -0.1},
            {"batch_size": 1},
            {"lr": float("nan")},
            {"mu": float("nan")},
        ],
    )
    def test_invalid_values_rejected(self, kw):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kw)
