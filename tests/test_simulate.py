"""Scenario orchestration: determinism, inference modes, feedback growth."""

import dataclasses
import json

import numpy as np
import pytest

from fedfall import simulate
from fedfall.config import ExperimentConfig
from fedfall.data.cache import load_dataset, save_dataset
from fedfall.data.synthetic import make_synthetic_dataset
from fedfall.data.windows import SequenceWindow
from fedfall.errors import ConfigError
from fedfall.nn import model_forward, params_to_vector
from fedfall.simulate import (
    SCENARIOS,
    SimulationResult,
    run_simulation,
    simulate_full,
    stratified_validation_split,
)

from separable import make_separable_dataset


def fast_config(**kw):
    defaults = dict(
        hidden_size=4,
        global_epochs=4,
        client_epochs=1,
        batch_size=16,
        lr=0.01,
        smote_target=0.0,
        early_stop_patience=10,
        monitor_windows_per_round=4,
        seed=0,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def assert_scored_by_global_model(result, dataset):
    """Test probabilities are exactly one eval pass of the float64 global
    model cast to float32, over the float32 test windows, widened back to
    float64."""
    model = result.global_params.astype(np.float32)
    for cid, windows in dataset.test_by_client.items():
        batch = np.stack([w.values for w in windows]).astype(np.float32)
        probs, _ = model_forward(model, batch, mode="eval")
        np.testing.assert_array_equal(result.test_probabilities[cid], probs.astype(np.float64))


@pytest.fixture(scope="module")
def dataset():
    return make_separable_dataset(
        seed=0, n_clients=3, train_per_client=24, test_per_client=12, window=6, features=3
    )


class TestScenarioContract:
    def test_known_scenarios(self):
        assert SCENARIOS == ("central", "fl_fedavg", "pfl_swa", "epfl_swa")

    def test_unknown_scenario_rejected(self, dataset):
        with pytest.raises(ConfigError):
            simulate_full(dataset, fast_config(), "federated")

    @pytest.mark.parametrize("scenario", ["central", "fl_fedavg", "pfl_swa", "epfl_swa"])
    def test_each_scenario_produces_full_result(self, dataset, scenario):
        result = simulate_full(dataset, fast_config(), scenario)
        assert isinstance(result, SimulationResult)
        assert result.metrics.scenario == scenario
        assert 1 <= result.rounds_run <= 4
        assert 0 <= result.best_round < result.rounds_run
        assert len(result.loss_curve) == result.rounds_run
        for row in result.loss_curve:
            assert set(row) == {"round", "train_loss", "val_recall", "val_f1"}
            assert np.isfinite(row["train_loss"])
        assert sorted(result.test_probabilities) == ["A", "B", "C"]
        for cid, probs in result.test_probabilities.items():
            assert probs.shape == (12,)
            assert np.all((probs >= 0.0) & (probs <= 1.0))
            assert result.test_labels[cid].shape == (12,)

    @pytest.mark.parametrize("scenario", ["central", "fl_fedavg", "pfl_swa", "epfl_swa"])
    def test_determinism(self, dataset, scenario):
        a = simulate_full(dataset, fast_config(), scenario)
        b = simulate_full(dataset, fast_config(), scenario)
        assert a.metrics.to_dict() == b.metrics.to_dict()
        assert a.rounds_run == b.rounds_run
        np.testing.assert_array_equal(
            params_to_vector(a.global_params), params_to_vector(b.global_params)
        )
        for cid in a.test_probabilities:
            np.testing.assert_array_equal(
                a.test_probabilities[cid], b.test_probabilities[cid]
            )

    @pytest.mark.parametrize("scenario", ["fl_fedavg", "epfl_swa"])
    def test_results_are_float64(self, dataset, scenario):
        # passes run in float32; what leaves simulate_full is float64
        result = simulate_full(dataset, fast_config(global_epochs=2), scenario)
        assert result.global_params.vec.dtype == np.float64
        for model in result.client_params.values():
            assert model.vec.dtype == np.float64
        for probs in result.test_probabilities.values():
            assert probs.dtype == np.float64

    def test_seed_changes_results(self, dataset):
        a = simulate_full(dataset, fast_config(seed=0), "fl_fedavg")
        b = simulate_full(dataset, fast_config(seed=1), "fl_fedavg")
        assert not np.array_equal(
            params_to_vector(a.global_params), params_to_vector(b.global_params)
        )

    def test_per_client_recall_covers_every_client(self, dataset):
        result = simulate_full(dataset, fast_config(), "pfl_swa")
        assert sorted(result.metrics.per_client) == ["A", "B", "C"]
        for value in result.metrics.per_client.values():
            assert value is None or 0.0 <= value <= 1.0

    def test_report_carries_provenance_fields(self, dataset):
        cfg = fast_config()
        report = run_simulation(dataset, cfg, "fl_fedavg")
        assert report.config_fingerprint == cfg.fingerprint()
        assert report.seed == cfg.seed
        assert report.scenario == "fl_fedavg"


class TestInferenceMode:
    def test_ensemble_only_for_epfl(self, dataset):
        modes = {}
        for scenario in ("fl_fedavg", "pfl_swa", "epfl_swa"):
            result = simulate_full(dataset, fast_config(), scenario)
            rows = [e for e in result.round_log if e.get("event") == "validation"]
            kinds = {e["inference"] for e in rows}
            assert len(kinds) == 1
            modes[scenario] = kinds.pop()
        assert modes == {
            "fl_fedavg": "global",
            "pfl_swa": "global",
            "epfl_swa": "ensemble",
        }

    def test_epfl_test_probs_are_client_specific(self, dataset):
        result = simulate_full(dataset, fast_config(global_epochs=3), "epfl_swa")
        # ensemble halves differ per client, so identical outputs would mean
        # the personal model is being ignored
        client_params = result.client_params
        assert sorted(client_params) == ["A", "B", "C"]
        assert not np.array_equal(
            params_to_vector(client_params["A"]), params_to_vector(client_params["B"])
        )

    def test_fedavg_inference_is_shared_model(self, dataset):
        result = simulate_full(dataset, fast_config(global_epochs=2), "fl_fedavg")
        # restart scenario trains from the global each round; the published
        # probabilities come from the single global model
        assert_scored_by_global_model(result, dataset)


class TestBestRoundSnapshots:
    @pytest.mark.parametrize("scenario", ["central", "pfl_swa", "epfl_swa"])
    def test_snapshots_do_not_move_when_later_rounds_train(self, dataset, scenario, monkeypatch):
        import fedfall.simulate as sim

        seen = []  # per inference call: global vector and client vectors, copied
        real = sim._probabilities

        def recording(windows_by_client, global_model, client_models):
            locals_ = {c: params_to_vector(m) for c, m in (client_models or {}).items()}
            seen.append((params_to_vector(global_model), locals_))
            return real(windows_by_client, global_model, client_models)

        monkeypatch.setattr(sim, "_probabilities", recording)
        result = simulate_full(
            dataset, fast_config(global_epochs=6, early_stop_patience=2, lr=0.05), scenario
        )
        assert result.best_round < result.rounds_run - 1, "later rounds must train"
        # one validation call per round, then the test scoring call
        assert len(seen) == result.rounds_run + 1
        best_global, best_locals = seen[result.best_round]
        test_global, test_locals = seen[-1]
        np.testing.assert_array_equal(test_global, best_global)
        np.testing.assert_array_equal(params_to_vector(result.global_params), best_global)
        assert not np.array_equal(seen[-2][0], best_global)
        assert test_locals.keys() == best_locals.keys()
        for cid, vec in best_locals.items():
            np.testing.assert_array_equal(test_locals[cid], vec)
            np.testing.assert_array_equal(params_to_vector(result.client_params[cid]), vec)

    def test_best_round_is_first_maximum_of_validation_scores(self):
        cfg = ExperimentConfig(
            hidden_size=4, global_epochs=8, early_stop_patience=2, lr=0.05, stride=8, seed=7
        )
        split = make_synthetic_dataset(seed=cfg.seed, window=cfg.window, stride=cfg.stride)
        result = simulate_full(split, cfg, "central")
        scores = [e["score"] for e in result.round_log if e.get("event") == "validation"]
        stops = [e for e in result.round_log if e.get("event") == "early_stop"]
        assert len(stops) == 1 and result.rounds_run == len(scores) < cfg.global_epochs
        assert result.best_round == scores.index(max(scores))
        assert stops[0]["best_round"] == result.best_round

    def test_tied_best_score_keeps_earliest_round(self, dataset, monkeypatch):
        import fedfall.simulate as sim

        scripted = iter([0.2, 0.6, 0.6, 0.5])  # rounds 1 and 2 tie at the best
        real_report = sim.report_from_probabilities
        seen = []
        real_probabilities = sim._probabilities

        def scripted_report(probs, labels, threshold, *rest):
            report = real_report(probs, labels, threshold, *rest)
            if rest:  # the test scoring call
                return report
            return dataclasses.replace(report, recall=next(scripted), f1=0.0)

        def recording(windows_by_client, global_model, client_models):
            seen.append(params_to_vector(global_model))
            return real_probabilities(windows_by_client, global_model, client_models)

        monkeypatch.setattr(sim, "report_from_probabilities", scripted_report)
        monkeypatch.setattr(sim, "_probabilities", recording)
        result = simulate_full(
            dataset, fast_config(global_epochs=6, early_stop_patience=2, lr=0.05), "central"
        )
        assert result.rounds_run == 4
        assert result.best_round == 1
        assert [e for e in result.round_log if e.get("event") == "early_stop"] == [
            {"round": 3, "event": "early_stop", "best_round": 1}
        ]
        assert not np.array_equal(seen[2], seen[1]), "the tied round must train"
        np.testing.assert_array_equal(params_to_vector(result.global_params), seen[1])


class TestFeedbackLoop:
    def test_disabled_by_default_outside_epfl(self, dataset):
        result = simulate_full(
            dataset, fast_config(feedback_enabled=True), "pfl_swa"
        )
        assert result.feedback_events == []

    def test_noise_free_feedback_grows_datasets_by_alert_count(self, dataset):
        cfg = fast_config(
            feedback_enabled=True, feedback_noise_p=0.0, global_epochs=3,
            monitor_windows_per_round=6,
        )
        result = simulate_full(dataset, cfg, "epfl_swa")
        rows = [e for e in result.round_log if e.get("event") == "feedback"]
        assert rows, "feedback phase should be logged each round"
        assert len(result.feedback_events) == sum(e["alerts"] for e in rows)
        sizes = {}
        for e in rows:
            cid = e["client"]
            if cid in sizes:
                assert e["dataset_size"] >= sizes[cid]
            # 24 train windows per client minus 2 held out for validation
            assert e["dataset_size"] == 22 + sum(
                r["alerts"] for r in rows if r["client"] == cid and r["round"] <= e["round"]
            )
            sizes[cid] = e["dataset_size"]

    def test_feedback_off_keeps_dataset_size_constant(self, dataset):
        cfg = fast_config(feedback_enabled=False, global_epochs=2)
        result = simulate_full(dataset, cfg, "epfl_swa")
        assert result.feedback_events == []
        assert all(e.get("event") != "feedback" for e in result.round_log)

    def test_feedback_events_carry_round_and_probability(self, dataset):
        cfg = fast_config(
            feedback_enabled=True, global_epochs=3, monitor_windows_per_round=8
        )
        result = simulate_full(dataset, cfg, "epfl_swa")
        for event in result.feedback_events:
            assert 0 <= event.round_index < result.rounds_run
            assert event.alert_probability > cfg.alert_threshold
            assert event.response in (0, 1)

    def test_monitor_windows_copy_only_real_training_windows(self, monkeypatch):
        import fedfall.simulate as sim

        # falls are the minority here, so oversampling adds synthetic windows
        dataset = make_synthetic_dataset(
            seed=3, sequences_per_client=3, sequence_length=120, window=20, stride=4
        )

        held_out, bases = [], []
        real_split, real_monitor = sim.stratified_validation_split, sim._make_monitor_window

        def recording_split(windows, fraction, rng):
            train, val = real_split(windows, fraction, rng)
            held_out.extend(val)
            return train, val

        def recording_monitor(base, *rest):
            bases.append(base)
            return real_monitor(base, *rest)

        monkeypatch.setattr(sim, "stratified_validation_split", recording_split)
        monkeypatch.setattr(sim, "_make_monitor_window", recording_monitor)
        cfg = fast_config(
            feedback_enabled=True, smote_target=0.4, global_epochs=2, monitor_windows_per_round=40
        )
        simulate_full(dataset, cfg, "epfl_swa")
        assert held_out and len(bases) == len(dataset.clients) * 2 * 40
        # neither a validation window nor a synthetic (SMOTE) one
        validation = {id(w) for w in held_out}
        assert not [w for w in bases if id(w) in validation]
        real = {id(w) for windows in dataset.train_by_client.values() for w in windows}
        assert all(id(w) in real for w in bases)


class TestValidationSplit:
    def windows(self, n_pos, n_neg):
        rng = np.random.default_rng(0)
        out = []
        for i in range(n_pos + n_neg):
            label = 1 if i < n_pos else 0
            out.append(
                SequenceWindow(
                    values=rng.normal(size=(4, 2)), label=label, origin=("A", "A01", i)
                )
            )
        return out

    def test_fraction_taken_per_label(self):
        train, val = stratified_validation_split(
            self.windows(20, 40), 0.15, np.random.default_rng(0)
        )
        assert sum(w.label for w in val) == 3  # floor(0.15 * 20)
        assert sum(1 - w.label for w in val) == 6  # floor(0.15 * 40)
        assert len(train) + len(val) == 60

    def test_partition_is_exact(self):
        windows = self.windows(10, 10)
        train, val = stratified_validation_split(windows, 0.2, np.random.default_rng(1))
        seen = sorted(id(w) for w in train + val)
        assert seen == sorted(id(w) for w in windows)

    def test_tiny_minority_keeps_training_data(self):
        train, val = stratified_validation_split(
            self.windows(2, 40), 0.15, np.random.default_rng(0)
        )
        # floor(0.15 * 2) = 0: both positives stay in training
        assert sum(w.label for w in train) == 2
        assert sum(w.label for w in val) == 0

    def test_deterministic_under_seed(self):
        windows = self.windows(12, 30)
        a = stratified_validation_split(windows, 0.15, np.random.default_rng(7))
        b = stratified_validation_split(windows, 0.15, np.random.default_rng(7))
        assert [id(w) for w in a[0]] == [id(w) for w in b[0]]
        assert [id(w) for w in a[1]] == [id(w) for w in b[1]]


class TestCentralPath:
    def test_central_ignores_federation_knobs(self, dataset):
        # mu, local epochs and aggregation settings must not matter when
        # pooling: central trains one plain epoch per round
        a = simulate_full(dataset, fast_config(mu=0.01, client_epochs=1), "central")
        for knobs in ({"mu": 0.9}, {"client_epochs": 3}):
            b = simulate_full(dataset, fast_config(**knobs), "central")
            np.testing.assert_array_equal(
                params_to_vector(a.global_params), params_to_vector(b.global_params)
            )
            # the report names the config the caller passed
            assert b.metrics.config_fingerprint == fast_config(**knobs).fingerprint()

    def test_central_trains_one_model_for_all_clients(self, dataset):
        result = simulate_full(dataset, fast_config(), "central")
        assert_scored_by_global_model(result, dataset)

    def test_round_log_marks_central_trainer(self, dataset):
        def train_rows(scenario):
            result = simulate_full(dataset, fast_config(global_epochs=2), scenario)
            return [e for e in result.round_log if "client" in e and "event" not in e]

        central = train_rows("central")
        assert central
        assert {e["client"] for e in central} == {"central"}
        # one training step, so one row schema, update_norm included
        federated = train_rows("fl_fedavg")
        assert {frozenset(e) for e in central} == {frozenset(e) for e in federated}
        assert all(e["encrypted"] is False and e["update_norm"] > 0 for e in central)


class TestClientWithoutTrainWindows:
    """An individual whose training windows are all gone still has its test
    windows scored, whether the split is in memory or read from the cache."""

    def test_cached_split_runs_like_the_in_memory_one(self, tmp_path):
        split = make_synthetic_dataset(
            seed=3, sequences_per_client=3, sequence_length=120, window=20, stride=4
        )
        split.train = [w for w in split.train if w.individual != "B"]
        split.train_by_client["B"] = []
        save_dataset(tmp_path / "data.bin", split)
        loaded = load_dataset(tmp_path / "data.bin")
        assert loaded.clients == split.clients == ["A", "B", "C", "D", "E"]
        config = fast_config(global_epochs=2)
        a = simulate_full(split, config, "epfl_swa")
        b = simulate_full(loaded, config, "epfl_swa")
        assert json.dumps(a.round_log) == json.dumps(b.round_log)
        assert a.metrics.to_dict() == b.metrics.to_dict()
        assert "B" in b.test_probabilities

    def test_no_training_windows_at_all_is_a_config_error(self):
        split = make_synthetic_dataset(
            seed=3, sequences_per_client=3, sequence_length=120, window=20, stride=4
        )
        split.train = []
        split.train_by_client = {cid: [] for cid in split.train_by_client}
        with pytest.raises(ConfigError, match="dataset has no training windows"):
            simulate_full(split, fast_config(global_epochs=1), "central")

    def test_no_test_windows_is_a_config_error_before_training(self, monkeypatch):
        split = make_synthetic_dataset(
            seed=3, sequences_per_client=3, sequence_length=120, window=20, stride=4
        )
        split.test = []
        split.test_by_client = {cid: [] for cid in split.test_by_client}

        def no_round(*args, **kwargs):
            raise AssertionError("trained a dataset it cannot score")

        monkeypatch.setattr(simulate, "run_round", no_round)
        with pytest.raises(ConfigError, match="dataset has no test windows"):
            simulate_full(split, fast_config(global_epochs=3), "pfl_swa")
