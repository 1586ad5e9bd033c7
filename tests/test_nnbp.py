"""Supervised training: targets, error accounting, learnability, frozen runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import input_window, squared_error_gradient
from seqbet.errors import UsageError
from seqbet.game import MovementSeries, betting_windows, clamp_ratio
from seqbet.network import NetworkConfig, NetworkWeights, forward
from seqbet.data import NoiseSpec, gen_ar1, normalize
from seqbet.nnbp import (
    NnbpConfig,
    run_nnbp,
    sign_target,
    train,
    train_replicates,
    training_error,
)

# Frozen oracle value: 0.5 * (1 - tanh(tanh(10)))**2
HALF_SQ_ERR_TANH10 = 0.028418673649965337


def toy_config(**kwargs):
    defaults = dict(net=NetworkConfig(1, 2), learning_rate=0.1, seed=13)
    defaults.update(kwargs)
    return NnbpConfig(**defaults)


def alternating_series(n=42, magnitude=0.9):
    return MovementSeries(magnitude * np.resize([1.0, -1.0], n))


class TestSignTarget:
    def test_positive(self):
        assert sign_target(0.3) == 1

    def test_zero(self):
        assert sign_target(0.0) == 0

    def test_negative(self):
        assert sign_target(-0.001) == -1


class TestTrainingError:
    def test_perfect_fit_is_zero(self):
        weights = NetworkWeights.zeros(NetworkConfig(1, 1))
        assert training_error(weights, [[0.5], [-0.5]], [0, 0]) == 0.0

    def test_two_sample_substitution(self):
        weights = NetworkWeights.zeros(NetworkConfig(1, 2))
        assert training_error(weights, [[0.1], [0.2]], [1, -1]) == 0.5

    def test_single_sample_composition(self):
        weights = NetworkWeights([[10.0]], [1.0])
        err = training_error(weights, [[1.0]], [1])
        assert err == pytest.approx(HALF_SQ_ERR_TANH10, abs=1e-12)

    @pytest.mark.parametrize("target", [0.5, 2.0, -0.25, float("nan")])
    def test_targets_must_be_signs(self, target):
        # Targets are what `sign_target` returns; a movement-like 0.5 or an
        # out-of-range 2.0 is a usage error that names the target.
        weights = NetworkWeights.zeros(NetworkConfig(1, 2))
        with pytest.raises(UsageError, match=f"training target must be -1, 0 or 1, got {target!r}"):
            training_error(weights, [[0.1], [0.2]], [1, target])

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            training_error(NetworkWeights.zeros(NetworkConfig(1, 1)), np.empty((0, 1)), [])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_invariant_under_reordering(self, seed):
        rng = np.random.default_rng(seed)
        weights = NetworkWeights.uniform(NetworkConfig(2, 2), 0.4, rng)
        windows, targets = np.empty((9, 2)), np.empty(9)
        for k in range(9):
            windows[k] = rng.uniform(-1, 1, 2)
            targets[k] = rng.integers(-1, 2)
        order = rng.permutation(9)
        assert training_error(weights, windows, targets) == pytest.approx(
            training_error(weights, windows[order], targets[order]), abs=1e-14
        )


class TestTrain:
    def test_all_zero_targets_with_zero_init_converges_immediately(self):
        config = toy_config(net=NetworkConfig(1, 2))
        weights, diag = train(
            MovementSeries(np.zeros(10)), config, init=NetworkWeights.zeros(config.net)
        )
        assert diag.converged
        assert diag.final_error == 0.0
        assert diag.steps_used == 9  # one full cycle over m = 10 - 1 pairs
        assert not weights.hidden_weights.any()

    def test_separable_toy_set_learns(self):
        config = toy_config()
        series = alternating_series()
        weights, diag = train(series, config)
        assert diag.converged
        assert diag.final_error < 1e-2
        assert diag.steps_used <= config.max_steps
        # Independent check of the fitted sign mapping on every input: the
        # movement after +0.9 is -0.9 and vice versa.
        up = forward([0.9], weights)
        down = forward([-0.9], weights)
        assert up < -0.8 and down > 0.8

    def test_determinism(self):
        config = toy_config(seed=21)
        series = alternating_series()
        w1, d1 = train(series, config)
        w2, d2 = train(series, config)
        np.testing.assert_array_equal(w1.hidden_weights, w2.hidden_weights)
        np.testing.assert_array_equal(w1.output_weights, w2.output_weights)
        assert d1.error_per_epoch == d2.error_per_epoch
        assert d1.steps_used == d2.steps_used

    def test_update_is_negative_error_gradient(self):
        # One pair, one cycle: the applied update must equal exactly
        # -rate * squared_error_gradient at the init.
        config = toy_config(net=NetworkConfig(1, 2), max_steps=1, learning_rate=0.25)
        series = MovementSeries(np.array([0.5, -0.75]))  # one pair: window (0.5) -> -1
        rng = np.random.default_rng(5)
        init = NetworkWeights.uniform(config.net, 0.1, rng)
        weights, diag = train(series, config, init=init)
        grad_hidden, grad_out, _ = squared_error_gradient(init, [0.5], -1)
        np.testing.assert_array_equal(weights.hidden_weights, init.hidden_weights - 0.25 * grad_hidden)
        np.testing.assert_array_equal(weights.output_weights, init.output_weights - 0.25 * grad_out)
        assert diag.steps_used == 1

    def test_diagnostics_shape_and_flags(self):
        config = toy_config(max_steps=40)  # cap reached before convergence
        series = alternating_series(20, magnitude=0.2)
        weights, diag = train(series, config)
        assert diag.final_error == diag.error_per_epoch[-1]
        assert (diag.per_day_error >= 0).all()
        assert len(diag.per_day_error) == 19
        assert diag.steps_used <= 40 + 18  # whole cycles only
        assert all(np.isfinite(e) for e in diag.error_per_epoch)

    def test_too_short_series_rejected(self):
        with pytest.raises(UsageError):
            train(MovementSeries(np.array([0.5])), toy_config())

    def test_nonpositive_init_scale_rejected(self):
        with pytest.raises(UsageError, match="init_scale"):
            toy_config(init_scale=-1.0)
        with pytest.raises(UsageError, match="init_scale"):
            toy_config(init_scale=0.0)


class TestRunNnbp:
    def test_zero_weights_zero_path(self, rng):
        weights = NetworkWeights.zeros(NetworkConfig(2, 2))
        ms = MovementSeries(rng.uniform(-1, 1, 30))
        res = run_nnbp(weights, ms, warmup=5)
        assert not res.log_capital_path.any()

    def test_trained_toy_strictly_gains(self):
        config = toy_config()
        series = alternating_series()
        weights, diag = train(series, config)
        assert diag.converged
        res = run_nnbp(weights, series, warmup=2)
        post = res.log_capital_path[2:]
        assert np.all(np.diff(np.concatenate([[0.0], post])) > 0)
        assert np.abs(res.ratios).max() < 1.0

    def test_training_isolated_from_investing_data(self):
        # Training never touches investing data: retraining while the
        # investing series changes gives bit-identical weights. Investing
        # never touches training data beyond the frozen weights: bets over a
        # shared prefix are identical when only the suffix is perturbed.
        config = toy_config(seed=3)
        training = alternating_series()
        invest_a = MovementSeries(np.resize([0.4, -0.3, 0.2], 30))
        perturbed = invest_a.values.copy()
        perturbed[20:] = -perturbed[20:]
        w_a, _ = train(training, config)
        w_b, _ = train(training, config)
        np.testing.assert_array_equal(w_a.hidden_weights, w_b.hidden_weights)
        np.testing.assert_array_equal(w_a.output_weights, w_b.output_weights)
        res_a = run_nnbp(w_a, invest_a, warmup=3)
        res_b = run_nnbp(w_a, MovementSeries(perturbed), warmup=3)
        np.testing.assert_array_equal(res_a.ratios[:20], res_b.ratios[:20])

    def test_window_needs_warmup(self):
        weights = NetworkWeights.zeros(NetworkConfig(4, 2))
        with pytest.raises(UsageError, match="warmup"):
            run_nnbp(weights, MovementSeries(np.zeros(30)), warmup=2)

    def test_frozen_weights_not_mutated(self):
        config = toy_config()
        weights, _ = train(alternating_series(), config)
        before = weights.hidden_weights.copy()
        run_nnbp(weights, alternating_series(30), warmup=2)
        np.testing.assert_array_equal(weights.hidden_weights, before)

    @pytest.mark.parametrize("rounds", [1, 2000])
    @pytest.mark.parametrize("scale", [0.1, 5.0])  # 5.0 saturates both layers
    @pytest.mark.parametrize("shape", [(1, 1), (3, 4), (12, 30), (15, 40)], ids="{0[0]}x{0[1]}".format)
    def test_bets_are_per_round_forward_passes(self, shape, scale, rounds):
        # The stacked pass bets, bit for bit, the clamped `forward` output on
        # each round's own newest-first window.
        length, hidden = shape
        rng = np.random.default_rng([length, hidden, rounds])
        weights = NetworkWeights.uniform(NetworkConfig(length, hidden), scale, rng)
        warmup = length + 2
        xs = rng.uniform(-1, 1, warmup + rounds)
        res = run_nnbp(weights, MovementSeries(xs), warmup=warmup)
        expected = [0.0] * warmup + [
            clamp_ratio(forward(input_window(xs, n, length), weights))
            for n in range(warmup + 1, warmup + rounds + 1)
        ]
        assert res.betting_rounds == rounds
        assert res.ratios.tobytes() == np.array(expected).tobytes()


class TestTrainReplicates:
    """A stack of replicates must train every network exactly as `train`
    trains it alone, with each replicate's own threshold stop."""

    def assert_same_fit(self, fit, alone):
        (weights, diag), (alone_weights, alone_diag) = fit, alone
        np.testing.assert_array_equal(weights.hidden_weights, alone_weights.hidden_weights)
        np.testing.assert_array_equal(weights.output_weights, alone_weights.output_weights)
        assert diag.error_per_epoch == alone_diag.error_per_epoch
        assert diag.final_error == alone_diag.final_error
        np.testing.assert_array_equal(diag.per_day_error, alone_diag.per_day_error)
        assert diag.steps_used == alone_diag.steps_used
        assert diag.converged == alone_diag.converged

    def test_replicates_stop_at_their_own_epochs(self):
        alternating = np.resize([-0.5, 0.5], 30)
        damped = alternating * np.random.default_rng(1).uniform(0.2, 1.0, 30)
        noisy = normalize(gen_ar1(30, NoiseSpec(seed=3))).values
        series = [MovementSeries(x) for x in (noisy, alternating, damped)]
        configs = [
            toy_config(learning_rate=0.3, error_threshold=0.02, max_steps=2000, seed=s)
            for s in (1, 2, 3)
        ]
        fits = train_replicates(series, configs)
        for movements, config, fit in zip(series, configs, fits):
            self.assert_same_fit(fit, train(movements, config))
        epochs = [len(diag.error_per_epoch) for _, diag in fits]
        # The alternating series reaches the threshold epochs before the
        # damped one; the noisy one never does and stops at the step cap.
        assert epochs[1] < epochs[2] < epochs[0]
        assert [diag.converged for _, diag in fits] == [False, True, True]
        assert fits[0][1].steps_used == (2000 // 29) * 29

    def test_final_error_is_training_error_of_the_fit(self):
        # The trainer's last epoch error is `training_error` of the weights it
        # returns, bit for bit, alone and in a stack whose replicates stop at
        # different epochs.
        alternating = np.resize([-0.5, 0.5], 30)
        noisy = normalize(gen_ar1(30, NoiseSpec(seed=3))).values
        damped = alternating * np.random.default_rng(1).uniform(0.2, 1.0, 30)
        series = [MovementSeries(x) for x in (noisy, alternating, damped)]
        configs = [
            toy_config(net=NetworkConfig(2, 3), learning_rate=0.3, error_threshold=0.02,
                       max_steps=2000, seed=s)
            for s in (1, 2, 3)
        ]
        fits = [train(series[0], configs[0]), *train_replicates(series, configs)]
        for movements, (weights, diag) in zip([series[0], *series], fits):
            xs = movements.values
            windows = betting_windows(xs, 2, 2)
            targets = [sign_target(x) for x in xs[2:]]
            assert diag.final_error == training_error(weights, windows, targets)

    def test_paper_sized_network_and_given_inits(self):
        series = [normalize(gen_ar1(300, NoiseSpec(seed=s))) for s in (4, 5, 6)]
        configs = [NnbpConfig(NetworkConfig(12, 30), max_steps=600, seed=s) for s in (7, 8, 9)]
        inits = [
            NetworkWeights.uniform(NetworkConfig(12, 30), 0.2, np.random.default_rng(s))
            for s in (1, 2, 3)
        ]
        fits = train_replicates(series, configs, inits)
        for movements, config, init, fit in zip(series, configs, inits, fits):
            self.assert_same_fit(fit, train(movements, config, init))
        assert fits[0][0].hidden_weights is not inits[0].hidden_weights

    def test_replicates_must_share_settings_and_length(self):
        series = alternating_series(30)
        with pytest.raises(UsageError, match="every setting but the seed"):
            train_replicates([series, series], [toy_config(), toy_config(learning_rate=0.2)])
        with pytest.raises(UsageError, match="one length"):
            train_replicates([series, alternating_series(31)], [toy_config(seed=1), toy_config()])

    def test_one_config_and_init_per_series(self):
        series = alternating_series(30)
        for training, configs in (
            ([series, series], [toy_config(seed=1)]),
            ([series], [toy_config(seed=1), toy_config(seed=2)]),
        ):
            with pytest.raises(UsageError, match="replicate series got"):
                train_replicates(training, configs)
        init = NetworkWeights.uniform(toy_config().net, 0.1, np.random.default_rng(1))
        with pytest.raises(UsageError, match="2 nnbp replicates got 1 init weights"):
            train_replicates([series, series], [toy_config(seed=1), toy_config(seed=2)], [init])
