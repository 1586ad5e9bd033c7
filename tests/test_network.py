"""Network forward pass, both analytic gradients, and the annealing schedule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_gradient, random_instance, relative_error
from seqbet.errors import UsageError
from seqbet.network import (
    AnnealingSchedule,
    NetworkConfig,
    NetworkWeights,
    forward,
    input_window,
    log_wealth,
    log_wealth_gradient,
    squared_error_gradient,
    window_matrix,
)

# Frozen oracle values (direct double-precision evaluation).
TANH_TANH_10 = 0.7615941542245017
LOG1P_TANH_TANH_10 = 0.5662191685341907


class TestForward:
    def test_zero_weights_zero_output(self, rng):
        w = NetworkWeights.zeros(NetworkConfig(3, 4))
        trace = forward(rng.uniform(-1, 1, 3), w)
        assert trace.output == 0.0
        assert np.array_equal(trace.hidden_outputs, np.zeros(4))

    def test_zero_input(self):
        w = NetworkWeights([[1.0]], [1.0])
        assert forward([0.0], w).output == 0.0

    def test_tanh_composition(self):
        w = NetworkWeights([[10.0]], [1.0])
        trace = forward([1.0], w)
        assert trace.output == pytest.approx(TANH_TANH_10, abs=1e-12)
        assert trace.hidden_outputs[0] == pytest.approx(math.tanh(10.0), abs=1e-15)

    def test_dimension_mismatch(self):
        w = NetworkWeights.zeros(NetworkConfig(2, 3))
        with pytest.raises(UsageError):
            forward([0.1, 0.2, 0.3], w)

    @given(
        st.integers(1, 3),
        st.integers(1, 4),
        st.floats(-100.0, 100.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80)
    def test_output_strictly_inside_unit_interval(self, lin, hid, scale, seed):
        rng = np.random.default_rng(seed)
        w = NetworkWeights.uniform(NetworkConfig(lin, hid), max(abs(scale), 1e-3), rng)
        out = forward(rng.uniform(-1, 1, lin), w).output
        assert -1.0 < out < 1.0

    def test_saturated_output_stays_inside(self):
        w = NetworkWeights([[1000.0]], [1000.0])
        assert abs(forward([1.0], w).output) < 1.0


class TestWindows:
    def test_most_recent_first(self):
        xs = [0.1, 0.2, 0.3, 0.4]
        np.testing.assert_allclose(input_window(xs, 4, 2), [0.3, 0.2])
        np.testing.assert_allclose(input_window(xs, 5, 4), [0.4, 0.3, 0.2, 0.1])

    def test_too_early_round(self):
        with pytest.raises(UsageError):
            input_window([0.1, 0.2], 2, 2)

    def test_matrix_matches_single_windows(self, rng):
        xs = rng.uniform(-1, 1, 12)
        mat = window_matrix(xs, 3, 4, 12)
        for i, k in enumerate(range(4, 13)):
            np.testing.assert_array_equal(mat[i], input_window(xs, k, 3))


class TestLogWealth:
    def test_zero_weights(self, rng):
        _, _, history = random_instance(rng, input_count=2, hidden_count=2)
        w = NetworkWeights.zeros(NetworkConfig(2, 2))
        assert log_wealth(w, history) == 0.0

    def test_single_pair_composition(self):
        w = NetworkWeights([[10.0]], [1.0])
        value = log_wealth(w, [(np.array([1.0]), 1.0)])
        assert value == pytest.approx(LOG1P_TANH_TANH_10, abs=1e-12)

    def test_zero_movements_give_zero(self, rng):
        config, weights, _ = random_instance(rng)
        history = [(rng.uniform(-1, 1, config.input_count), 0.0) for _ in range(8)]
        assert log_wealth(weights, history) == 0.0

    def test_history_validation(self):
        w = NetworkWeights.zeros(NetworkConfig(1, 2))
        for history in (
            [(np.array([0.1]), 1.5)],
            [(np.array([0.1]), np.nan)],
            [(np.array([np.nan]), 0.1)],
            [(np.array([0.1, 0.2]), 0.1)],
            [([0.1], 0.1), ([0.1, 0.2], 0.1)],  # ragged windows
            [([0.1], "up")],  # non-numeric movement
        ):
            with pytest.raises(UsageError):
                log_wealth(w, history)


class TestLogWealthGradient:
    def test_zero_weights_stationary(self, rng):
        config, _, history = random_instance(rng)
        zeros = NetworkWeights.zeros(config)
        grad = log_wealth_gradient(zeros, history)
        assert np.abs(grad.hidden_weights).max() < 1e-15
        assert np.abs(grad.output_weights).max() < 1e-15

    def test_zero_movements_stationary(self, rng):
        config, weights, _ = random_instance(rng)
        history = [(rng.uniform(-1, 1, config.input_count), 0.0) for _ in range(6)]
        grad = log_wealth_gradient(weights, history)
        assert np.abs(grad.hidden_weights).max() == 0.0
        assert np.abs(grad.output_weights).max() == 0.0

    def test_matches_finite_differences(self, rng):
        for _ in range(20):
            config, weights, history = random_instance(rng)

            def objective(hidden, output):
                return log_wealth(NetworkWeights(hidden, output), history)

            grad = log_wealth_gradient(weights, history)
            fd_hidden, fd_output = fd_gradient(
                objective, [weights.hidden_weights, weights.output_weights]
            )
            assert relative_error(grad.hidden_weights, fd_hidden).max() < 1e-5
            assert relative_error(grad.output_weights, fd_output).max() < 1e-5

    def test_delta_shapes(self, rng):
        config, weights, history = random_instance(rng, 2, 3, history_len=7)
        grad = log_wealth_gradient(weights, history)
        assert grad.output_deltas.shape == (7,)
        assert grad.hidden_deltas.shape == (7, 3)


class TestSquaredErrorGradient:
    def test_output_at_target_is_stationary(self):
        w = NetworkWeights.zeros(NetworkConfig(2, 2))
        grad = squared_error_gradient(w, [0.3, -0.4], 0)
        assert np.abs(grad.hidden_weights).max() == 0.0
        assert np.abs(grad.output_weights).max() == 0.0

    def test_origin_saddle(self):
        # Zero weights, target 1: the output-input slope is -1 but both
        # weight gradients vanish, which is what motivates random inits.
        w = NetworkWeights.zeros(NetworkConfig(2, 3))
        grad = squared_error_gradient(w, [0.5, -0.5], 1)
        assert grad.output_deltas[0] == -1.0
        assert np.abs(grad.hidden_weights).max() == 0.0
        assert np.abs(grad.output_weights).max() == 0.0

    def test_rejects_bad_target(self):
        w = NetworkWeights.zeros(NetworkConfig(1, 1))
        with pytest.raises(UsageError, match="target"):
            squared_error_gradient(w, [0.1], 0.5)

    def test_matches_finite_differences(self, rng):
        for _ in range(20):
            config, weights, _ = random_instance(rng, 2, 2, history_len=0)
            window = rng.uniform(-1, 1, 2)
            target = int(rng.integers(-1, 2))

            def error(hidden, output):
                out = forward(window, NetworkWeights(hidden, output)).output
                return 0.5 * (target - out) ** 2

            grad = squared_error_gradient(weights, window, target)
            fd_hidden, fd_output = fd_gradient(
                error, [weights.hidden_weights, weights.output_weights]
            )
            assert relative_error(grad.hidden_weights, fd_hidden).max() < 1e-5
            assert relative_error(grad.output_weights, fd_output).max() < 1e-5


class TestAnnealingSchedule:
    def test_table_of_values(self):
        schedule = AnnealingSchedule(1.0, 5.0)
        assert schedule.rate(0) == 1.0
        assert schedule.rate(5) == pytest.approx(0.5, abs=1e-15)
        assert schedule.rate(45) == pytest.approx(0.1, abs=1e-15)

    def test_limit_identity(self):
        schedule = AnnealingSchedule(1.0, 5.0)
        assert schedule.rate(50) * 11 == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 10_000))
    def test_monotone_decreasing(self, step):
        schedule = AnnealingSchedule(2.0, 7.0)
        assert schedule.rate(step + 1) < schedule.rate(step) <= 2.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(UsageError):
            AnnealingSchedule(0.0, 5.0)
        with pytest.raises(UsageError):
            AnnealingSchedule(1.0, -1.0)
        with pytest.raises(UsageError):
            AnnealingSchedule().rate(-1)


class TestNetworkWeights:
    def test_uniform_draw_order_and_range(self, rng):
        config = NetworkConfig(2, 3)
        w = NetworkWeights.uniform(config, 0.1, rng)
        assert w.hidden_weights.shape == (3, 2)
        assert w.output_weights.shape == (3,)
        assert np.abs(w.hidden_weights).max() <= 0.1
        assert np.abs(w.output_weights).max() <= 0.1

    def test_shape_validation(self):
        with pytest.raises(UsageError):
            NetworkWeights(np.zeros((2, 3)), np.zeros(4))
        with pytest.raises(UsageError):
            NetworkWeights(np.zeros((2, 2)), np.array([np.inf, 0.0]))
