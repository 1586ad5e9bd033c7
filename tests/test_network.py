"""Network forward pass, both analytic gradients, and the annealing schedule."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    fd_gradient,
    input_window,
    random_instance,
    relative_error,
    squared_error_gradient,
)
from seqbet.errors import UsageError
from seqbet.game import RATIO_CAP, betting_windows, clamp_ratio
from seqbet.network import (
    _OUTPUT_CAP,
    AnnealingSchedule,
    NetworkConfig,
    NetworkWeights,
    _batch_forward,
    _bets,
    forward,
    log_wealth,
    log_wealth_gradient,
)
from seqbet.nnbp import NnbpConfig
from seqbet.portfolio import PortfolioWeights, forward_portfolio
from seqbet.sosnn import SosnnConfig, optimize_weights

# Frozen oracle values (direct double-precision evaluation).
TANH_TANH_10 = 0.7615941542245017
LOG1P_TANH_TANH_10 = 0.5662191685341907


def hidden_outputs(window, weights):
    """The hidden layer's outputs on one window, from the batched forward pass."""
    u = np.asarray(window, dtype=float)[None, None]
    hidden, _ = _batch_forward(
        u, weights.hidden_weights[None].mT, weights.output_weights[None, None].mT
    )
    return hidden[0, 0]


class TestForward:
    def test_zero_weights_zero_output(self, rng):
        w = NetworkWeights.zeros(NetworkConfig(3, 4))
        window = rng.uniform(-1, 1, 3)
        assert forward(window, w) == 0.0
        assert np.array_equal(hidden_outputs(window, w), np.zeros(4))

    def test_zero_input(self):
        w = NetworkWeights([[1.0]], [1.0])
        assert forward([0.0], w) == 0.0

    def test_tanh_composition(self):
        w = NetworkWeights([[10.0]], [1.0])
        assert forward([1.0], w) == pytest.approx(TANH_TANH_10, abs=1e-12)
        assert hidden_outputs([1.0], w)[0] == pytest.approx(math.tanh(10.0), abs=1e-15)

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
        out = forward(rng.uniform(-1, 1, lin), w)
        assert -1.0 < out < 1.0

    def test_saturated_output_stays_inside(self):
        w = NetworkWeights([[1000.0]], [1000.0])
        assert abs(forward([1.0], w)) < 1.0


class TestBets:
    @given(
        st.integers(1, 10),
        st.integers(1, 15),
        st.integers(1, 40),
        st.integers(1, 4),
        st.floats(0.1, 30.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_rows_are_reference_forward_passes(self, replicates, length, hidden, assets, scale, seed):
        # One pass over R replicates' own weights and windows: each row,
        # capped as its strategy caps it, is bit for bit the single-window
        # reference on that replicate alone. The per-round axis of one
        # network is test_nnbp's test_bets_are_per_round_forward_passes.
        rng = np.random.default_rng(seed)
        w_hidden = rng.uniform(-scale, scale, (replicates, hidden, length))
        w_out = rng.uniform(-scale, scale, (replicates, assets, hidden))
        windows = rng.uniform(-1, 1, (replicates, length))
        bets = _bets(w_hidden, w_out, windows)
        assert bets.shape == (replicates, assets)
        for r in range(replicates):
            if assets == 1:
                bet = np.clip(bets[r, 0], -RATIO_CAP, RATIO_CAP)
                expected = clamp_ratio(forward(windows[r], NetworkWeights(w_hidden[r], w_out[r, 0])))
                assert bet.tobytes() == np.float64(expected).tobytes()
            else:
                ratios = np.clip(bets[r], -_OUTPUT_CAP, _OUTPUT_CAP)
                expected = forward_portfolio(windows[r], PortfolioWeights(w_hidden[r], w_out[r]))
                assert ratios.tobytes() == expected.tobytes()


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
        for warmup in (3, 7):
            mat = betting_windows(xs, 3, warmup)
            assert mat.shape == (12 - warmup, 3)
            for i, k in enumerate(range(warmup + 1, 13)):
                np.testing.assert_array_equal(mat[i], input_window(xs, k, 3))


class TestLogWealth:
    def test_zero_weights(self, rng):
        _, _, windows, moves = random_instance(rng, input_count=2, hidden_count=2)
        w = NetworkWeights.zeros(NetworkConfig(2, 2))
        assert log_wealth(w, windows, moves) == 0.0

    def test_single_round_composition(self):
        w = NetworkWeights([[10.0]], [1.0])
        value = log_wealth(w, [[1.0]], [1.0])
        assert value == pytest.approx(LOG1P_TANH_TANH_10, abs=1e-12)

    def test_zero_movements_give_zero(self, rng):
        config, weights, _, _ = random_instance(rng)
        windows = rng.uniform(-1, 1, (8, config.input_count))
        assert log_wealth(weights, windows, np.zeros(8)) == 0.0

    def test_column_of_moves_is_one_asset(self, rng):
        _, weights, windows, moves = random_instance(rng)
        assert log_wealth(weights, windows, moves[:, None]) == log_wealth(weights, windows, moves)

    def test_history_validation(self):
        w = NetworkWeights.zeros(NetworkConfig(1, 2))
        config = SosnnConfig(net=w.config)
        bad_matrices = (
            ([[0.1]], [1.5]),  # movement out of range
            ([[0.1]], [np.nan]),
            ([[np.nan]], [0.1]),
            ([[0.1, 0.2]], [0.1]),  # window wider than the input layer
        )
        for windows, moves in bad_matrices:
            with pytest.raises(UsageError):
                log_wealth(w, windows, moves)
            with pytest.raises(UsageError):
                log_wealth_gradient(w, windows, moves)
        bad_pairs = (
            [([0.1], 0.1), ([0.1, 0.2], 0.1)],  # ragged windows
            [([0.1], "up")],  # non-numeric movement
            [([0.1], 0.1, 0.2)],  # not a pair
        )
        for history in bad_pairs + tuple(list(zip(*m)) for m in bad_matrices):
            with pytest.raises(UsageError):
                optimize_weights(history, config, w)

    def test_rows_must_match(self):
        w = NetworkWeights.zeros(NetworkConfig(1, 2))
        with pytest.raises(UsageError, match="movements"):
            log_wealth(w, [[0.1], [0.2]], [0.1])


class TestLogWealthGradient:
    def test_zero_weights_stationary(self, rng):
        config, _, windows, moves = random_instance(rng)
        zeros = NetworkWeights.zeros(config)
        grad_hidden, grad_out = log_wealth_gradient(zeros, windows, moves)
        assert np.abs(grad_hidden).max() < 1e-15
        assert np.abs(grad_out).max() < 1e-15

    def test_zero_movements_stationary(self, rng):
        config, weights, _, _ = random_instance(rng)
        windows = rng.uniform(-1, 1, (6, config.input_count))
        grad_hidden, grad_out = log_wealth_gradient(weights, windows, np.zeros(6))
        assert np.abs(grad_hidden).max() == 0.0
        assert np.abs(grad_out).max() == 0.0

    def test_matches_finite_differences(self, rng):
        for _ in range(20):
            config, weights, windows, moves = random_instance(rng)

            def objective(hidden, output):
                return log_wealth(NetworkWeights(hidden, output), windows, moves)

            grad_hidden, grad_out = log_wealth_gradient(weights, windows, moves)
            fd_hidden, fd_output = fd_gradient(
                objective, [weights.hidden_weights, weights.output_weights]
            )
            assert relative_error(grad_hidden, fd_hidden).max() < 1e-5
            assert relative_error(grad_out, fd_output).max() < 1e-5

    def test_gradient_in_the_weights_shapes(self, rng):
        config, weights, windows, moves = random_instance(rng, 2, 3, history_len=7)
        grad_hidden, grad_out = log_wealth_gradient(weights, windows, moves)
        assert grad_hidden.shape == (3, 2)
        assert grad_out.shape == (3,)


class TestSquaredErrorGradient:
    """The scalar reference that `nnbp.train_replicates` inlines."""

    def test_output_at_target_is_stationary(self):
        w = NetworkWeights.zeros(NetworkConfig(2, 2))
        grad_hidden, grad_out, _ = squared_error_gradient(w, [0.3, -0.4], 0)
        assert np.abs(grad_hidden).max() == 0.0
        assert np.abs(grad_out).max() == 0.0

    def test_origin_saddle(self):
        # Zero weights, target 1: the output-input slope is -1 but both
        # weight gradients vanish, which is what motivates random inits.
        w = NetworkWeights.zeros(NetworkConfig(2, 3))
        grad_hidden, grad_out, out_delta = squared_error_gradient(w, [0.5, -0.5], 1)
        assert out_delta == -1.0
        assert np.abs(grad_hidden).max() == 0.0
        assert np.abs(grad_out).max() == 0.0

    def test_rejects_bad_target(self):
        w = NetworkWeights.zeros(NetworkConfig(1, 1))
        with pytest.raises(UsageError, match="target"):
            squared_error_gradient(w, [0.1], 0.5)

    def test_matches_finite_differences(self, rng):
        for _ in range(20):
            config, weights, _, _ = random_instance(rng, 2, 2, history_len=0)
            window = rng.uniform(-1, 1, 2)
            target = int(rng.integers(-1, 2))

            def error(hidden, output):
                out = forward(window, NetworkWeights(hidden, output))
                return 0.5 * (target - out) ** 2

            grad_hidden, grad_out, _ = squared_error_gradient(weights, window, target)
            fd_hidden, fd_output = fd_gradient(
                error, [weights.hidden_weights, weights.output_weights]
            )
            assert relative_error(grad_hidden, fd_hidden).max() < 1e-5
            assert relative_error(grad_out, fd_output).max() < 1e-5


def schedule_rates(schedule, count):
    """The first `count` rates of the schedule's stream."""
    return list(itertools.islice(schedule.rates(), count))


class TestAnnealingSchedule:
    def test_table_of_values(self):
        rates = schedule_rates(AnnealingSchedule(1.0, 5.0), 46)
        assert rates[0] == 1.0
        assert rates[5] == pytest.approx(0.5, abs=1e-15)
        assert rates[45] == pytest.approx(0.1, abs=1e-15)

    def test_limit_identity(self):
        assert schedule_rates(AnnealingSchedule(1.0, 5.0), 51)[50] * 11 == pytest.approx(
            1.0, abs=1e-12
        )

    @given(st.integers(0, 10_000))
    def test_monotone_decreasing(self, step):
        *_, rate, next_rate = schedule_rates(AnnealingSchedule(2.0, 7.0), step + 2)
        assert next_rate < rate <= 2.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(UsageError):
            AnnealingSchedule(0.0, 5.0)
        with pytest.raises(UsageError):
            AnnealingSchedule(1.0, -1.0)


class TestCheckSettings:
    """One rule for every strategy setting: positive ones are above 0 with a
    finite range [-v, v], counts at least 1."""

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf"), -float("inf"), 1e308])
    def test_positive_setting_outside_its_rule_is_rejected(self, value):
        for make in (lambda v: AnnealingSchedule(v, 5.0), lambda v: AnnealingSchedule(1.0, v),
                     lambda v: SosnnConfig(NetworkConfig(1, 1), init_scale=v),
                     lambda v: NnbpConfig(NetworkConfig(1, 1), learning_rate=v)):
            with pytest.raises(UsageError, match=r"^\w+ must be positive and finite, got "):
                make(value)

    def test_largest_scale_whose_range_is_finite_draws(self, rng):
        # Half the largest double is the last v whose 2v is finite; the
        # draw from [-v, v] runs there and overflows one double above it.
        scale = np.finfo(float).max / 2
        config = SosnnConfig(NetworkConfig(1, 1), init_scale=scale)
        weights = NetworkWeights.uniform(config.net, config.init_scale, rng)
        assert np.isfinite(weights.hidden_weights).all()
        with pytest.raises(UsageError, match=r"^init_scale must be positive and finite, got "):
            SosnnConfig(NetworkConfig(1, 1), init_scale=np.nextafter(scale, np.inf))

    @pytest.mark.parametrize("key", ["max_iterations", "max_steps"])
    def test_count_below_1_is_rejected(self, key):
        config = SosnnConfig if key == "max_iterations" else NnbpConfig
        with pytest.raises(UsageError, match=rf"^{key} must be >= 1, got 0$"):
            config(NetworkConfig(1, 1), **{key: 0})


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
