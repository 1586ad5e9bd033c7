"""Multi-asset extension: shared hidden layer, exposure cap, gradient, runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_gradient, relative_error
from seqbet.data import NoiseSpec, gen_ar1, normalize
from seqbet.errors import StrategyViolationError, UsageError
from seqbet.network import NetworkConfig, NetworkWeights, forward
from seqbet.portfolio import (
    PortfolioWeights,
    capital_step_portfolio,
    forward_portfolio,
    log_wealth_gradient_portfolio,
    log_wealth_portfolio,
    rescale_exposure,
    run_sosnn_portfolio,
)
from seqbet.sosnn import SosnnConfig, run_sosnn


class TestForwardPortfolio:
    def test_zero_weights_zero_vector(self, rng):
        w = PortfolioWeights(np.zeros((3, 2)), np.zeros((4, 3)))
        out = forward_portfolio(rng.uniform(-1, 1, 2), w)
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_single_asset_matches_single_output_network(self, rng):
        config = NetworkConfig(2, 3)
        single = NetworkWeights.uniform(config, 0.5, np.random.default_rng(12))
        multi = PortfolioWeights(single.hidden_weights, single.output_weights[None, :])
        window = rng.uniform(-1, 1, 2)
        assert forward_portfolio(window, multi)[0] == forward(window, single).output

    def test_identical_rows_identical_outputs(self, rng):
        hidden = rng.uniform(-0.5, 0.5, (3, 2))
        row = rng.uniform(-0.5, 0.5, 3)
        w = PortfolioWeights(hidden, np.vstack([row, row]))
        out = forward_portfolio(rng.uniform(-1, 1, 2), w)
        assert out[0] == out[1]

    def test_dimension_mismatch(self):
        w = PortfolioWeights(np.zeros((2, 2)), np.zeros((1, 2)))
        with pytest.raises(UsageError):
            forward_portfolio([0.1, 0.2, 0.3], w)


class TestCapitalStep:
    def test_zero_ratios_leave_capital(self):
        assert capital_step_portfolio(3.0, [0.0, 0.0], [1.0, -1.0]) == 3.0

    def test_direct_substitution(self):
        value = capital_step_portfolio(1.0, [0.3, -0.2], [1.0, 1.0])
        assert value == pytest.approx(1.1, rel=1e-15)

    def test_exposure_bound_enforced(self):
        with pytest.raises(StrategyViolationError, match="exposure"):
            capital_step_portfolio(1.0, [0.5, 0.5], [-1.0, -1.0])

    def test_movement_bound(self):
        with pytest.raises(UsageError):
            capital_step_portfolio(1.0, [0.1, 0.1], [1.5, 0.0])
        with pytest.raises(UsageError):
            capital_step_portfolio(1.0, [0.1, 0.1], [np.nan, 0.0])

    @given(
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100)
    def test_solvency_under_rescale(self, assets, seed):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(-1, 1, assets) * rng.uniform(0.0, 3.0)
        ratios = rescale_exposure(raw)
        x = rng.uniform(-1, 1, assets)
        assert np.abs(ratios).sum() < 1.0
        assert capital_step_portfolio(1.0, ratios, x) > 0.0


class TestRescale:
    def test_below_cap_unchanged(self):
        ratios = np.array([0.2, -0.3])
        np.testing.assert_array_equal(rescale_exposure(ratios), ratios)

    def test_at_cap_scaled(self):
        scaled = rescale_exposure(np.array([0.8, -0.8]))
        assert np.abs(scaled).sum() == pytest.approx(0.999, abs=1e-12)
        assert scaled[0] / abs(scaled[1]) == pytest.approx(1.0, abs=1e-12)


class TestPortfolioGradient:
    def test_matches_finite_differences(self, rng):
        for _ in range(12):
            assets = int(rng.integers(1, 4))
            lin = int(rng.integers(1, 3))
            hid = int(rng.integers(1, 4))
            w = PortfolioWeights(
                rng.uniform(-0.1, 0.1, (hid, lin)), rng.uniform(-0.1, 0.1, (assets, hid))
            )
            history = [
                (rng.uniform(-1, 1, lin), rng.uniform(-0.5, 0.5, assets))
                for _ in range(8)
            ]

            def objective(hidden, output):
                return log_wealth_portfolio(PortfolioWeights(hidden, output), history)

            grad_hidden, grad_out = log_wealth_gradient_portfolio(w, history)
            fd_hidden, fd_out = fd_gradient(
                objective, [w.hidden_weights, w.output_weights]
            )
            assert relative_error(grad_hidden, fd_hidden).max() < 1e-5
            assert relative_error(grad_out, fd_out).max() < 1e-5

    def test_single_asset_value_matches_network_objective(self, rng):
        from seqbet.network import log_wealth

        config = NetworkConfig(2, 3)
        single = NetworkWeights.uniform(config, 0.3, np.random.default_rng(4))
        multi = PortfolioWeights(single.hidden_weights, single.output_weights[None, :])
        history = [(rng.uniform(-1, 1, 2), float(rng.uniform(-1, 1))) for _ in range(9)]
        panel_history = [(w, np.array([x])) for w, x in history]
        assert log_wealth_portfolio(multi, panel_history) == pytest.approx(
            log_wealth(single, history), abs=1e-14
        )


class TestRunPortfolio:
    def test_single_asset_panel_matches_single_asset_run(self):
        ms = normalize(gen_ar1(60, NoiseSpec(seed=17)))
        config = SosnnConfig(net=NetworkConfig(1, 2), warmup=5, seed=31)
        single = run_sosnn(ms, config)
        panel = run_sosnn_portfolio(ms.values[:, None], config)
        np.testing.assert_array_equal(panel.ratios[:, 0], single.ratios)
        np.testing.assert_array_equal(panel.log_capital_path, single.log_capital_path)
        assert panel.checkpoints == single.checkpoints

    def test_two_assets_run_and_solvency(self, rng):
        panel = np.column_stack(
            [
                normalize(gen_ar1(50, NoiseSpec(seed=1))).values,
                normalize(gen_ar1(50, NoiseSpec(seed=2))).values,
            ]
        )
        config = SosnnConfig(net=NetworkConfig(1, 2), warmup=5, seed=8)
        res = run_sosnn_portfolio(panel, config)
        assert np.abs(res.ratios).sum(axis=1).max() < 1.0
        assert np.isfinite(res.log_capital_path).all()
        # warmup rows bet nothing
        assert not res.ratios[:5].any()

    def test_deterministic(self):
        panel = np.column_stack(
            [
                normalize(gen_ar1(40, NoiseSpec(seed=3))).values,
                normalize(gen_ar1(40, NoiseSpec(seed=4))).values,
            ]
        )
        config = SosnnConfig(net=NetworkConfig(1, 2), warmup=5, seed=8)
        a = run_sosnn_portfolio(panel, config)
        b = run_sosnn_portfolio(panel, config)
        np.testing.assert_array_equal(a.ratios, b.ratios)

    def test_panel_validation(self):
        config = SosnnConfig(net=NetworkConfig(1, 2), warmup=5, seed=8)
        with pytest.raises(UsageError):
            run_sosnn_portfolio(np.zeros(30), config)  # not a matrix
        with pytest.raises(UsageError):
            run_sosnn_portfolio(np.full((30, 2), 1.5), config)
        with pytest.raises(UsageError, match="finite"):
            run_sosnn_portfolio(np.full((30, 2), np.nan), config)

    def test_correlated_assets_cross_bankrupt_region(self):
        # Two strongly correlated assets drive the refit into territory where
        # the raw output vector would bankrupt a recorded round; the run must
        # survive via step shrinking and warm-start projection.
        shared = gen_ar1(320, NoiseSpec(seed=101))
        other = gen_ar1(320, NoiseSpec(seed=202))
        panel = np.column_stack(
            [normalize(shared).values, normalize(0.7 * shared + 0.3 * other).values]
        )
        config = SosnnConfig(net=NetworkConfig(1, 3), seed=7)
        res = run_sosnn_portfolio(panel, config)
        assert np.isfinite(res.log_capital_path).all()
        assert np.abs(res.ratios).sum(axis=1).max() < 1.0
