"""Multi-asset extension: shared hidden layer, exposure cap, gradient, runs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_gradient, relative_error
from seqbet.data import NoiseSpec, gen_ar1, normalize
from seqbet.errors import StrategyViolationError, UsageError
from seqbet.network import NetworkConfig, NetworkWeights, forward, window_matrix
from seqbet.portfolio import (
    PortfolioWeights,
    capital_step_portfolio,
    forward_portfolio,
    log_wealth_gradient_portfolio,
    log_wealth_portfolio,
    rescale_exposure,
    run_sosnn_portfolio,
)
from seqbet.sosnn import OptimizeReport, SosnnConfig, _ascend, run_sosnn


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


class TestReplicateStack:
    def test_stacked_refits_match_each_panel_alone(self, monkeypatch):
        # Record every refit of four two-asset runs, then replay each round's
        # four refits as one stacked ascent: each must give the weights and
        # report its run got alone. The correlated assets make the solvency
        # projection and the step halving run inside the stack.
        import seqbet.portfolio as portfolio
        import seqbet.sosnn as sosnn

        original = portfolio._optimize_portfolio
        calls = []

        def recording(windows, moves, config, init):
            weights, report = original(windows, moves, config, init)
            calls.append((windows, moves, init, weights, report))
            return weights, report

        monkeypatch.setattr(portfolio, "_optimize_portfolio", recording)
        runs = 4
        for seed in range(runs):
            shared = gen_ar1(60, NoiseSpec(seed=100 + seed))
            other = gen_ar1(60, NoiseSpec(seed=200 + seed))
            panel = np.column_stack(
                [normalize(shared).values, normalize(0.7 * shared + 0.3 * other).values]
            )
            config = SosnnConfig(
                net=NetworkConfig(1, 3), seed=7 + seed, max_iterations=150, warmup=20
            )
            run_sosnn_portfolio(panel, config)

        evaluate = sosnn._evaluate
        insolvent = []

        def counting(*args):
            values, state = evaluate(*args)
            insolvent.append(int((~np.isfinite(values)).sum()))
            return values, state

        monkeypatch.setattr(sosnn, "_evaluate", counting)
        rounds = len(calls) // runs
        mixed_stops = 0
        for k in range(rounds):
            group = [calls[r * rounds + k] for r in range(runs)]
            hidden, out, outcomes = _ascend(
                np.stack([g[0] for g in group]), np.stack([g[1] for g in group]), config,
                np.stack([g[2].hidden_weights for g in group]),
                np.stack([g[2].output_weights for g in group]),
            )
            for i, (_, _, _, weights, report) in enumerate(group):
                np.testing.assert_array_equal(hidden[i], weights.hidden_weights)
                np.testing.assert_array_equal(out[i], weights.output_weights)
                assert outcomes[i] == report
            mixed_stops += len({o.iterations for o in outcomes}) > 1
        assert mixed_stops > 0
        assert sum(insolvent) > 0


    def test_failed_replicate_leaves_a_two_asset_stack(self, monkeypatch):
        # A non-finite gradient fails replicate 0 at ascent step 3; replicate
        # 1 steps on in the narrowed stack and ends as it does alone.
        import seqbet.sosnn as sosnn

        windows, moves, config, init = _correlated_refit(200)
        other = PortfolioWeights.uniform(config.net, 2, 0.5, np.random.default_rng(9))
        alone_hidden, alone_out, (alone,) = _ascend(
            windows[None], moves[None], config,
            other.hidden_weights[None], other.output_weights[None],
        )
        gradient = sosnn._gradient
        calls = []

        def poisoned(state, windows, moves, w_out, grad_hidden, grad_out):
            deltas = gradient(state, windows, moves, w_out, grad_hidden, grad_out)
            calls.append(len(windows))
            if len(calls) == 4:
                grad_out[0] = np.nan
            return deltas

        monkeypatch.setattr(sosnn, "_gradient", poisoned)
        hidden, out, outcomes = _ascend(
            np.stack([windows, windows]), np.stack([moves, moves]), config,
            np.stack([init.hidden_weights, other.hidden_weights]),
            np.stack([init.output_weights, other.output_weights]),
        )
        assert str(outcomes[0]) == "non-finite objective or gradient at ascent step 3"
        assert outcomes[1] == alone
        np.testing.assert_array_equal(hidden[1], alone_hidden[0])
        np.testing.assert_array_equal(out[1], alone_out[0])


def _reference_ascent(windows, moves, config, init):
    """The multi-asset refit written out from the public objective and
    gradient: project the start to solvency by halving the output layer,
    halve each step until it stays solvent, stop once the largest applied
    increment falls below the tolerance, return the best point scored.

    Also returns how many distinct points it scored and how many steps it
    halved.
    """
    history = list(zip(windows, moves))

    def score(hidden, out):
        return log_wealth_portfolio(PortfolioWeights(hidden, out), history)

    hidden, out = init.hidden_weights.copy(), init.output_weights.copy()
    points = halvings = 0
    for _ in range(128):
        points += 1
        value = score(hidden, out)
        if math.isfinite(value):
            break
        out = out * 0.5
    best, best_value = (hidden, out), -math.inf
    for step in range(config.max_iterations):
        if value > best_value:
            best, best_value = (hidden, out), value
        weights = PortfolioWeights(hidden, out)
        grad_hidden, grad_out = log_wealth_gradient_portfolio(weights, history)
        norm = float(max(np.abs(grad_hidden).max(), np.abs(grad_out).max()))
        rate = config.schedule.rate(step)
        step_hidden, step_out = rate * grad_hidden, rate * grad_out
        for _ in range(64):
            points += 1
            value = score(hidden + step_hidden, out + step_out)
            if math.isfinite(value):
                break
            step_hidden, step_out = step_hidden * 0.5, step_out * 0.5
            halvings += 1
        hidden, out = hidden + step_hidden, out + step_out
        if max(np.abs(step_hidden).max(), np.abs(step_out).max()) < config.weight_tolerance:
            iterations, converged = step + 1, True
            break
    else:
        iterations, converged = config.max_iterations, False
    if value > best_value:
        best, best_value = (hidden, out), value
    report = OptimizeReport(iterations, converged, norm, best_value)
    return PortfolioWeights(*best), report, points, halvings


def _correlated_refit(max_iterations, weight_tolerance=1e-4):
    """A two-asset refit whose start needs the solvency projection and
    whose first step is halved twice, from a largest increment of 15.1 to
    one of 3.8."""
    shared = gen_ar1(40, NoiseSpec(seed=101))
    other = gen_ar1(40, NoiseSpec(seed=202))
    panel = np.column_stack(
        [normalize(shared).values, normalize(0.7 * shared + 0.3 * other).values]
    )
    windows = window_matrix(panel[:, 0], 1, 2, 40)
    config = SosnnConfig(
        net=NetworkConfig(1, 3), max_iterations=max_iterations, weight_tolerance=weight_tolerance
    )
    init = PortfolioWeights.uniform(config.net, 2, 2.0, np.random.default_rng(5))
    return windows, panel[1:], config, init


class TestReferenceAscent:
    # The cap hit; the tolerance met after 65 steps; and a tolerance of 4,
    # which only the halved first step meets.
    @pytest.mark.parametrize(
        "max_iterations, weight_tolerance, converged",
        [(20, 1e-4, False), (2000, 1e-4, True), (2000, 4.0, True)],
    )
    def test_refit_matches_written_out_ascent(self, max_iterations, weight_tolerance, converged):
        import seqbet.portfolio as portfolio

        windows, moves, config, init = _correlated_refit(max_iterations, weight_tolerance)
        expected, expected_report, points, halvings = _reference_ascent(
            windows, moves, config, init
        )
        assert halvings > 0
        assert points > expected_report.iterations + halvings  # the start was projected
        weights, report = portfolio._optimize_portfolio(windows, moves, config, init)
        np.testing.assert_array_equal(weights.hidden_weights, expected.hidden_weights)
        np.testing.assert_array_equal(weights.output_weights, expected.output_weights)
        assert report == expected_report
        assert report.converged is converged

    @pytest.mark.parametrize("max_iterations", [20, 2000])
    def test_refit_scores_each_point_once(self, monkeypatch, max_iterations):
        # The start (each projection point), every step and every halved
        # step is one point; the refit evaluates each exactly once.
        import seqbet.portfolio as portfolio
        import seqbet.sosnn as sosnn

        windows, moves, config, init = _correlated_refit(max_iterations)
        _, _, points, _ = _reference_ascent(windows, moves, config, init)
        evaluate = sosnn._evaluate
        calls = []

        def counting(*args):
            calls.append(args[0].shape[0])
            return evaluate(*args)

        monkeypatch.setattr(sosnn, "_evaluate", counting)
        portfolio._optimize_portfolio(windows, moves, config, init)
        assert calls == [1] * points
