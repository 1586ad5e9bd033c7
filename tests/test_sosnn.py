"""Sequential optimizer: ascent guarantees, determinism, causality, runs."""

import numpy as np
import pytest

from seqbet.data import NoiseSpec, gen_ar1, normalize
from seqbet.errors import NumericError, UsageError
from seqbet.game import MovementSeries, betting_windows
from seqbet.network import (
    AnnealingSchedule,
    NetworkConfig,
    NetworkWeights,
    log_wealth,
    log_wealth_gradient,
)
from seqbet.portfolio import PortfolioWeights
from seqbet.sosnn import (
    OptimizeReport,
    SosnnConfig,
    _ascend,
    optimize_weights,
    run_sosnn,
    run_sosnn_replicates,
)


def small_config(lin=1, hid=1, **kwargs):
    defaults = dict(net=NetworkConfig(lin, hid), warmup=5, seed=7)
    defaults.update(kwargs)
    return SosnnConfig(**defaults)


def ar1_history(n, seed, lin):
    """(window, movement) pairs over a normalized sample series."""
    xs = normalize(gen_ar1(n + lin, NoiseSpec(seed=seed))).values
    return [
        (xs[k - 1 - lin : k - 1][::-1].copy(), xs[k - 1]) for k in range(lin + 1, n + lin + 1)
    ]


def matrices(history):
    """The K x L windows and K movements of (window, movement) pairs."""
    return np.array([w for w, _ in history]), np.array([x for _, x in history])


class TestOptimizeWeights:
    def test_zero_movement_history_returns_init(self, rng):
        config = small_config(2, 2)
        init = NetworkWeights.uniform(config.net, 0.1, rng)
        history = [(rng.uniform(-1, 1, 2), 0.0) for _ in range(5)]
        weights, report = optimize_weights(history, config, init)
        np.testing.assert_array_equal(weights.hidden_weights, init.hidden_weights)
        np.testing.assert_array_equal(weights.output_weights, init.output_weights)
        assert report.iterations == 1 and report.converged

    def test_origin_is_stationary(self, rng):
        config = small_config(2, 3)
        init = NetworkWeights.zeros(config.net)
        history = [(rng.uniform(-1, 1, 2), float(rng.uniform(-1, 1))) for _ in range(6)]
        weights, report = optimize_weights(history, config, init)
        assert not weights.hidden_weights.any()
        assert not weights.output_weights.any()
        assert report.iterations == 1 and report.converged

    def test_portfolio_init_rejected(self, rng):
        config = small_config(2, 2)
        init = PortfolioWeights.uniform(config.net, 1, 0.1, rng)
        history = [(rng.uniform(-1, 1, 2), 0.1) for _ in range(3)]
        with pytest.raises(UsageError, match="one asset"):
            optimize_weights(history, config, init)

    def test_empty_history_rejected(self, rng):
        config = small_config()
        with pytest.raises(UsageError, match="empty"):
            optimize_weights([], config, NetworkWeights.zeros(config.net))

    def test_non_finite_history_rejected(self):
        config = small_config()
        history = [(np.zeros(config.net.input_count), np.nan)]
        with pytest.raises(UsageError, match="finite"):
            optimize_weights(history, config, NetworkWeights.zeros(config.net))

    def test_beats_grid_search_at_tiny_dimension(self, rng):
        # Independent oracle: a 101x101 grid over both scalar weights of the
        # 1x1 network on a 30-round sample.
        config = small_config(1, 1, max_iterations=10_000)
        history = ar1_history(30, seed=11, lin=1)
        init = NetworkWeights.uniform(config.net, 0.1, np.random.default_rng(3))
        weights, report = optimize_weights(history, config, init)
        achieved = log_wealth(weights, *matrices(history))

        grid = np.linspace(-2.0, 2.0, 101)
        windows = np.array([w[0] for w, _ in history])
        moves = np.array([x for _, x in history])
        best_grid = -np.inf
        for w_hidden in grid:
            hidden_out = np.tanh(w_hidden * windows)
            for w_out in grid:
                value = np.log1p(np.tanh(w_out * hidden_out) * moves).sum()
                best_grid = max(best_grid, value)
        assert achieved >= best_grid - 1e-3

    def test_never_returns_below_init(self, rng):
        for trial in range(10):
            config = small_config(2, 3, max_iterations=200)
            init = NetworkWeights.uniform(config.net, 0.5, rng)
            history = [
                (rng.uniform(-1, 1, 2), float(rng.uniform(-1, 1))) for _ in range(25)
            ]
            weights, report = optimize_weights(history, config, init)
            windows, moves = matrices(history)
            assert log_wealth(weights, windows, moves) >= log_wealth(init, windows, moves) - 1e-9
            assert report.iterations <= config.max_iterations

    def test_report_objective_matches_returned_weights(self, rng):
        config = small_config(1, 2)
        history = ar1_history(20, seed=2, lin=1)
        init = NetworkWeights.uniform(config.net, 0.1, rng)
        weights, report = optimize_weights(history, config, init)
        assert report.objective == pytest.approx(
            log_wealth(weights, *matrices(history)), abs=1e-12
        )


def reference_ascent(history, config, init):
    """The annealed ascent written plainly: separate weight arrays, the public
    gradient, and the stop rule max|rate * g| < tol on the applied increment."""
    windows, moves = matrices(history)
    w_hidden = init.hidden_weights.copy()
    w_out = init.output_weights.copy()
    best_value, best = -np.inf, None
    iterations = 0
    for step in range(config.max_iterations):
        weights = NetworkWeights(w_hidden, w_out)
        value = log_wealth(weights, windows, moves)
        grad_hidden, grad_out = log_wealth_gradient(weights, windows, moves)
        if value > best_value:
            best_value, best = value, (w_hidden.copy(), w_out.copy())
        rate = config.schedule.initial_rate / (1.0 + step / config.schedule.decay_steps)
        inc_hidden = rate * grad_hidden
        inc_out = rate * grad_out
        w_hidden = w_hidden + inc_hidden
        w_out = w_out + inc_out
        iterations = step + 1
        if max(np.abs(inc_hidden).max(), np.abs(inc_out).max()) < config.weight_tolerance:
            break
    if log_wealth(NetworkWeights(w_hidden, w_out), windows, moves) > best_value:
        best = (w_hidden, w_out)
    return best, iterations


class TestAscentLoop:
    @pytest.mark.parametrize("lin,hid", [(1, 2), (2, 3), (3, 8)])
    @pytest.mark.parametrize(
        "limits,stopped_by_tolerance",
        [(dict(max_iterations=40), False), (dict(max_iterations=5000, weight_tolerance=1e-3), True)],
        ids=["cap-hit", "tolerance-met"],
    )
    def test_matches_reference_ascent(self, lin, hid, limits, stopped_by_tolerance):
        config = small_config(lin, hid, **limits)
        history = ar1_history(30, seed=lin + hid, lin=lin)
        init = NetworkWeights.uniform(config.net, 0.1, np.random.default_rng(hid))
        (ref_hidden, ref_out), ref_iterations = reference_ascent(history, config, init)
        weights, report = optimize_weights(history, config, init)
        np.testing.assert_array_equal(weights.hidden_weights, ref_hidden)
        np.testing.assert_array_equal(weights.output_weights, ref_out)
        assert report.iterations == ref_iterations
        assert report.converged == stopped_by_tolerance
        assert (report.iterations < config.max_iterations) == stopped_by_tolerance

    @pytest.mark.parametrize("assets", [1, 2])
    def test_non_finite_gradient_raises(self, assets):
        # An infinite window entry saturates its hidden neurons, so the hidden
        # gradient picks up 0 * inf = NaN while the objective stays finite.
        rng = np.random.default_rng(assets)
        config = small_config(2, 3)
        windows = rng.uniform(-1, 1, (6, 2))
        windows[2, 1] = np.inf
        moves = rng.uniform(-0.5, 0.5, (6, assets))
        w_hidden = rng.uniform(-0.5, 0.5, (3, 2))
        w_out = rng.uniform(-0.5, 0.5, (assets, 3))
        with np.errstate(invalid="ignore"):
            _, _, (outcome,) = _ascend(
                windows[None], moves[None], config, w_hidden[None], w_out[None]
            )
        assert isinstance(outcome, NumericError)
        assert str(outcome) == "non-finite objective or gradient at ascent step 0"


class TestRunSosnn:
    def test_zero_movements_zero_path(self):
        config = small_config()
        res = run_sosnn(MovementSeries(np.zeros(20)), config)
        assert not res.log_capital_path.any()

    def test_fixed_seed_bit_identical(self):
        ms = normalize(gen_ar1(40, NoiseSpec(seed=5)))
        config = small_config(1, 2, seed=99)
        a = run_sosnn(ms, config)
        b = run_sosnn(ms, config)
        np.testing.assert_array_equal(a.ratios, b.ratios)
        np.testing.assert_array_equal(a.log_capital_path, b.log_capital_path)

    def test_seed_changes_run(self):
        ms = normalize(gen_ar1(40, NoiseSpec(seed=5)))
        a = run_sosnn(ms, small_config(1, 2, seed=1))
        b = run_sosnn(ms, small_config(1, 2, seed=2))
        assert not np.array_equal(a.ratios, b.ratios)

    def test_causality_by_truncated_replay(self):
        values = normalize(gen_ar1(40, NoiseSpec(seed=6))).values
        perturbed = values.copy()
        perturbed[25:] = -values[25:]
        config = small_config(1, 2, seed=4)
        a = run_sosnn(MovementSeries(values), config)
        b = run_sosnn(MovementSeries(perturbed), config)
        np.testing.assert_array_equal(a.ratios[:25], b.ratios[:25])

    def test_fresh_init_mode_reproducible_and_distinct(self):
        ms = normalize(gen_ar1(40, NoiseSpec(seed=5)))
        cold = small_config(1, 2, seed=42, warm_start=False)
        a = run_sosnn(ms, cold)
        b = run_sosnn(ms, cold)
        np.testing.assert_array_equal(a.ratios, b.ratios)
        warm = run_sosnn(ms, small_config(1, 2, seed=42, warm_start=True))
        assert not np.array_equal(a.ratios, warm.ratios)

    def test_ratios_respect_cap(self):
        ms = normalize(gen_ar1(60, NoiseSpec(seed=8)))
        res = run_sosnn(ms, small_config(1, 3, seed=3))
        assert np.abs(res.ratios).max() <= 0.999
        assert np.abs(res.ratios).max() < 1.0

    def test_diagnostics_cover_betting_rounds(self):
        ms = normalize(gen_ar1(30, NoiseSpec(seed=9)))
        res = run_sosnn(ms, small_config(1, 1, seed=1))
        assert len(res.diagnostics) == 25
        assert res.diagnostics[0].iterations == 0  # nothing to fit yet
        assert all(d.iterations <= 10_000 for d in res.diagnostics)

    def test_diagnostics_are_each_rounds_refit_report(self):
        # Replay the run's refits through the public entry point, each from
        # the previous round's weights over that round's completed pairs: the
        # run must list the very reports, max|g| and objective included.
        config = small_config(2, 3, seed=4, warmup=10, max_iterations=80, weight_tolerance=1e-3)
        values = normalize(gen_ar1(40, NoiseSpec(seed=12))).values
        res = run_sosnn(MovementSeries(values), config)
        windows = betting_windows(values, 2, config.warmup)
        weights = NetworkWeights.uniform(config.net, config.init_scale, np.random.default_rng(4))
        replay = [OptimizeReport(0, True, 0.0, 0.0)]
        for completed in range(1, values.size - config.warmup):
            pairs = zip(windows[:completed], values[config.warmup : config.warmup + completed])
            weights, report = optimize_weights(pairs, config, weights)
            replay.append(report)
        assert res.diagnostics == replay
        # Some refits hit the cap and some met the tolerance.
        assert {r.converged for r in replay[1:]} == {True, False}

    def test_warmup_must_cover_window(self):
        with pytest.raises(UsageError, match="warmup"):
            run_sosnn(MovementSeries(np.zeros(30)), small_config(3, 1, warmup=2))

    def test_series_not_longer_than_warmup(self):
        with pytest.raises(UsageError, match="^series of length 5 leaves no rounds after a warmup of 5$"):
            run_sosnn(MovementSeries(np.zeros(5)), small_config(1, 1, warmup=5))

    def test_annealing_schedule_feeds_optimizer(self):
        # A crippled schedule (tiny initial rate) must leave the weights
        # near their init, so the two runs differ.
        ms = normalize(gen_ar1(40, NoiseSpec(seed=5)))
        lively = run_sosnn(ms, small_config(1, 2, seed=6))
        frozen = run_sosnn(
            ms,
            small_config(
                1, 2, seed=6, schedule=AnnealingSchedule(initial_rate=1e-12, decay_steps=5.0)
            ),
        )
        assert not np.array_equal(lively.ratios, frozen.ratios)


class TestReplicateStack:
    """A stack of replicates must reproduce every replicate's run alone, bit
    for bit, however differently the replicates' refits end."""

    @pytest.mark.parametrize("warm_start", [True, False], ids=["warm", "fresh"])
    def test_matches_each_replicate_alone(self, warm_start):
        series = [normalize(gen_ar1(40, NoiseSpec(seed=s))) for s in (1, 2, 3, 4)]
        configs = [
            small_config(2, 3, seed=s, warmup=10, max_iterations=80,
                         weight_tolerance=1e-3, warm_start=warm_start)
            for s in (5, 6, 7, 8)
        ]
        stacked = run_sosnn_replicates(series, configs)
        iterations = []
        for movements, config, result in zip(series, configs, stacked):
            alone = run_sosnn(movements, config)
            np.testing.assert_array_equal(result.ratios, alone.ratios)
            np.testing.assert_array_equal(result.log_capital_path, alone.log_capital_path)
            assert result.checkpoints == alone.checkpoints
            assert result.diagnostics == alone.diagnostics
            iterations.append([d.iterations for d in result.diagnostics])
        # In some rounds the replicates stopped at different steps, some at
        # the cap and some by tolerance, so the stack shrank mid-refit.
        per_round = np.array(iterations).T
        assert sum(len(set(row)) > 1 for row in per_round) >= 5
        assert (per_round == 80).any()
        assert ((per_round > 0) & (per_round < 80)).any()

    def test_non_finite_replicate_fails_alone(self):
        rng = np.random.default_rng(9)
        config = small_config(2, 3, max_iterations=50)
        windows = rng.uniform(-1, 1, (3, 6, 2))
        windows[1, 2, 1] = np.inf
        moves = rng.uniform(-0.5, 0.5, (3, 6, 1))
        w_hidden = rng.uniform(-0.5, 0.5, (3, 3, 2))
        w_out = rng.uniform(-0.5, 0.5, (3, 1, 3))
        with np.errstate(invalid="ignore"):
            hidden, out, outcomes = _ascend(windows, moves, config, w_hidden, w_out)
        assert isinstance(outcomes[1], NumericError)
        assert str(outcomes[1]) == "non-finite objective or gradient at ascent step 0"
        for r in (0, 2):
            alone_hidden, alone_out, (alone,) = _ascend(
                windows[r : r + 1], moves[r : r + 1], config,
                w_hidden[r : r + 1], w_out[r : r + 1],
            )
            assert isinstance(outcomes[r], OptimizeReport)
            assert outcomes[r] == alone
            np.testing.assert_array_equal(hidden[r], alone_hidden[0])
            np.testing.assert_array_equal(out[r], alone_out[0])

    def test_replicates_must_share_settings_and_length(self):
        series = [normalize(gen_ar1(30, NoiseSpec(seed=s))) for s in (1, 2)]
        with pytest.raises(UsageError, match="every setting but the seed"):
            run_sosnn_replicates(series, [small_config(seed=1), small_config(seed=2, warmup=6)])
        with pytest.raises(UsageError, match="one length"):
            run_sosnn_replicates(
                [series[0], normalize(gen_ar1(31, NoiseSpec(seed=3)))],
                [small_config(seed=1), small_config(seed=2)],
            )

    def test_one_config_per_series(self):
        # Either way round, a count mismatch is a usage error, never a
        # silently dropped series or an error from inside numpy.
        series = [normalize(gen_ar1(30, NoiseSpec(seed=s))) for s in (1, 2)]
        for movements, configs in (
            (series, [small_config(seed=1)]),
            (series[:1], [small_config(seed=1), small_config(seed=2)]),
        ):
            with pytest.raises(UsageError, match="replicate series got"):
                run_sosnn_replicates(movements, configs)
