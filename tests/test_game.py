"""Game protocol: the movement rule, the bet check and the log1p capital update
for one asset and for many, warmup, the one length rule and the one look-back
rule, and causality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqbet.errors import DomainError, StrategyViolationError, UsageError
from seqbet.game import (
    MovementSeries,
    _play,
    checkpoint_rounds,
    clamp_ratio,
    run_game,
)
from seqbet.markov import optimize_bucket, run_mkv
from seqbet.network import NetworkConfig, NetworkWeights, log_wealth
from seqbet.nnbp import run_nnbp
from seqbet.portfolio import run_sosnn_portfolio
from seqbet.sosnn import SosnnConfig, run_sosnn

ratios_st = st.floats(-0.99, 0.99, allow_nan=False)
moves_st = st.floats(-1.0, 1.0, allow_nan=False)


class TestMovementSeries:
    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            MovementSeries(np.array([0.0, 1.2]))

    @pytest.mark.parametrize("x", [1.0001, -2.0, float("nan"), float("inf"), 1.0 + 1e-12])
    def test_rejects_bad_movement(self, x):
        # One movement rule behind the series, the network's objective, the
        # MKV refit and the multi-asset panel; DomainError is a UsageError.
        assert issubclass(DomainError, UsageError)
        weights = NetworkWeights.zeros(NetworkConfig(1, 2))
        panel = np.zeros((30, 2))
        panel[10, 1] = x
        config = SosnnConfig(net=NetworkConfig(1, 2), warmup=5)
        for entry in (
            lambda: MovementSeries(np.array([0.1, x])),
            lambda: log_wealth(weights, [[0.1], [0.2]], [0.1, x]),
            lambda: optimize_bucket([0.5, x]),
            lambda: run_sosnn_portfolio(panel, config),
        ):
            with pytest.raises(DomainError, match="movement"):
                entry()

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            MovementSeries(np.array([0.0, np.nan]))

    def test_len(self):
        assert len(MovementSeries([0.1, -0.2])) == 2


class TestRunGame:
    def test_zero_strategy_zero_path(self, rng):
        ms = MovementSeries(rng.uniform(-1, 1, 40))
        res = run_game(lambda n, past: 0.0, ms, warmup=0)
        assert np.array_equal(res.log_capital_path, np.zeros(40))

    def test_warmup_suppresses_betting(self):
        ms = MovementSeries(np.array([1.0, 1.0, 1.0]))
        res = run_game(lambda n, past: 0.5, ms, warmup=2)
        assert res.ratios[0] == res.ratios[1] == 0.0
        np.testing.assert_allclose(
            res.log_capital_path, [0.0, 0.0, math.log(1.5)], atol=1e-12
        )

    def test_constant_ratio_run(self):
        # alpha = 0.1 on (0.5, -0.5): direct evaluation, cross-checked
        ms = MovementSeries(np.array([0.5, -0.5]))
        res = run_game(lambda n, past: 0.1, ms, warmup=0)
        expected = -0.0025031302181185294
        assert res.final_log_capital == pytest.approx(expected, abs=1e-12)
        assert res.final_log_capital == pytest.approx(
            float(np.log1p(res.ratios * ms.values).sum()), abs=1e-12
        )

    def test_short_bet(self):
        # alpha = -0.5 against x = 1 halves the capital, as 1 + alpha * x says.
        res = run_game(lambda n, past: -0.5, MovementSeries(np.array([1.0])), warmup=0)
        assert res.final_log_capital == pytest.approx(math.log(0.5), abs=1e-15)

    @pytest.mark.parametrize("alpha", [1.5, 1.0, -1.0, float("nan")])
    def test_out_of_range_ratio_names_round(self, alpha):
        ms = MovementSeries(np.array([0.1, 0.1, 0.1]))
        with pytest.raises(StrategyViolationError, match="round 2"):
            run_game(lambda n, past: alpha if n == 2 else 0.0, ms, warmup=0)

    def test_path_is_a_left_to_right_log1p_sum(self, rng):
        # Byte for byte: a running math.log1p sum from 0.0. The warmup round
        # over a negative movement gains 0.0 * -0.5 = -0.0, and 0.0 + -0.0
        # starts the path at +0.0.
        xs = rng.uniform(-1, 1, 60)
        xs[0] = -0.5
        bets = rng.uniform(-0.99, 0.99, 60)
        res = run_game(lambda n, past: bets[n - 1], MovementSeries(xs), warmup=1)
        log_k, expected = 0.0, []
        for n, x in enumerate(xs, start=1):
            alpha = float(bets[n - 1]) if n > 1 else 0.0
            log_k += math.log1p(alpha * x)
            expected.append(log_k)
        assert res.log_capital_path.tobytes() == np.array(expected).tobytes()
        assert math.copysign(1.0, res.log_capital_path[0]) == 1.0

    def test_series_not_longer_than_warmup(self):
        # Refused before the strategy is asked for any bet, as is a negative
        # warmup, which would hand it round n <= 0.
        asked = []
        for warmup in (-1, 2, 3):
            with pytest.raises(UsageError):
                run_game(lambda n, past: asked.append(n) or 0.0, MovementSeries([0.1, 0.2]), warmup)
        assert asked == []

    def test_callback_sees_only_the_past(self):
        seen = {}
        ms = MovementSeries(np.array([0.1, -0.2, 0.3, -0.4]))

        def strategy(n, past):
            seen[n] = np.array(past)
            return 0.0

        run_game(strategy, ms, warmup=1)
        assert list(seen) == [2, 3, 4]
        np.testing.assert_array_equal(seen[2], [0.1])
        np.testing.assert_array_equal(seen[4], [0.1, -0.2, 0.3])

    def test_callback_cannot_write_the_past(self):
        ms = MovementSeries(np.array([0.1, -0.2, 0.3, -0.4]))

        def tamper(n, past):
            past[0] = 50.0
            return 0.0

        with pytest.raises(ValueError, match="read-only"):
            run_game(tamper, ms, warmup=1)
        assert ms.values.tolist() == [0.1, -0.2, 0.3, -0.4]
        assert ms.values.flags.writeable

    def test_truncated_replay_matches(self, rng):
        # Perturbing x_m for m >= n never changes alpha_n.
        values = rng.uniform(-1, 1, 30)
        perturbed = values.copy()
        perturbed[20:] = rng.uniform(-1, 1, 10)

        def momentum(n, past):
            return clamp_ratio(0.5 * past[-1])

        full = run_game(momentum, MovementSeries(values), warmup=1)
        other = run_game(momentum, MovementSeries(perturbed), warmup=1)
        np.testing.assert_array_equal(full.ratios[:20], other.ratios[:20])

    @given(st.lists(st.tuples(ratios_st, moves_st), min_size=1, max_size=40))
    @settings(max_examples=50)
    def test_log_path_telescopes(self, pairs):
        ratios = [a for a, _ in pairs]
        ms = MovementSeries(np.array([x for _, x in pairs]))
        res = run_game(lambda n, past: ratios[n - 1], ms, warmup=0)
        prev = 0.0
        for i, (alpha, x) in enumerate(pairs):
            assert res.log_capital_path[i] - prev == pytest.approx(
                math.log1p(alpha * x), abs=1e-12
            )
            prev = res.log_capital_path[i]
        # capital stays positive for any admissible inputs
        assert np.all(np.isfinite(res.log_capital_path))
        product = math.prod(1.0 + a * x for a, x in pairs)
        assert res.final_log_capital == pytest.approx(math.log(product), abs=1e-10)


class TestPlayManyAssets:
    def test_path_matches_the_row_product_loop(self, rng):
        # Byte for byte against a running log1p(float(bet @ x)) sum from 0.0.
        moves = rng.uniform(-1, 1, (300, 2))
        ratios = rng.uniform(-0.49, 0.49, (300, 2))
        ratios[:4] = 0.0
        res = _play(ratios, moves, 4)
        log_k, expected = 0.0, []
        for bet, x in zip(ratios, moves):
            log_k += math.log1p(float(bet @ x))
            expected.append(log_k)
        assert res.log_capital_path.tobytes() == np.array(expected).tobytes()
        assert res.ratios is ratios and res.warmup == 4

    @pytest.mark.parametrize("row", [[0.5, 0.5], [0.25, -0.75], [-1.0, 0.0], [np.nan, 0.0]])
    def test_exposure_of_one_names_round(self, row):
        ratios = np.zeros((6, 2))
        ratios[1] = [0.4, -0.59]
        ratios[3] = row
        ratios[4] = [2.0, 0.0]
        with pytest.raises(StrategyViolationError, match=r"total exposure >= 1 at round 4$"):
            _play(ratios, np.full((6, 2), 0.1), 0)


# Every strategy, as (values, warmup) -> run: a two-input network, or MKV1.
NET = NetworkConfig(2, 3)
STRATEGIES = {
    "sosnn": lambda xs, warmup: run_sosnn(MovementSeries(xs), SosnnConfig(NET, warmup=warmup, seed=3)),
    "portfolio": lambda xs, warmup: run_sosnn_portfolio(
        np.column_stack([xs, -0.5 * xs]), SosnnConfig(NET, warmup=warmup, seed=3)
    ),
    "nnbp": lambda xs, warmup: run_nnbp(
        NetworkWeights.uniform(NET, 0.5, np.random.default_rng(3)), MovementSeries(xs), warmup
    ),
    "mkv1": lambda xs, warmup: run_mkv(MovementSeries(xs), 1, warmup),
}


class TestLengthRule:
    """One rule for every strategy: after a warmup of W, an N-round series
    bets rounds W + 1..N, so it needs W < N."""

    XS = np.array([0.3, -0.2, 0.5, 0.4, -0.6, 0.1, 0.2])

    @pytest.mark.parametrize("play", STRATEGIES.values(), ids=STRATEGIES)
    def test_one_round_after_the_warmup(self, play):
        # The one round bets what a longer run bets there, and is played.
        one, longer = play(self.XS[:4], 3), play(self.XS, 3)
        assert one.betting_rounds == 1
        assert one.ratios.tobytes() == longer.ratios[:4].tobytes()
        assert one.log_capital_path.tobytes() == longer.log_capital_path[:4].tobytes()
        assert np.any(one.ratios[3] != 0.0) and one.final_log_capital != 0.0

    @pytest.mark.parametrize("play", STRATEGIES.values(), ids=STRATEGIES)
    @pytest.mark.parametrize("n", [2, 3])
    def test_no_round_after_the_warmup(self, play, n):
        message = f"^series of length {n} leaves no rounds after a warmup of 3$"
        with pytest.raises(UsageError, match=message):
            play(self.XS[:n], 3)


class TestLookBackRule:
    """One rule and one text for every strategy: a bet that reads the L
    movements before its round needs a warmup of at least L rounds."""

    PLAYS = {
        **{name: STRATEGIES[name] for name in ("sosnn", "portfolio", "nnbp")},
        "mkv2": lambda xs, warmup: run_mkv(MovementSeries(xs), 2, warmup),
    }

    @pytest.mark.parametrize("play", PLAYS.values(), ids=PLAYS)
    def test_one_text(self, play):
        with pytest.raises(UsageError, match="^a look-back of 2 rounds does not fit in a warmup of 1$"):
            play(TestLengthRule.XS, 1)


def _portfolio_with_warmup(xs, warmup):
    config = SosnnConfig(NET, seed=3)
    config.warmup = warmup  # set after the config's own check, so the runner's is reached
    return run_sosnn_portfolio(np.column_stack([xs, -0.5 * xs]), config)


class TestWarmupRule:
    """One check and one text for a negative warmup, whichever entry point
    meets it first."""

    PLAYS = {
        "run_game": lambda xs, warmup: run_game(lambda n, past: 0.0, MovementSeries(xs), warmup),
        "mkv0": lambda xs, warmup: run_mkv(MovementSeries(xs), 0, warmup),
        "mkv2": lambda xs, warmup: run_mkv(MovementSeries(xs), 2, warmup),
        "nnbp": STRATEGIES["nnbp"],
        "sosnn_config": lambda xs, warmup: SosnnConfig(NET, warmup=warmup),
        "portfolio": _portfolio_with_warmup,
    }

    @pytest.mark.parametrize("play", PLAYS.values(), ids=PLAYS)
    def test_one_text(self, play):
        with pytest.raises(UsageError, match="^warmup must be nonnegative, got -1$"):
            play(TestLengthRule.XS, -1)


class TestCheckpoints:
    def test_standard_marks(self):
        assert checkpoint_rounds(300) == [100, 200, 300]

    def test_short_run_uses_final_round(self):
        assert checkpoint_rounds(50) == [50]

    def test_intermediate(self):
        assert checkpoint_rounds(250) == [100, 200, 250]

    def test_run_game_checkpoint_values(self, rng):
        ms = MovementSeries(rng.uniform(-0.5, 0.5, 320))
        res = run_game(lambda n, past: 0.1, ms, warmup=20)
        assert set(res.checkpoints) == {100, 200, 300}
        assert res.checkpoints[100] == res.log_capital_path[119]
        assert res.checkpoints[300] == res.log_capital_path[319]
