"""Bucketed proportional betting: indexing, the 1-D argmax, and full runs."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqbet import markov
from seqbet.data import NoiseSpec, gen_ar1, gen_arma21, normalize
from seqbet.errors import UsageError
from seqbet.experiments import derive_seed
from seqbet.game import RATIO_CAP, MovementSeries
from seqbet.markov import MarkovOrder, bucket_index, optimize_bucket, run_mkv

TWO_POINT_ARGMAX = 0.625  # root of 0.8/(1+0.8a) = 0.4/(1-0.4a)


def reference_maximize(moves, tol=1e-10):
    """The plain slope bisection the solver must reproduce bit for bit.

    Two endpoint tests, then one full slope evaluation per halving of
    [-RATIO_CAP, RATIO_CAP] until the bracket is narrower than `tol`.
    """

    def slope(alpha):
        return float((moves / (1.0 + alpha * moves)).sum())

    lo, hi = -RATIO_CAP, RATIO_CAP
    if slope(hi) >= 0.0:
        return hi
    if slope(lo) <= 0.0:
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# Around numpy's pairwise-summation blocks (8-way unrolling, 128-element leaves).
PAIRWISE_SIZES = (1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257, 600)


@st.composite
def bucket_movements(draw):
    """Nonzero bucket histories of length 1-600 in a few shapes.

    `uniform` gives interior roots; `skewed` puts the root near a cap (a few
    losses among many gains, or the mirror image), `one_signed` is clamped to
    a cap, `lattice` is full of zeros and exact +/-1, and a tiny scale makes
    the curvature underflow.
    """
    n = draw(st.one_of(st.sampled_from(PAIRWISE_SIZES), st.integers(1, 600)))
    kind = draw(st.sampled_from(["uniform", "skewed", "one_signed", "lattice"]))
    scale = draw(st.sampled_from([1.0, 1.0, 1e-3, 1e-9, 1e-170]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        moves = rng.uniform(-1.0, 1.0, n)
    elif kind == "skewed":
        losing = rng.random(n) < draw(st.floats(0.0, 0.3))
        moves = np.where(losing, -rng.uniform(0.5, 1.0, n), rng.uniform(0.0, 1.0, n))
    elif kind == "one_signed":
        moves = rng.uniform(0.0, 1.0, n)
    else:
        moves = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], n)
    moves = draw(st.sampled_from([1.0, -1.0])) * scale * moves
    if not moves.any():
        moves[0] = scale
    return moves


def grid_argmax(moves, points=100_001):
    """Independent oracle: dense grid search over the clamped interval."""
    grid = np.linspace(-RATIO_CAP, RATIO_CAP, points)
    objective = np.log1p(np.outer(grid, moves)).sum(axis=1)
    best = int(np.argmax(objective))
    return float(grid[best]), float(objective[best])


class TestBucketIndex:
    def test_zero_counts_as_up(self):
        assert bucket_index([0.0], 1) == 0

    def test_order2_plus_minus(self):
        assert bucket_index([0.3, -0.1], 2) == 1

    def test_order2_minus_minus(self):
        assert bucket_index([-0.2, -0.2], 2) == 3

    def test_order2_full_map(self):
        assert bucket_index([0.1, 0.1], 2) == 0
        assert bucket_index([-0.1, 0.1], 2) == 2

    def test_order0(self):
        assert bucket_index([], 0) == 0

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_every_context(self, order):
        # The rule, written out: a sign below 0 is "-", zero and NaN count as
        # "+", and the newest (last) movement is bit 0.
        for ctx in itertools.product([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, np.nan], repeat=order):
            expected = sum(1 << (order - 1 - i) for i, v in enumerate(ctx) if v < 0)
            assert bucket_index(ctx, order) == expected

    def test_wrong_context_length(self):
        with pytest.raises(UsageError):
            bucket_index([0.1], 2)

    def test_bad_order(self):
        with pytest.raises(UsageError):
            MarkovOrder(3)

    def test_bucket_count(self):
        assert [MarkovOrder(k).bucket_count for k in (0, 1, 2)] == [1, 2, 4]

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_precomputed_indices_match(self, order, rng):
        for n in (1, 2, 3, 40):
            xs = rng.choice([-0.5, -0.0, 0.0, 0.25], n)
            index = markov._bucket_indices(xs, order)
            assert index.shape == (n + 1,) and not index[: order + 1].any()
            for k in range(order + 1, n + 1):
                assert index[k] == bucket_index(xs[k - 1 - order : k - 1], order)


class TestOptimizeBucket:
    def test_symmetric_movements_cancel(self):
        assert abs(optimize_bucket([0.5, -0.5])) < 1e-9

    def test_two_point_closed_form(self):
        alpha = optimize_bucket([0.8, -0.4])
        assert alpha == pytest.approx(TWO_POINT_ARGMAX, abs=1e-9)
        grid_alpha, _ = grid_argmax(np.array([0.8, -0.4]))
        assert abs(alpha - grid_alpha) < 1e-3

    def test_single_signed_history_clamps(self):
        assert optimize_bucket([0.5, 0.5]) == RATIO_CAP
        assert optimize_bucket([-0.25]) == -RATIO_CAP

    @pytest.mark.parametrize("moves", [[], [0.0], [-0.0, 0.0], [0.0, 0.0]])
    def test_empty_and_all_zero(self, moves):
        assert optimize_bucket(moves) == 0.0

    def test_grid_oracle_agreement(self, rng):
        for _ in range(25):
            moves = rng.uniform(-1, 1, int(rng.integers(1, 51)))
            alpha = optimize_bucket(moves)
            grid_alpha, grid_best = grid_argmax(moves)
            assert abs(alpha - grid_alpha) < 1e-3
            assert np.log1p(alpha * moves).sum() >= grid_best - 1e-6

    def test_strict_concavity_at_solution(self, rng):
        for _ in range(25):
            moves = rng.uniform(-1, 1, int(rng.integers(1, 30)))
            if not moves.any():
                continue
            alpha = optimize_bucket(moves)
            second = -(moves**2 / (1.0 + alpha * moves) ** 2).sum()
            assert second < 0.0

    def test_rejects_out_of_range_movements(self):
        with pytest.raises(UsageError):
            optimize_bucket([1.5])

    @pytest.mark.parametrize(
        "moves",
        [
            [float("nan")],
            [0.5, float("nan")],
            [float("inf")],
            [float("-inf")],
            [-0.2, float("-inf")],
            [np.nextafter(1.0, 2.0)],
            [0.5, -np.nextafter(1.0, 2.0)],
        ],
    )
    def test_rejects_non_finite_movements(self, moves):
        with pytest.raises(UsageError):
            optimize_bucket(moves)

    def test_rejects_non_vector(self):
        with pytest.raises(UsageError):
            optimize_bucket([[0.5, -0.2]])


def mkv_series():
    """Series for the `run_mkv` checks: 2000 rounds of each generator at seeds
    1, 3 and 7; one with runs of exact-zero movements; and one whose long
    one-signed stretch holds each bucket at a cap before it leaves."""
    series = {
        f"{gen.__name__}-{seed}": normalize(gen(2000, NoiseSpec(seed=seed)))
        for gen in (gen_ar1, gen_arma21)
        for seed in (1, 3, 7)
    }
    rng = np.random.default_rng(5)
    zeros = normalize(gen_arma21(600, NoiseSpec(seed=5))).values
    zeros[:30] = 0.0
    zeros[rng.random(600) < 0.3] = 0.0
    series["zeros"] = MovementSeries(zeros)
    series["cap-stretch"] = MovementSeries(
        np.concatenate([rng.uniform(0.0, 1.0, 300), rng.uniform(-1.0, 1.0, 300)])
    )
    return series


class TestSolverMatchesBisection:
    """The certified-sign solver returns the plain bisection's double exactly."""

    @pytest.fixture
    def slope_points(self, monkeypatch):
        """Every point the solver evaluates the slope at, in order."""
        points = []
        slope = markov._slope

        def recorded(moves, alpha, terms):
            points.append(alpha)
            return slope(moves, alpha, terms)

        monkeypatch.setattr(markov, "_slope", recorded)
        return points

    @given(bucket_movements())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_reference(self, moves):
        assert optimize_bucket(moves).hex() == reference_maximize(moves).hex()

    @given(bucket_movements(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_for_any_start(self, moves, data):
        root = reference_maximize(moves)
        start = data.draw(
            st.one_of(
                st.sampled_from([0.0, RATIO_CAP, -RATIO_CAP, 5.0, -5.0]),
                st.floats(-RATIO_CAP, RATIO_CAP),
                st.sampled_from(
                    [root, np.nextafter(root, -np.inf), np.nextafter(root, np.inf)]
                ),
            )
        )
        assert optimize_bucket(moves, start=start).hex() == root.hex()

    @pytest.mark.parametrize("start", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_start_is_only_a_hint(self, start, rng):
        for moves in (rng.uniform(-1.0, 1.0, 50), np.array([0.5, 0.5]), np.array([-0.25])):
            assert optimize_bucket(moves, start=start).hex() == reference_maximize(moves).hex()

    def test_start_at_the_cap_it_keeps_costs_one_pass(self, slope_points):
        assert optimize_bucket([0.5, 0.5], start=RATIO_CAP) == RATIO_CAP
        assert optimize_bucket([-0.25], start=-RATIO_CAP) == -RATIO_CAP
        assert slope_points == [RATIO_CAP, -RATIO_CAP]

    @pytest.mark.parametrize("start", [-5.0, -RATIO_CAP, 0.0, 0.5, RATIO_CAP])
    @pytest.mark.parametrize("scale", [1e-20, 1e-170])  # S' nonzero / underflowed
    def test_slope_exactly_zero_everywhere(self, start, scale):
        # Every computed slope is 0, so plain bisection's hi test passes; a
        # zero slope must not count as a certificate against it.
        moves = np.array([scale, -scale])
        assert reference_maximize(moves) == RATIO_CAP
        assert optimize_bucket(moves, start=start) == RATIO_CAP

    def test_start_at_an_exact_root_is_kept(self, slope_points):
        # S(0) is exactly 0 here, so 0 certifies the upper side of the root;
        # one probe below it and the hi test decide every midpoint.
        moves = np.array([0.5, -0.5])
        assert optimize_bucket(moves).hex() == reference_maximize(moves).hex()
        assert len(slope_points) == 3

    @pytest.mark.parametrize("start, passes", [(RATIO_CAP, 10), (0.0, 11)])
    def test_refit_leaving_its_cap_reaches_the_root(self, slope_points, start, passes):
        # `run_mkv` refits this order-0 bucket (round 195 of a seed-12
        # `arma21_long` series) from the cap it leaves. Newton nears the root
        # from above in short steps; too few of them leave the replay to
        # bisect from the full interval. From 0 the first step lands on the cap.
        xs = normalize(gen_arma21(2520, NoiseSpec(seed=derive_seed(12, 1, 0)))).values
        moves = xs[:194]
        assert optimize_bucket(moves, start=start).hex() == reference_maximize(moves).hex()
        assert len(slope_points) <= passes

    @pytest.mark.parametrize("n", PAIRWISE_SIZES)
    def test_pairwise_block_sizes(self, n, rng):
        for _ in range(20):
            moves = rng.uniform(-1.0, 1.0, n)
            assert optimize_bucket(moves).hex() == reference_maximize(moves).hex()

    def test_roots_near_the_caps(self):
        # One loss of -1 among k gains of +1 puts the root at (k-1)/(k+1).
        for k in (2, 10, 500, 1998, 1999, 2000, 5000):
            moves = np.array([1.0] * k + [-1.0])
            for signed in (moves, -moves):
                assert optimize_bucket(signed).hex() == reference_maximize(signed).hex()

    @pytest.mark.parametrize("name", list(mkv_series()))
    def test_run_mkv_ratios_match_reference_solver(self, name, monkeypatch):
        series = mkv_series()[name]
        fast = [run_mkv(series, order, warmup=20).ratios for order in (0, 1, 2)]
        # `run_mkv` passes a predicted root as the start; plain bisection has
        # no use for it.
        monkeypatch.setattr(
            markov, "_maximize_log_wealth", lambda moves, start=0.0: reference_maximize(moves)
        )
        for order, ratios in zip((0, 1, 2), fast):
            slow = run_mkv(series, order, warmup=20).ratios
            assert ratios.tobytes() == slow.tobytes()

    def test_warm_start_saves_slope_passes(self, slope_points, monkeypatch):
        # A deterministic count, so losing the predicted start fails here.
        series = normalize(gen_arma21(2000, NoiseSpec(seed=7)))

        def run_all():
            slope_points.clear()
            ratios = [run_mkv(series, order, warmup=20).ratios.tobytes() for order in (0, 1, 2)]
            return len(slope_points), ratios

        warm, warm_ratios = run_all()
        # 13256 from each bucket's last ratio, the start before predictions.
        assert warm == 11429
        optimize = markov.optimize_bucket
        monkeypatch.setattr(markov, "optimize_bucket", lambda moves, start=0.0: optimize(moves))
        cold, cold_ratios = run_all()
        assert warm_ratios == cold_ratios
        assert warm <= 0.7 * cold


class TestBucketDecomposition:
    @given(st.integers(0, 2), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bucket_objectives_sum_to_total(self, order, seed):
        # Splitting the log-wealth sum by sign context is exact for any
        # assignment of per-bucket ratios.
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-1, 1, 40)
        ratios = rng.uniform(-0.9, 0.9, 2**order)
        total = 0.0
        by_bucket = np.zeros(2**order)
        for k in range(order + 1, 41):
            b = bucket_index(xs[k - 1 - order : k - 1], order)
            total += np.log1p(ratios[b] * xs[k - 1])
            by_bucket[b] += np.log1p(ratios[b] * xs[k - 1])
        assert by_bucket.sum() == pytest.approx(total, abs=1e-12)


class TestRunMkv:
    def test_zero_movements_zero_path(self):
        ms = MovementSeries(np.zeros(30))
        res = run_mkv(ms, 0, warmup=5)
        assert not res.log_capital_path.any()

    def test_nonnegative_series_reduces_order1_to_order0(self, rng):
        values = np.abs(rng.uniform(0, 1, 60))
        ms = MovementSeries(values)
        path0 = run_mkv(ms, 0, warmup=5).log_capital_path
        path1 = run_mkv(ms, 1, warmup=5).log_capital_path
        np.testing.assert_allclose(path0, path1, atol=1e-12)

    def test_deterministic(self, rng):
        ms = MovementSeries(rng.uniform(-1, 1, 50))
        a = run_mkv(ms, 2, warmup=10)
        b = run_mkv(ms, 2, warmup=10)
        np.testing.assert_array_equal(a.ratios, b.ratios)
        np.testing.assert_array_equal(a.log_capital_path, b.log_capital_path)

    def test_symmetric_iid_series_stays_near_zero(self):
        # AR coefficient 0 reduces the generator to i.i.d. noise; a single
        # unconditioned ratio has no edge there, so the final log capital
        # stays in a loose band around zero.
        noise = NoiseSpec(seed=20210608).draw(320)
        ms = normalize(noise)
        res = run_mkv(ms, 0, warmup=20)
        assert abs(res.final_log_capital) < 6.0

    def test_warmup_must_cover_order(self):
        with pytest.raises(UsageError):
            run_mkv(MovementSeries(np.zeros(30)), 2, warmup=1)

    def test_series_too_short(self):
        with pytest.raises(UsageError):
            run_mkv(MovementSeries(np.zeros(5)), 0, warmup=5)

    def test_bets_follow_bucket_optimum(self):
        # On a deterministic (+, -, +, -, ...) series every post-up movement
        # is down and every post-down movement is up, so order-1 bets must be
        # short after up days and long after down days once each bucket has
        # at least one observation.
        values = np.tile([0.5, -0.5], 30)
        res = run_mkv(MovementSeries(values), 1, warmup=4)
        for i in range(4, 60):
            expected_sign = -1.0 if values[i - 1] >= 0 else 1.0
            assert res.ratios[i] * expected_sign > 0.9  # clamped near the cap

    def test_truncated_replay_matches(self, rng):
        values = rng.uniform(-1, 1, 50)
        perturbed = values.copy()
        perturbed[30:] = rng.uniform(-1, 1, 20)
        a = run_mkv(MovementSeries(values), 1, warmup=5)
        b = run_mkv(MovementSeries(perturbed), 1, warmup=5)
        np.testing.assert_array_equal(a.ratios[:30], b.ratios[:30])

    # Per order, the bucket size of each refit in call order, and the SHA-256
    # of the space-joined `float.hex` of each refit's start ratio.
    REFITS = {
        0: ([4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23],
            "7cd5fc402076d1d95192b83d7422475a82da56b45030dbc3997864bd9f3052ed"),
        1: ([1, 2, 3, 4, 5, 6, 7, 8, 2, 3, 4, 9, 5, 10, 6, 7, 11, 12, 13, 14],
            "5687d631f97ca73b0b426419f92cf45568fe18913db4c81c1905fef6b2350c7e"),
        2: ([1, 2, 3, 4, 5, 6, 1, 1, 2, 1, 2, 2, 3, 3, 3, 7, 8, 9],
            "9ddad5ac1257cab128bc5a154e9f43e92d1208068b3c356bdecaa7720a158ee7"),
    }

    @pytest.mark.parametrize("order", (0, 1, 2))
    def test_refit_sizes_and_starts_are_pinned(self, order, monkeypatch):
        # Which refits run, on how many movements, and from which start: a
        # refit whose bucket gained no movement is skipped, and each start is
        # the bucket's last ratio (0 before its first refit) moved by one
        # Newton step with the curvature carried from its last refit. The
        # starts only choose where the solver evaluates the slope; the ratio
        # bytes are pinned by the reference-solver test and the golden digests.
        calls = []
        optimize = markov.optimize_bucket

        def recording(moves, start=0.0):
            calls.append((len(moves), start))
            return optimize(moves, start=start)

        monkeypatch.setattr(markov, "optimize_bucket", recording)
        run_mkv(normalize(gen_ar1(24, NoiseSpec(seed=4))), order, warmup=4)
        sizes, digest = self.REFITS[order]
        assert [size for size, _ in calls] == sizes
        starts = " ".join(float(start).hex() for _, start in calls)
        assert hashlib.sha256(starts.encode()).hexdigest() == digest
        assert calls[0][1] == 0.0
