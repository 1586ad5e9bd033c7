"""Acceptance suite: one test per criterion, one printed verdict line each.

The heavyweight comparison grid (criteria 3 and 9) runs once as a module
fixture; everything else is self-contained. Verdict lines are written with
capture suspended, so they appear inline even under plain `pytest -v`.
"""

import sys
import time

import numpy as np
import pytest

from conftest import fd_gradient, random_instance, relative_error, squared_error_gradient
from seqbet.experiments import parse_config, run_backtest, run_simulate
from seqbet.game import RATIO_CAP, MovementSeries, run_game
from seqbet.markov import optimize_bucket, run_mkv
from seqbet.network import (
    NetworkConfig,
    NetworkWeights,
    forward,
    log_wealth,
    log_wealth_gradient,
)
from seqbet.nnbp import NnbpConfig, run_nnbp, train
from seqbet.portfolio import PortfolioWeights, rescale_exposure, run_sosnn_portfolio
from seqbet.sosnn import SosnnConfig, run_sosnn

BASE_SEED = 20210601

GRID_CONFIG = f"""
[experiment]
mode = simulate
seed = {BASE_SEED}
rounds = 300
warmup = 20
replicates = 5
strategies = sosnn, mkv0, mkv1

[data]
generator = ar1

[sosnn]
input_counts = 1, 2, 3
hidden_counts = 1, 2, 3, 4, 5, 6, 7, 8
max_iterations = 10000
warm_start = true
"""

ARMA_CONFIG = f"""
[experiment]
mode = simulate
seed = {BASE_SEED}
rounds = 300
warmup = 20
replicates = 5
strategies = mkv1, mkv2

[data]
generator = arma21
"""


@pytest.fixture
def verdict(capfd):
    def _write(criterion: str, passed: bool, detail: str) -> None:
        line = f"\n[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} ({detail})\n"
        with capfd.disabled():
            sys.stdout.write(line)
            sys.stdout.flush()

    return _write


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    """The full comparison grid: 3x8 network cells plus MKV0/MKV1, 5 replicates."""
    tmp = tmp_path_factory.mktemp("grid")
    (tmp / "grid.ini").write_text(GRID_CONFIG)
    config = parse_config(tmp / "grid.ini")
    start = time.monotonic()
    report = run_simulate(config, tmp / "out", jobs=2)
    wall = time.monotonic() - start
    return report, wall, tmp / "out"


def test_criterion_1_gradient_correctness(rng, verdict):
    worst_wealth, worst_bp = 0.0, 0.0
    for _ in range(100):
        config, weights, windows, moves = random_instance(rng, history_len=10)

        def wealth(hidden, output):
            return log_wealth(NetworkWeights(hidden, output), windows, moves)

        grad_hidden, grad_out = log_wealth_gradient(weights, windows, moves)
        fd_hidden, fd_output = fd_gradient(
            wealth, [weights.hidden_weights, weights.output_weights], h=1e-6
        )
        worst_wealth = max(
            worst_wealth,
            relative_error(grad_hidden, fd_hidden).max(),
            relative_error(grad_out, fd_output).max(),
        )

        window = rng.uniform(-1.0, 1.0, config.input_count)
        target = int(rng.integers(-1, 2))

        def bp_error(hidden, output):
            out = forward(window, NetworkWeights(hidden, output))
            return 0.5 * (target - out) ** 2

        bp_hidden, bp_out, _ = squared_error_gradient(weights, window, target)
        fd_hidden, fd_output = fd_gradient(
            bp_error, [weights.hidden_weights, weights.output_weights], h=1e-6
        )
        worst_bp = max(
            worst_bp,
            relative_error(bp_hidden, fd_hidden).max(),
            relative_error(bp_out, fd_output).max(),
        )
    passed = worst_wealth < 1e-5 and worst_bp < 1e-5
    verdict(
        "1 gradient-correctness",
        passed,
        f"worst rel err: wealth {worst_wealth:.2e}, backprop {worst_bp:.2e} over 100 draws",
    )
    assert passed


def test_criterion_2_markov_oracle_equivalence(rng, verdict):
    grid = np.linspace(-RATIO_CAP, RATIO_CAP, 100_001)
    worst_alpha, worst_objective = 0.0, 0.0
    for _ in range(100):
        moves = rng.uniform(-1.0, 1.0, int(rng.integers(1, 51)))
        alpha = optimize_bucket(moves)
        objective = np.log1p(np.outer(grid, moves)).sum(axis=1)
        best = int(np.argmax(objective))
        worst_alpha = max(worst_alpha, abs(alpha - grid[best]))
        worst_objective = max(
            worst_objective, objective[best] - np.log1p(alpha * moves).sum()
        )
    passed = worst_alpha < 1e-3 and worst_objective < 1e-6
    verdict(
        "2 markov-oracle-equivalence",
        passed,
        f"worst dev: alpha {worst_alpha:.2e}, objective {worst_objective:.2e} over 100 histories",
    )
    assert passed


def test_criterion_3_ar1_qualitative_reproduction(grid_run, verdict):
    report, _, _ = grid_run
    mkv0 = report.cell("mkv0").means[300]
    mkv1 = report.cell("mkv1").means[300]
    sosnn_l1 = {
        hid: report.cell(f"sosnn_1x{hid}").means[300]
        for hid in range(1, 6)
        if report.cell(f"sosnn_1x{hid}").ok
    }
    best_hid, best = max(sosnn_l1.items(), key=lambda kv: kv[1])
    part_a = mkv1 - mkv0 >= 5.0
    part_b = -6.0 <= mkv0 <= 6.0
    part_c = best > 0.0
    passed = part_a and part_b and part_c
    verdict(
        "3 ar1-table-reproduction",
        passed,
        f"MKV1 {mkv1:.3f} vs MKV0 {mkv0:.3f}; best L=1 cell M={best_hid} at {best:.3f}",
    )
    assert part_a, f"MKV1 {mkv1} must beat MKV0 {mkv0} by >= 5 nats"
    assert part_b, f"MKV0 {mkv0} outside [-6, 6]"
    assert part_c, f"best L=1 network cell {best} not positive"


def test_criterion_4_arma_ordering(tmp_path, verdict):
    (tmp_path / "arma.ini").write_text(ARMA_CONFIG)
    config = parse_config(tmp_path / "arma.ini")
    report = run_simulate(config, tmp_path / "out", jobs=2)
    mkv1 = report.cell("mkv1").means[300]
    mkv2 = report.cell("mkv2").means[300]
    passed = mkv2 > mkv1
    verdict("4 arma-ordering", passed, f"MKV2 {mkv2:.3f} > MKV1 {mkv1:.3f}")
    assert passed


def test_criterion_5_solvency_and_bounds(grid_run, rng, verdict):
    # 10^6 randomized capital updates: half single-asset rounds of the game
    # loop, whose log capital path must stay finite, and half portfolio
    # vectors passed through the exposure rescale.
    steps = 500_000
    alphas = rng.uniform(-RATIO_CAP, RATIO_CAP, steps).tolist()
    moves = rng.uniform(-1.0, 1.0, steps)
    played = run_game(lambda n, past: alphas[n - 1], MovementSeries(moves), warmup=0)
    single_ok = bool(np.isfinite(played.log_capital_path).all())
    assets = rng.integers(1, 6, steps)
    portfolio_ok = True
    for i in range(steps):
        p = int(assets[i])
        raw = rng.uniform(-1.0, 1.0, p) * 2.0
        ratios = rescale_exposure(raw)
        x = rng.uniform(-1.0, 1.0, p)
        if not (np.abs(ratios).sum() < 1.0 and 1.0 + ratios @ x > 0.0):
            portfolio_ok = False
            break

    # every network-strategy ratio from the grid artifacts stays inside (-1, 1)
    _, _, out_dir = grid_run
    worst_ratio = 0.0
    for series in sorted((out_dir / "series").glob("sosnn_*.csv")):
        rows = series.read_text().strip().split("\n")[1:]
        worst_ratio = max(worst_ratio, max(abs(float(r.split(",")[1])) for r in rows))
    toy = MovementSeries(0.9 * np.resize([1.0, -1.0], 42))
    weights, _ = train(toy, NnbpConfig(net=NetworkConfig(1, 2), learning_rate=0.1, seed=13))
    nnbp_run = run_nnbp(weights, toy, warmup=2)
    worst_ratio = max(worst_ratio, np.abs(nnbp_run.ratios).max())

    passed = single_ok and portfolio_ok and worst_ratio < 1.0
    verdict(
        "5 solvency-and-bounds",
        passed,
        f"1e6 steps positive; max |ratio| {worst_ratio:.6f}",
    )
    assert passed


def test_criterion_6_nnbp_learnability(verdict):
    toy = MovementSeries(0.9 * np.resize([1.0, -1.0], 42))
    config = NnbpConfig(net=NetworkConfig(1, 2), learning_rate=0.1, seed=13)
    weights, diagnostics = train(toy, config)
    run = run_nnbp(weights, toy, warmup=2)
    gains = np.diff(np.concatenate([[0.0], run.log_capital_path[2:]]))
    passed = (
        diagnostics.converged
        and diagnostics.final_error < 1e-2
        and diagnostics.steps_used <= config.max_steps
        and bool(np.all(gains > 0.0))
    )
    verdict(
        "6 nnbp-learnability",
        passed,
        f"error {diagnostics.final_error:.2e} after {diagnostics.steps_used} steps; "
        f"min per-round gain {gains.min():.2e}",
    )
    assert passed


def test_criterion_7_determinism(tmp_path, verdict):
    sim_cfg = tmp_path / "sim.ini"
    sim_cfg.write_text(
        "[experiment]\nmode = simulate\nseed = 5\nrounds = 40\nwarmup = 5\n"
        "replicates = 2\nstrategies = sosnn, mkv0\n\n[data]\ngenerator = arma21\n\n"
        "[sosnn]\ninput_counts = 1\nhidden_counts = 2\n"
    )
    import datetime

    rng = np.random.default_rng(3)
    start = datetime.date(2020, 1, 1)
    price = 100.0
    lines = []
    for i in range(130):
        price = max(1.0, price + rng.normal(0, 1))
        lines.append(f"{(start + datetime.timedelta(days=i)).isoformat()},{price:.4f}")
    (tmp_path / "prices.csv").write_text("\n".join(lines) + "\n")
    bt_cfg = tmp_path / "bt.ini"
    bt_cfg.write_text(
        "[experiment]\nmode = backtest\nseed = 5\nwarmup = 6\nstrategies = mkv1, nnbp\n\n"
        "[data]\nprice_file = prices.csv\n"
        "training_start = 2020-01-02\ntraining_end = 2020-02-10\n"
        "normalization_start = 2020-01-02\nnormalization_end = 2020-02-10\n"
        "investing_start = 2020-02-20\ninvesting_end = 2020-04-19\n\n"
        "[nnbp]\ninput_count = 3\nhidden_count = 4\nmax_steps = 20000\n"
    )

    def tree(root):
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    run_simulate(parse_config(sim_cfg), tmp_path / "s1")
    run_simulate(parse_config(sim_cfg), tmp_path / "s2")
    run_backtest(parse_config(bt_cfg), tmp_path / "b1")
    run_backtest(parse_config(bt_cfg), tmp_path / "b2")
    sim_same = tree(tmp_path / "s1") == tree(tmp_path / "s2")
    bt_same = tree(tmp_path / "b1") == tree(tmp_path / "b2")
    passed = sim_same and bt_same
    verdict(
        "7 determinism",
        passed,
        f"simulate identical: {sim_same}; backtest identical: {bt_same}",
    )
    assert passed


def test_criterion_8_degenerate_cases(rng, verdict):
    zeros = MovementSeries(np.zeros(40))
    sosnn_run = run_sosnn(zeros, SosnnConfig(net=NetworkConfig(1, 2), warmup=5, seed=1))
    nnbp_weights, _ = train(zeros, NnbpConfig(net=NetworkConfig(1, 2), seed=1))
    nnbp_run = run_nnbp(nnbp_weights, zeros, warmup=5)
    mkv_runs = [run_mkv(zeros, order, warmup=5) for order in (0, 1, 2)]
    panel_run = run_sosnn_portfolio(
        np.zeros((40, 2)), SosnnConfig(net=NetworkConfig(1, 2), warmup=5, seed=1)
    )
    zero_paths = (
        not sosnn_run.log_capital_path.any()
        and not nnbp_run.log_capital_path.any()
        and not any(r.log_capital_path.any() for r in mkv_runs)
        and not panel_run.log_capital_path.any()
    )

    config, _, windows, moves = random_instance(rng, 2, 3)
    origin = NetworkWeights.zeros(config)
    wealth_hidden, wealth_out = log_wealth_gradient(origin, windows, moves)
    bp_hidden, bp_out, _ = squared_error_gradient(origin, rng.uniform(-1, 1, 2), 1)
    port_origin = PortfolioWeights(np.zeros((3, 2)), np.zeros((2, 3)))
    port_hidden, port_out = log_wealth_gradient(
        port_origin, windows, np.column_stack([moves, -moves])
    )
    origin_stationary = (
        np.abs(wealth_hidden).max() < 1e-15
        and np.abs(wealth_out).max() < 1e-15
        and np.abs(bp_hidden).max() < 1e-15
        and np.abs(bp_out).max() < 1e-15
        and np.abs(port_hidden).max() < 1e-15
        and np.abs(port_out).max() < 1e-15
    )

    empty_bucket = optimize_bucket([]) == 0.0
    # A down-context round whose bucket holds no past data must bet 0.
    values = np.concatenate([np.full(11, 0.5), [-0.5], np.full(5, 0.5)])
    run = run_mkv(MovementSeries(values), 1, warmup=10)
    empty_bucket = empty_bucket and run.ratios[12] == 0.0

    nonneg = MovementSeries(np.abs(rng.uniform(0, 1, 60)))
    path0 = run_mkv(nonneg, 0, warmup=5).log_capital_path
    path1 = run_mkv(nonneg, 1, warmup=5).log_capital_path
    degenerate_equal = bool(np.max(np.abs(path0 - path1)) <= 1e-12)

    passed = zero_paths and origin_stationary and empty_bucket and degenerate_equal
    verdict(
        "8 degenerate-cases",
        passed,
        f"zero-paths {zero_paths}, origin-stationary {origin_stationary}, "
        f"empty-bucket {empty_bucket}, MKV1==MKV0 {degenerate_equal}",
    )
    assert passed


def test_criterion_9_desk_scale_performance(grid_run, verdict):
    report, wall, _ = grid_run
    slowest = max(report.cells, key=lambda c: c.seconds)
    network_cells = [c for c in report.cells if c.label.startswith("sosnn_")]
    passed = (
        wall < 1800.0
        and slowest.seconds < 120.0
        and len(network_cells) == 24
        and all(report.cell(f"sosnn_1x{h}").ok for h in range(1, 6))
    )
    verdict(
        "9 desk-scale-performance",
        passed,
        f"grid wall {wall:.1f}s < 1800s; slowest cell {slowest.label} "
        f"{slowest.seconds:.1f}s < 120s",
    )
    assert passed
