"""The module attributes that the benchmark in `perfbench/` wraps or calls.

`perfbench/tracing.py` and `perfbench/stability.py` patch attributes of
seqbet's modules, and a patch of a missing name is skipped silently, so a
renamed or no longer called attribute would make a per-layer metric read 0
instead of failing. These tests pin each seam the benchmark relies on.
"""

import numpy as np
import pytest

from seqbet import experiments, markov, nnbp, portfolio, sosnn
from seqbet.data import NoiseSpec, gen_ar1, normalize
from seqbet.network import NetworkConfig, NetworkWeights
from seqbet.sosnn import OptimizeReport, SosnnConfig, optimize_weights


@pytest.mark.parametrize(
    "module, name",
    [
        (sosnn, "NetworkWeights"),
        (sosnn, "run_game"),
        (nnbp, "run_game"),
        (markov, "run_game"),
        (markov, "optimize_bucket"),
        (portfolio, "PortfolioWeights"),
        (portfolio, "_optimize_portfolio"),
        (portfolio, "forward_portfolio"),
        (portfolio, "run_sosnn_portfolio"),
        (experiments, "run_sosnn"),
        (experiments, "train"),
        (experiments, "run_mkv"),
        (experiments, "_run_task"),
        (experiments, "run_simulate"),
        (experiments, "run_backtest"),
        (experiments, "parse_config"),
    ],
)
def test_patched_attribute_exists(module, name):
    assert callable(getattr(module, name))


def test_optimize_weights_takes_pairs():
    # The kernel probe's history: (newest-first window, next movement) pairs
    # sliced from one series.
    series = normalize(gen_ar1(60, NoiseSpec(seed=3))).values
    length, count = 3, 50
    history = [(series[i : i + length][::-1], series[i + length]) for i in range(count)]
    config = SosnnConfig(net=NetworkConfig(length, 4), weight_tolerance=1e-300, max_iterations=7)
    init = NetworkWeights.uniform(config.net, 0.1, np.random.default_rng(1))
    weights, report = optimize_weights(history, config, init)
    assert isinstance(report, OptimizeReport)
    assert report.iterations == 7
    assert weights.hidden_weights.shape == (4, length)


def test_portfolio_forward_once_per_betting_round(monkeypatch):
    calls = []
    forward = portfolio.forward_portfolio

    def counting(window, weights):
        calls.append(len(window))
        return forward(window, weights)

    monkeypatch.setattr(portfolio, "forward_portfolio", counting)
    panel = np.column_stack([
        normalize(gen_ar1(30, NoiseSpec(seed=1))).values,
        normalize(gen_ar1(30, NoiseSpec(seed=2))).values,
    ])
    config = SosnnConfig(net=NetworkConfig(1, 2), warmup=5, seed=8, max_iterations=20)
    result = portfolio.run_sosnn_portfolio(panel, config)
    assert len(calls) == result.betting_rounds == 25


def test_portfolio_refits_through_the_module_attribute(monkeypatch):
    refits = []
    optimize = portfolio._optimize_portfolio

    def counting(*args):
        refits.append(1)
        return optimize(*args)

    monkeypatch.setattr(portfolio, "_optimize_portfolio", counting)
    panel = np.zeros((12, 2))
    portfolio.run_sosnn_portfolio(panel, SosnnConfig(net=NetworkConfig(1, 2), warmup=5))
    # Round 6 has no completed betting round to fit; rounds 7..12 refit.
    assert len(refits) == 6


def test_run_mkv_refits_through_optimize_bucket(monkeypatch):
    calls = []
    optimize = markov.optimize_bucket

    def counting(moves, start=0.0):
        calls.append(start)
        return optimize(moves, start=start)

    monkeypatch.setattr(markov, "optimize_bucket", counting)
    series = normalize(gen_ar1(40, NoiseSpec(seed=4)))
    markov.run_mkv(series, 1, warmup=5)
    assert len(calls) > 0
