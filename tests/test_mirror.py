"""The mirror lock: negating every movement negates every bet and leaves the
log-capital path as it was, bit for bit.

The network has no biases and tanh is odd; the caps, the solvency rescale
and the MKV search interval are symmetric; IEEE rounding is symmetric in
sign. The check compares two runs on one machine, so it holds under any
BLAS kernel, also where byte pins do not. MKV1 and MKV2 count a 0 movement
as "up", so for them the relation holds only on series without an exact 0.
The runner-level lock runs whole grids through `experiments._run` and
compares the run directories.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from seqbet import experiments
from seqbet.data import NoiseSpec, gen_ar1, normalize
from seqbet.game import MovementSeries
from seqbet.markov import run_mkv
from seqbet.network import NetworkConfig
from seqbet.nnbp import NnbpConfig, run_nnbp, train_replicates
from seqbet.portfolio import run_sosnn_portfolio
from seqbet.sosnn import SosnnConfig, run_sosnn_replicates

WARMUP = 20


def ar1(seed, n=140):
    """A normalized AR(1) series with no exact 0 movement."""
    series = normalize(gen_ar1(n, NoiseSpec(seed=seed)))
    assert np.all(series.values != 0.0)
    return series


def negated(series):
    return MovementSeries(-series.values)


def unsigned_zeros(values):
    """`values` with every -0.0 made +0.0: a warmup bet of 0 negates to -0.0,
    while the mirrored run bets +0.0 there."""
    return (np.asarray(values) + 0.0).tobytes()


def assert_mirrored(run, mirror):
    assert unsigned_zeros(mirror.ratios) == unsigned_zeros(-run.ratios)
    assert mirror.log_capital_path.tobytes() == run.log_capital_path.tobytes()


@pytest.mark.parametrize("order", (0, 1, 2))
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_mkv(order, seed):
    series = ar1(seed)
    assert_mirrored(run_mkv(series, order, WARMUP), run_mkv(negated(series), order, WARMUP))


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (3, 8)])
def test_sosnn_replicates(shape):
    series = [ar1(1, n=80), ar1(2, n=80)]
    config = SosnnConfig(NetworkConfig(*shape), max_iterations=1000, warmup=WARMUP)
    configs = [config, SosnnConfig(config.net, max_iterations=1000, warmup=WARMUP, seed=7)]
    runs = run_sosnn_replicates(series, configs)
    mirrors = run_sosnn_replicates([negated(s) for s in series], configs)
    for run, mirror in zip(runs, mirrors):
        assert_mirrored(run, mirror)


def test_nnbp_trained_on_the_negated_series():
    training, series = [ar1(4), ar1(5)], [ar1(1), ar1(2)]
    configs = [NnbpConfig(NetworkConfig(5, 6), max_steps=3000, seed=s) for s in (1, 2)]
    fits = train_replicates(training, configs)
    mirror_fits = train_replicates([negated(s) for s in training], configs)
    for (weights, diag), (mirror_weights, mirror_diag), s in zip(fits, mirror_fits, series):
        assert mirror_weights.hidden_weights.tobytes() == weights.hidden_weights.tobytes()
        assert mirror_weights.output_weights.tobytes() == weights.output_weights.tobytes()
        assert mirror_diag.error_per_epoch == diag.error_per_epoch
        assert_mirrored(run_nnbp(weights, s, WARMUP), run_nnbp(mirror_weights, negated(s), WARMUP))


def test_two_asset_portfolio():
    panel = np.column_stack([ar1(1, n=80).values, ar1(2, n=80).values])
    config = SosnnConfig(NetworkConfig(1, 3), max_iterations=1000, warmup=WARMUP)
    assert_mirrored(run_sosnn_portfolio(panel, config), run_sosnn_portfolio(-panel, config))


def test_exact_zero_breaks_the_relation_for_sign_contexts():
    # MKV0 has no context and keeps the relation. MKV1 and MKV2 file a 0
    # (and its negation -0.0) as "up" on both sides: they keep the relation
    # through round 31, whose movement is the first 0, and break it from
    # round 32, the first whose context holds it; the paths stay apart.
    values = ar1(3).values.copy()
    values[[30, 60, 90, 120]] = 0.0
    series = MovementSeries(values)
    assert_mirrored(run_mkv(series, 0, WARMUP), run_mkv(negated(series), 0, WARMUP))
    for order in (1, 2):
        run, mirror = run_mkv(series, order, WARMUP), run_mkv(negated(series), order, WARMUP)
        apart = np.flatnonzero(mirror.ratios + 0.0 != -run.ratios + 0.0)
        assert apart[0] + 1 == 32
        assert mirror.log_capital_path[:31].tobytes() == run.log_capital_path[:31].tobytes()
        assert np.all(mirror.log_capital_path[31:] != run.log_capital_path[31:])


ROOT = Path(__file__).resolve().parent.parent
GRID = """
[experiment]
mode = simulate
seed = 5
rounds = 80
warmup = 20
strategies = sosnn, nnbp, mkv0, mkv1, mkv2

[data]
generator = ar1

[sosnn]
input_counts = 1, 3
hidden_counts = 2
max_iterations = 200

[nnbp]
input_count = 4
hidden_count = 5
max_steps = 2000
training_rounds = 120
"""


def grid_inputs(tmp_path):
    """A small simulate grid with every strategy, 1 replicate."""
    path = tmp_path / "grid.ini"
    path.write_text(GRID, encoding="utf-8")
    config = experiments.parse_config(path)
    return config, *experiments._generated_series(config), None


def demo_backtest_inputs(tmp_path):
    """The reduced demo backtest of `scripts/ci.py`, every strategy."""
    spec = importlib.util.spec_from_file_location("ci", ROOT / "scripts" / "ci.py")
    ci = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ci)
    config = experiments.parse_config(ci.cli_config(tmp_path))
    invest, dates, training = experiments._backtest_series(config)
    return config, [invest], [training], dates


def files(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("inputs", [grid_inputs, demo_backtest_inputs], ids=["simulate-grid", "demo-backtest"])
def test_runner(tmp_path, inputs):
    # Every series/ alpha is negated (as floats, so -0.0 equals 0.0) and
    # its log capital kept; every other run file but a backtest's negated
    # movements.csv keeps its bytes, the NNBP diagnostics included.
    config, series, training, dates = inputs(tmp_path)
    assert all(np.all(s.values != 0.0) for s in [*series, *training])
    run, mirror = tmp_path / "run", tmp_path / "mirror"
    experiments._run(config, run, 1, series, training, dates)
    experiments._run(config, mirror, 1, [negated(s) for s in series], [negated(s) for s in training], dates)
    ran, mirrored = files(run), files(mirror)
    assert ran.keys() == mirrored.keys()
    labels = [label for label, _ in config.cells]
    assert {f"series/{label}__rep0.csv" for label in labels} <= ran.keys()
    assert any(name.startswith("diagnostics/") for name in ran)
    for name, blob in ran.items():
        if name == "movements.csv":
            continue
        if not name.startswith("series/"):
            assert mirrored[name] == blob, name
            continue
        rows = [line.split(",") for line in blob.decode().splitlines()]
        mirror_rows = [line.split(",") for line in mirrored[name].decode().splitlines()]
        assert mirror_rows[0] == rows[0] == ["round", "alpha", "log_capital"]
        assert len(mirror_rows) == len(rows)
        for (k, alpha, log_k), (mk, malpha, mlog_k) in zip(rows[1:], mirror_rows[1:]):
            assert (mk, mlog_k) == (k, log_k), name
            assert float(malpha) == -float(alpha), name
