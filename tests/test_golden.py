"""Golden digests: the byte-level behaviour lock.

`test_small_simulate_digest` pins the SHA-256 of `summary.csv` followed by
`replicates.csv` for a short AR(1) run of MKV0-2, NNBP and the
well-conditioned SOSNN 1x5 cell (its artifacts do not move when every
initial weight is nudged by one ulp). The run takes about a second.

The two long pins also hash every per-round series file, so every single
bet is locked:
- a 1500-round ARMA(2,1) run of MKV0-2, whose buckets grow to hundreds of
  movements, which the 60-round run never reaches;
- a backtest on the bundled `data/demo_prices.csv` (MKV0-2 and a small NNBP
  cell), which also pins the normalized `movements.csv`.

`test_portfolio_digest` pins the raw bytes of the ratio matrix and the
log-capital path of a small two-asset `run_sosnn_portfolio`, whose refits
run the solvency projection and the step halving of the multi-asset ascent.

The pins depend on the numpy and BLAS builds, whose summation order reaches
the last bits of every value. A change that must re-pin one says why in
CHANGES.md; a change that only makes the code faster must leave them as
they are.
"""

import hashlib
from pathlib import Path

import numpy as np

from seqbet.data import NoiseSpec, gen_ar1, normalize
from seqbet.experiments import parse_config, run_backtest, run_simulate
from seqbet.network import NetworkConfig
from seqbet.portfolio import run_sosnn_portfolio
from seqbet.sosnn import SosnnConfig

DEMO_PRICES = Path(__file__).resolve().parents[1] / "data" / "demo_prices.csv"

GOLDEN_CONFIG = """
[experiment]
mode = simulate
seed = 20080619
rounds = 60
warmup = 20
replicates = 2
strategies = sosnn, nnbp, mkv0, mkv1, mkv2

[data]
generator = ar1

[sosnn]
input_counts = 1
hidden_counts = 5
max_iterations = 2000

[nnbp]
input_count = 3
hidden_count = 4
max_steps = 3000
training_rounds = 100
"""

GOLDEN_SHA256 = "5b46356f1409dff5a67ad79baedd867b49c5d6fce7385e76fdac1c72c6e31381"

LONG_MKV_CONFIG = """
[experiment]
mode = simulate
seed = 20080619
rounds = 1500
warmup = 20
replicates = 1
strategies = mkv0, mkv1, mkv2

[data]
generator = arma21
"""

LONG_MKV_SHA256 = "daa144678cda3b08137092060a08cc4442150f24c6bbd422bd72460e542c06ab"

BACKTEST_CONFIG = """
[experiment]
mode = backtest
seed = 7
warmup = 20
replicates = 1
strategies = nnbp, mkv0, mkv1, mkv2

[data]
price_file = {price_file}
training_start = 2005-11-02
training_end = 2006-08-28
normalization_start = 2005-11-02
normalization_end = 2006-08-28
investing_start = 2006-10-01
investing_end = 2007-07-27

[nnbp]
input_count = 3
hidden_count = 4
max_steps = 3000
"""

BACKTEST_SHA256 = "5da1077d22471d096a7b074bb4c38e3b196d3db2245c6f1a03863f498236ab6a"

PORTFOLIO_SHA256 = "b2be74258c633edbe76b9d12ffed99767b984ecd98340172883776782f0c5959"


def _run(tmp_path, text, runner):
    path = tmp_path / "golden.ini"
    path.write_text(text)
    out = tmp_path / "out"
    report = runner(parse_config(path), out)
    assert all(c.ok for c in report.cells)
    return report, out


def _digest(out, *names):
    return hashlib.sha256(b"".join((out / name).read_bytes() for name in names)).hexdigest()


def _series_names(out):
    return [f"series/{p.name}" for p in sorted((out / "series").glob("*.csv"))]


def test_small_simulate_digest(tmp_path):
    report, out = _run(tmp_path, GOLDEN_CONFIG, run_simulate)
    assert [c.label for c in report.cells] == ["sosnn_1x5", "nnbp_3x4", "mkv0", "mkv1", "mkv2"]
    assert _digest(out, "summary.csv", "replicates.csv") == GOLDEN_SHA256


def test_long_mkv_simulate_digest(tmp_path):
    report, out = _run(tmp_path, LONG_MKV_CONFIG, run_simulate)
    assert [c.label for c in report.cells] == ["mkv0", "mkv1", "mkv2"]
    names = ["summary.csv", "replicates.csv", *_series_names(out)]
    assert len(names) == 5
    assert _digest(out, *names) == LONG_MKV_SHA256


def test_demo_backtest_digest(tmp_path):
    report, out = _run(tmp_path, BACKTEST_CONFIG.format(price_file=DEMO_PRICES), run_backtest)
    assert [c.label for c in report.cells] == ["nnbp_3x4", "mkv0", "mkv1", "mkv2"]
    names = ["movements.csv", "summary.csv", "replicates.csv", *_series_names(out)]
    assert len(names) == 7
    assert _digest(out, *names) == BACKTEST_SHA256


def test_portfolio_digest():
    shared = gen_ar1(50, NoiseSpec(seed=101))
    other = gen_ar1(50, NoiseSpec(seed=202))
    panel = np.column_stack(
        [normalize(shared).values, normalize(0.7 * shared + 0.3 * other).values]
    )
    config = SosnnConfig(net=NetworkConfig(1, 3), warmup=10, max_iterations=300, seed=7)
    result = run_sosnn_portfolio(panel, config)
    digest = hashlib.sha256(result.ratios.tobytes() + result.log_capital_path.tobytes())
    assert digest.hexdigest() == PORTFOLIO_SHA256
