"""Golden digest of a small simulate run: the byte-level behaviour lock.

Pins the SHA-256 of `summary.csv` followed by `replicates.csv` for a short
AR(1) run of MKV0-2, NNBP and the well-conditioned SOSNN 1x5 cell (its
artifacts do not move when every initial weight is nudged by one ulp). The
run takes about a second.

The pin depends on the numpy and BLAS builds, whose summation order reaches
the last bits of every value. A change that must re-pin it says why in
CHANGES.md; a change that only makes the code faster must leave it as it is.
"""

import hashlib

from seqbet.experiments import parse_config, run_simulate

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


def test_small_simulate_digest(tmp_path):
    path = tmp_path / "golden.ini"
    path.write_text(GOLDEN_CONFIG)
    out = tmp_path / "out"
    report = run_simulate(parse_config(path), out)
    assert [c.label for c in report.cells] == ["sosnn_1x5", "nnbp_3x4", "mkv0", "mkv1", "mkv2"]
    assert all(c.ok for c in report.cells)
    digest = hashlib.sha256(
        (out / "summary.csv").read_bytes() + (out / "replicates.csv").read_bytes()
    ).hexdigest()
    assert digest == GOLDEN_SHA256
