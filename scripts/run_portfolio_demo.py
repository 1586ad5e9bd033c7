#!/usr/bin/env python3
"""Multi-asset demo: sequentially optimized betting on two generated assets.

Writes the movement panel in the `date,value_1,value_2` format next to the
printed capital path so the multi-asset file schema has a live example.

Usage: python scripts/run_portfolio_demo.py [OUT_DIR]
"""

import datetime
import sys
from pathlib import Path

import numpy as np

from seqbet.data import NoiseSpec, gen_ar1, normalize, write_movements
from seqbet.network import NetworkConfig
from seqbet.portfolio import run_sosnn_portfolio
from seqbet.sosnn import SosnnConfig

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "results" / "portfolio_demo"
    out.mkdir(parents=True, exist_ok=True)

    # Two assets driven by correlated first-order autoregressions.
    shared = gen_ar1(320, NoiseSpec(seed=101))
    other = gen_ar1(320, NoiseSpec(seed=202))
    panel = np.column_stack(
        [normalize(shared).values, normalize(0.7 * shared + 0.3 * other).values]
    )
    start = datetime.date(2006, 1, 1)
    dates = [start + datetime.timedelta(days=i) for i in range(panel.shape[0])]
    write_movements(out / "movements.csv", dates, panel)

    config = SosnnConfig(net=NetworkConfig(input_count=1, hidden_count=3), seed=7)
    result = run_sosnn_portfolio(panel, config)
    lines = ["round,log_capital"]
    lines += [f"{i + 1},{v!r}" for i, v in enumerate(result.log_capital_path.tolist())]
    (out / "log_capital.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    exposure = np.abs(result.ratios).sum(axis=1).max()
    print(f"final log capital: {result.final_log_capital:.3f}")
    print(f"checkpoints: { {k: round(v, 3) for k, v in result.checkpoints.items()} }")
    print(f"max total exposure: {exposure:.4f} (always < 1)")
    print(f"wrote {out}/movements.csv and {out}/log_capital.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
