"""Workload definitions: sizes and the inputs each seed generates.

Every workload is one closed-loop batch job: a single process runs it and
waits for its own result. The seed passed on the command line is the only
source of variation; `write_inputs` turns (workload, seed) into the config
file or movement panel the program receives, so one seed always gives the
same inputs. Why each workload exists, and which modules it loads and
bypasses, is set out in README.md.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DEMO_PRICES = ROOT / "data" / "demo_prices.csv"

# Seed at which reference values are pinned in reference.json.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "simulate" | "backtest" | "portfolio"
    jobs: int
    # simulate / backtest: INI sections, completed by `config_text`.
    sections: dict = field(default_factory=dict)
    # portfolio: panel shape and refit settings.
    panel: dict = field(default_factory=dict)


_NNBP_12x30 = {
    "input_count": 12, "hidden_count": 30, "learning_rate": 0.07,
    "error_threshold": 1e-2, "max_steps": 10000, "init_scale": 0.1,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ar1_grid",
            kind="simulate",
            jobs=2,
            sections={
                "experiment": {"mode": "simulate", "rounds": 30, "warmup": 20,
                               "replicates": 10,
                               "strategies": "sosnn, nnbp, mkv0, mkv1, mkv2"},
                "data": {"generator": "ar1"},
                "sosnn": {"input_counts": "1, 2", "hidden_counts": "3",
                          "initial_rate": 1.0, "decay_steps": 5.0,
                          "weight_tolerance": 1e-4, "max_iterations": 200,
                          "init_scale": 0.1, "warm_start": "true"},
                "nnbp": {**_NNBP_12x30, "max_steps": 5000, "training_rounds": 300},
            },
        ),
        Workload(
            name="price_backtest",
            kind="backtest",
            jobs=1,
            sections={
                "experiment": {"mode": "backtest", "warmup": 20, "replicates": 1,
                               "strategies": "sosnn, nnbp, mkv0, mkv1, mkv2"},
                "data": {"price_file": "prices.csv",
                         "training_start": "2005-11-02", "training_end": "2006-08-28",
                         "normalization_start": "2005-11-02",
                         "normalization_end": "2006-08-28",
                         "investing_start": "2006-10-01", "investing_end": "2006-11-15"},
                "sosnn": {"input_counts": "1", "hidden_counts": "2",
                          "initial_rate": 1.0, "decay_steps": 5.0,
                          "weight_tolerance": 1e-4, "max_iterations": 10000,
                          "init_scale": 0.1, "warm_start": "true"},
                "nnbp": _NNBP_12x30,
            },
        ),
        Workload(
            name="arma21_long",
            kind="simulate",
            jobs=1,
            sections={
                "experiment": {"mode": "simulate", "rounds": 2500, "warmup": 20,
                               "replicates": 2,
                               "strategies": "nnbp, mkv0, mkv1, mkv2"},
                "data": {"generator": "arma21"},
                "nnbp": {"input_count": 15, "hidden_count": 40, "learning_rate": 0.08,
                         "error_threshold": 1e-2, "max_steps": 15000, "init_scale": 0.1,
                         "training_rounds": 300},
            },
        ),
        Workload(
            name="portfolio_p2",
            kind="portfolio",
            jobs=1,
            panel={"length": 320, "rounds": 30, "warmup": 20, "replicates": 8,
                   "input_count": 1, "hidden_count": 3, "max_iterations": 200},
        ),
    )
}


def config_text(workload: Workload, seed: int) -> str:
    """The INI file a simulate/backtest workload runs with at `seed`."""
    lines = []
    for name, items in workload.sections.items():
        lines.append(f"[{name}]")
        if name == "experiment":
            lines.append(f"seed = {seed}")
        lines += [f"{key} = {value}" for key, value in items.items()]
        lines.append("")
    return "\n".join(lines)


def write_inputs(workload: Workload, seed: int, work: Path) -> None:
    """Write everything the program reads for (workload, seed) into `work`.

    The backtest reads a copy of the bundled price file; its seed drives the
    network initializations, which is all that varies in backtest mode.
    """
    work.mkdir(parents=True, exist_ok=True)
    if workload.kind == "portfolio":
        return  # the panel is generated in the worker, as part of set-up
    (work / "config.ini").write_text(config_text(workload, seed), encoding="utf-8")
    if workload.kind == "backtest":
        (work / "prices.csv").write_bytes(DEMO_PRICES.read_bytes())


def panel_seeds(seed: int, replicate: int) -> tuple[int, int, int]:
    """Seeds of one portfolio panel: shared factor, second asset, network init."""
    state = np.random.SeedSequence([seed, replicate]).generate_state(3, np.uint64)
    return tuple(int(s) for s in state)


def build_panel(data, seed: int, replicate: int, length: int) -> np.ndarray:
    """Two-asset panel built as in scripts/run_portfolio_demo.py, seeded per replicate.

    `data` is the seqbet.data module, passed in so traced runs see the calls.
    """
    s_shared, s_other, _ = panel_seeds(seed, replicate)
    shared = data.gen_ar1(length, data.NoiseSpec(seed=s_shared))
    other = data.gen_ar1(length, data.NoiseSpec(seed=s_other))
    return np.column_stack(
        [data.normalize(shared).values, data.normalize(0.7 * shared + 0.3 * other).values]
    )


PANEL_START = datetime.date(2006, 1, 1)
