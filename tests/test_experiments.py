"""Config validation, artifact layout, determinism, compare, CLI exit codes."""

import datetime
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seqbet import experiments, rundir
from seqbet.cli import main
from seqbet.errors import ConfigError, DataError, UsageError
from seqbet.experiments import (
    _generated_series,
    _run_task,
    _task_specs,
    derive_seed,
    parse_config,
    run_backtest,
    run_compare,
    run_simulate,
)
from seqbet.markov import MarkovOrder
from seqbet.network import AnnealingSchedule, NetworkConfig
from seqbet.nnbp import NnbpConfig
from seqbet.sosnn import SosnnConfig, run_sosnn

TINY_SIM = """
[experiment]
mode = simulate
seed = 11
rounds = 50
warmup = 5
replicates = 2
strategies = mkv0, mkv1, sosnn

[data]
generator = ar1

[sosnn]
input_counts = 1
hidden_counts = 2
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def make_prices(tmp_path, n=120, seed=5, name="prices.csv", constant=None, flat_from=None):
    """A random-walk price file; `constant` fixes every close, `flat_from` holds
    the close fixed from that day index on."""
    rng = np.random.default_rng(seed)
    start = datetime.date(2020, 1, 1)
    lines = []
    price = 100.0
    for i in range(n):
        if constant is not None:
            price = constant
        elif flat_from is None or i < flat_from:
            price = max(1.0, price + rng.normal(0, 1.0))
        lines.append(f"{(start + datetime.timedelta(days=i)).isoformat()},{price:.4f}")
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


BT_TEMPLATE = """
[experiment]
mode = backtest
seed = 3
warmup = 6
strategies = {strategies}

[data]
price_file = prices.csv
training_start = 2020-01-02
training_end = 2020-02-10
normalization_start = 2020-01-02
normalization_end = 2020-02-10
investing_start = 2020-02-20
investing_end = 2020-04-19
{extra}
"""

BT_NNBP = """
[nnbp]
input_count = 3
hidden_count = 4
learning_rate = 0.1
max_steps = 20000
"""


class TestParseConfig:
    def test_round_trip(self, tmp_path):
        config = parse_config(write_config(tmp_path, TINY_SIM))
        assert config.mode == "simulate"
        assert config.strategies == ("mkv0", "mkv1", "sosnn")
        assert config.rounds == 50 and config.replicates == 2
        assert [label for label, _ in config.cells] == ["mkv0", "mkv1", "sosnn_1x2"]

    def test_unknown_key_rejected(self, tmp_path):
        bad = TINY_SIM.replace("generator = ar1", "generator = ar1\ntypo_key = 3")
        with pytest.raises(ConfigError, match="typo_key"):
            parse_config(write_config(tmp_path, bad))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="sections"):
            parse_config(write_config(tmp_path, TINY_SIM + "\n[mystery]\nx = 1\n"))

    def test_unknown_strategy(self, tmp_path):
        bad = TINY_SIM.replace("mkv0, mkv1, sosnn", "mkv7")
        with pytest.raises(ConfigError, match="mkv7"):
            parse_config(write_config(tmp_path, bad))

    def test_missing_seed(self, tmp_path):
        bad = TINY_SIM.replace("seed = 11\n", "")
        with pytest.raises(ConfigError, match="seed"):
            parse_config(write_config(tmp_path, bad))
        config = parse_config(write_config(tmp_path, bad, "b.ini"), seed_override=4)
        assert config.seed == 4

    def test_one_betting_round(self, tmp_path):
        # rounds >= 1 is the game's rule, W < N, at parse time.
        with pytest.raises(ConfigError, match=r"^\[experiment\] rounds must be >= 1, got 0$"):
            parse_config(write_config(tmp_path, TINY_SIM.replace("rounds = 50", "rounds = 0")))
        config = parse_config(write_config(tmp_path, TINY_SIM.replace("rounds = 50", "rounds = 1")))
        report = run_simulate(config, tmp_path / "out")
        assert all(cell.ok for cell in report.cells)
        lines = (tmp_path / "out" / "series/sosnn_1x2__rep0.csv").read_text().splitlines()
        assert len(lines) == 1 + 6  # header, five warmup rounds and one bet
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["checkpoints"] == [1]

    @pytest.mark.parametrize(
        "strategy, section, label, look_back",
        [
            ("mkv2", "", "mkv2", 2),
            ("sosnn", "[sosnn]\ninput_counts = 1, 3\nhidden_counts = 2\n", "sosnn_3x2", 3),
            ("nnbp", "[nnbp]\ninput_count = 3\nhidden_count = 2\n", "nnbp_3x2", 3),
        ],
        ids=["mkv", "sosnn", "nnbp"],
    )
    def test_look_back_beyond_warmup(self, tmp_path, strategy, section, label, look_back):
        text = (
            "[experiment]\nmode = simulate\nseed = 1\nwarmup = {}\n"
            f"strategies = {strategy}\n\n[data]\ngenerator = ar1\n\n{section}"
        )
        short = write_config(tmp_path, text.format(look_back - 1))
        with pytest.raises(ConfigError) as info:
            parse_config(short)
        assert str(info.value) == (
            f"[{label}] a look-back of {look_back} rounds does not fit in a warmup of {look_back - 1}"
        )
        parse_config(write_config(tmp_path, text.format(look_back), "enough.ini"))

    def test_replicates_must_be_positive(self, tmp_path):
        bad = TINY_SIM.replace("replicates = 2", "replicates = 0")
        with pytest.raises(ConfigError, match="replicates"):
            parse_config(write_config(tmp_path, bad))

    def test_nnbp_requires_training_range_in_backtest(self, tmp_path):
        make_prices(tmp_path)
        text = BT_TEMPLATE.format(strategies="nnbp", extra=BT_NNBP)
        text = text.replace("training_start = 2020-01-02\n", "").replace(
            "training_end = 2020-02-10\n", ""
        )
        with pytest.raises(ConfigError, match="training"):
            parse_config(write_config(tmp_path, text))

    def test_training_rounds_rejected_in_backtest(self, tmp_path):
        make_prices(tmp_path)
        text = BT_TEMPLATE.format(strategies="nnbp", extra=BT_NNBP + "training_rounds = 100\n")
        with pytest.raises(ConfigError) as info:
            parse_config(write_config(tmp_path, text))
        assert str(info.value) == (
            "[nnbp] training_rounds applies to simulate mode only; "
            "a backtest trains on its training date range"
        )

    def test_nnbp_ranges_must_be_disjoint(self, tmp_path):
        make_prices(tmp_path)
        text = BT_TEMPLATE.format(strategies="nnbp", extra=BT_NNBP).replace(
            "investing_start = 2020-02-20", "investing_start = 2020-02-01"
        )
        with pytest.raises(ConfigError, match="disjoint"):
            parse_config(write_config(tmp_path, text))

    def test_section_without_strategy_rejected(self, tmp_path):
        text = TINY_SIM.replace("mkv0, mkv1, sosnn", "mkv0") + "\n"
        with pytest.raises(ConfigError, match="sosnn"):
            parse_config(write_config(tmp_path, text))

    def test_cells_carry_configs_with_dataclass_defaults(self, tmp_path):
        config = parse_config(write_config(tmp_path, TINY_SIM))
        assert config.cells == (
            ("mkv0", MarkovOrder(0)),
            ("mkv1", MarkovOrder(1)),
            ("sosnn_1x2", SosnnConfig(NetworkConfig(1, 2), warmup=5)),
        )
        assert config.training_rounds is None

    def test_grid_and_set_keys_reach_every_cell(self, tmp_path):
        text = TINY_SIM.replace("strategies = mkv0, mkv1, sosnn", "strategies = nnbp, sosnn")
        text = text.replace("input_counts = 1", "input_counts = 1, 2\ninitial_rate = 0.5")
        text = text.replace("hidden_counts = 2", "hidden_counts = 3, 4\nwarm_start = no")
        text += "\n[nnbp]\ninput_count = 2\nhidden_count = 3\nmax_steps = 50\n"
        config = parse_config(write_config(tmp_path, text))
        labels = [label for label, _ in config.cells]
        assert labels == ["nnbp_2x3", "sosnn_1x3", "sosnn_1x4", "sosnn_2x3", "sosnn_2x4"]
        for _, cell in config.cells[1:]:
            assert cell.schedule == AnnealingSchedule(initial_rate=0.5)
            assert cell.warm_start is False and cell.warmup == 5
        assert config.cells[0][1] == NnbpConfig(NetworkConfig(2, 3), max_steps=50)
        assert config.training_rounds == 300
        # configparser's boolean words, in any case.
        for word, value in [("ON", True), ("0", False), ("Yes", True), ("FALSE", False), ("1", True)]:
            config = parse_config(write_config(tmp_path, text.replace("warm_start = no", f"warm_start = {word}")))
            assert all(cell.warm_start is value for _, cell in config.cells[1:])

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("rounds = 50", "rounds = many", "[experiment] rounds must be an integer, got 'many'"),
            ("input_counts = 1", "input_counts = 1, a",
             "[sosnn] input_counts must be an integer, got 'a'"),
            ("input_counts = 1", "input_counts = ,", "[sosnn] input_counts must not be empty"),
            ("strategies = mkv0, mkv1, sosnn", "strategies = ,",
             "[experiment] strategies must not be empty"),
            ("input_counts = 1", "input_counts = 1, 1",
             "[sosnn] input_counts must not repeat a value, got '1, 1'"),
            ("hidden_counts = 2", "hidden_counts = 2, 3, 02",
             "[sosnn] hidden_counts must not repeat a value, got '2, 3, 02'"),
            ("strategies = mkv0, mkv1, sosnn", "strategies = mkv0, sosnn, MKV0",
             "[experiment] strategies must not repeat a value, got 'mkv0, sosnn, MKV0'"),
            ("hidden_counts = 2", "hidden_counts = 2\ninitial_rate = fast",
             "[sosnn] initial_rate must be a number, got 'fast'"),
            ("hidden_counts = 2", "hidden_counts = 2\nwarm_start = maybe",
             "[sosnn] warm_start must be a boolean, got 'maybe'"),
            ("hidden_counts = 2\n", "", "[sosnn] is missing required key 'hidden_counts'"),
            ("mode = simulate", "mode = train",
             "[experiment] mode must be one of simulate, backtest, got 'train'"),
            ("generator = ar1", "generator = ar2",
             "[data] generator must be one of ar1, arma21, got 'ar2'"),
            ("strategies = mkv0, mkv1, sosnn", "strategies = mkv0, mkv7",
             "[experiment] strategies must be one of sosnn, nnbp, mkv0, mkv1, mkv2, got 'mkv7'"),
            ("replicates = 2", "replicates = 0", "[experiment] replicates must be >= 1, got 0"),
            ("warmup = 5", "warmup = -1", "[experiment] warmup must be nonnegative, got -1"),
            ("seed = 11", "seed = -1", "[experiment] seed must be >= 0, got -1"),
        ],
    )
    def test_value_errors_name_section_and_key(self, tmp_path, old, new, message):
        with pytest.raises(ConfigError) as info:
            parse_config(write_config(tmp_path, TINY_SIM.replace(old, new)))
        assert str(info.value) == message

    def test_seed_override_read_as_the_ini_seed(self, tmp_path):
        path = write_config(tmp_path, TINY_SIM)
        with pytest.raises(ConfigError) as info:
            parse_config(path, seed_override=-1)
        assert str(info.value) == "[experiment] seed must be >= 0, got -1"
        config = parse_config(path, seed_override=4)
        assert config.seed == 4 and config.raw["experiment"]["seed"] == "4"

    def test_byte_order_mark_skipped(self, tmp_path):
        plain = parse_config(write_config(tmp_path, TINY_SIM.lstrip()))
        marked = tmp_path / "marked.ini"
        marked.write_text(TINY_SIM.lstrip(), encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf[experiment]")
        config = parse_config(marked)
        assert config == plain and config.raw == plain.raw

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig"])
    def test_crlf_line_ends_read_as_plain(self, tmp_path, encoding):
        plain = parse_config(write_config(tmp_path, TINY_SIM))
        other = tmp_path / "crlf.ini"
        other.write_bytes(TINY_SIM.replace("\n", "\r\n").encode(encoding))
        config = parse_config(other)
        assert config == plain and config.raw == plain.raw

    def test_bad_date_named(self, tmp_path):
        make_prices(tmp_path)
        text = BT_TEMPLATE.format(strategies="mkv0", extra="").replace(
            "investing_end = 2020-04-19", "investing_end = 2020-04-31"
        )
        with pytest.raises(ConfigError) as info:
            parse_config(write_config(tmp_path, text))
        assert str(info.value) == "[data] investing_end must be an ISO date, got '2020-04-31'"

    def test_reversed_date_range_rejected(self, tmp_path):
        make_prices(tmp_path)
        text = BT_TEMPLATE.format(strategies="mkv0", extra="").replace(
            "normalization_end = 2020-02-10", "normalization_end = 2020-01-01"
        )
        with pytest.raises(ConfigError) as info:
            parse_config(write_config(tmp_path, text))
        assert str(info.value) == "[data] normalization range ends before it starts"

    def test_training_range_needs_both_ends(self, tmp_path):
        make_prices(tmp_path)
        text = BT_TEMPLATE.format(strategies="mkv0", extra="").replace(
            "training_end = 2020-02-10\n", ""
        )
        with pytest.raises(ConfigError) as info:
            parse_config(write_config(tmp_path, text))
        assert str(info.value) == "[data] training_start and training_end must be given together"

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("hidden_counts = 2", "hidden_counts = 2\nweight_tolerance = 0",
             "[sosnn] weight_tolerance must be positive and finite, got 0.0"),
            ("hidden_counts = 2", "hidden_counts = 2\nweight_tolerance = nan",
             "[sosnn] weight_tolerance must be positive and finite, got nan"),
            ("hidden_counts = 2", "hidden_counts = 2\nweight_tolerance = inf",
             "[sosnn] weight_tolerance must be positive and finite, got inf"),
            ("hidden_counts = 2", "hidden_counts = 2\ninit_scale = nan",
             "[sosnn] init_scale must be positive and finite, got nan"),
            ("hidden_counts = 2", "hidden_counts = 2\ninit_scale = inf",
             "[sosnn] init_scale must be positive and finite, got inf"),
            ("hidden_counts = 2", "hidden_counts = 2\ninit_scale = 1e308",
             "[sosnn] init_scale must be positive and finite, got 1e+308"),
            ("hidden_counts = 2", "hidden_counts = 2\nmax_iterations = 0",
             "[sosnn] max_iterations must be >= 1, got 0"),
            ("hidden_counts = 2", "hidden_counts = 2\ninit_scale = -0.1",
             "[sosnn] init_scale must be positive and finite, got -0.1"),
            ("hidden_counts = 2", "hidden_counts = 2\ndecay_steps = 0",
             "[sosnn] decay_steps must be positive and finite, got 0.0"),
            ("hidden_counts = 2", "hidden_counts = 2\ndecay_steps = inf",
             "[sosnn] decay_steps must be positive and finite, got inf"),
            ("hidden_counts = 2", "hidden_counts = 2\ninitial_rate = -inf",
             "[sosnn] initial_rate must be positive and finite, got -inf"),
            ("hidden_counts = 2", "hidden_counts = 0",
             "[sosnn] layer sizes must be >= 1, got 1x0"),
        ],
    )
    def test_invalid_strategy_values_are_config_errors(self, tmp_path, old, new, message):
        with pytest.raises(ConfigError) as info:
            parse_config(write_config(tmp_path, TINY_SIM.replace(old, new)))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "line, rule",
        [
            ("learning_rate = -1", "learning_rate must be positive and finite, got -1.0"),
            ("learning_rate = nan", "learning_rate must be positive and finite, got nan"),
            ("learning_rate = inf", "learning_rate must be positive and finite, got inf"),
            ("error_threshold = 0", "error_threshold must be positive and finite, got 0.0"),
            ("error_threshold = nan", "error_threshold must be positive and finite, got nan"),
            ("error_threshold = inf", "error_threshold must be positive and finite, got inf"),
            ("init_scale = nan", "init_scale must be positive and finite, got nan"),
            ("init_scale = 1e308", "init_scale must be positive and finite, got 1e+308"),
            ("max_steps = 0", "max_steps must be >= 1, got 0"),
            ("init_scale = -1", "init_scale must be positive and finite, got -1.0"),
            ("hidden_count = 0", "layer sizes must be >= 1, got 3x0"),
        ],
    )
    def test_invalid_nnbp_values_are_config_errors(self, tmp_path, line, rule):
        make_prices(tmp_path)
        section = "[nnbp]\ninput_count = 3\n"
        section += line if line.startswith("hidden_count") else f"hidden_count = 4\n{line}"
        text = BT_TEMPLATE.format(strategies="nnbp", extra=section + "\n")
        with pytest.raises(ConfigError) as info:
            parse_config(write_config(tmp_path, text))
        assert str(info.value) == f"[nnbp] {rule}"


class TestBundledConfigs:
    @pytest.mark.parametrize(
        "name, cells",
        [("ar1.ini", 28), ("arma21.ini", 28), ("backtest_demo.ini", 8)],
    )
    def test_parses_with_its_cell_count(self, name, cells):
        # 3 x 8 SOSNN shapes (2 x 2 in the demo), one NNBP cell and MKV0-2.
        config = parse_config(Path(__file__).parent.parent / "configs" / name)
        assert len(config.cells) == cells


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(1, 0, 0) == derive_seed(1, 0, 0)
        assert derive_seed(1, 0, 0) != derive_seed(1, 0, 1)
        assert derive_seed(1, 0, 0) != derive_seed(2, 0, 0)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sim")
    config = parse_config(write_config(tmp, TINY_SIM))
    report = run_simulate(config, tmp / "out")
    return tmp / "out", report


class TestSimulateArtifacts:
    def test_layout(self, run):
        out, report = run
        names = set(tree_bytes(out))
        assert "manifest.json" in names
        assert "summary.csv" in names and "summary.txt" in names
        assert "replicates.csv" in names
        assert "series/mkv0__rep0.csv" in names
        assert "series/sosnn_1x2__rep1.csv" in names

    def test_manifest_contents(self, run):
        out, _ = run
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"]
        assert manifest["seed"] == 11
        assert manifest["checkpoints"] == [50]
        assert manifest["cells"] == ["mkv0", "mkv1", "sosnn_1x2"]
        assert manifest["config"]["experiment"]["rounds"] == "50"

    def test_series_row_count_and_shape(self, run):
        out, _ = run
        lines = (out / "series/mkv0__rep0.csv").read_text().strip().split("\n")
        assert lines[0] == "round,alpha,log_capital"
        assert len(lines) == 1 + 55  # warmup + betting rounds
        first = lines[1].split(",")
        assert first[0] == "1" and float(first[1]) == 0.0

    def test_summary_agrees_with_series_and_replicates(self, run):
        out, _ = run
        series_value = {}
        for rep in (0, 1):
            lines = (out / f"series/mkv1__rep{rep}.csv").read_text().strip().split("\n")
            series_value[rep] = float(lines[-1].split(",")[2])  # round 55 = betting 50
        rep_rows = (out / "replicates.csv").read_text().strip().split("\n")[1:]
        seen = 0
        for row in rep_rows:
            cell, rep, checkpoint, value = row.split(",")
            if cell == "mkv1":
                assert float(value) == series_value[int(rep)]  # exact round-trip
                seen += 1
        assert seen == 2
        summary_rows = (out / "summary.csv").read_text().strip().split("\n")
        header = summary_rows[0].split(",")
        for row in summary_rows[1:]:
            fields = dict(zip(header, row.split(",")))
            if fields["cell"] == "mkv1":
                mean = float(np.mean([series_value[0], series_value[1]]))
                assert float(fields["logK_50"]) == mean

    def test_sosnn_convergence_metadata_present(self, run):
        out, _ = run
        rows = (out / "summary.csv").read_text().strip().split("\n")
        header = rows[0].split(",")
        fields = [dict(zip(header, r.split(","))) for r in rows[1:]]
        sosnn = next(f for f in fields if f["cell"] == "sosnn_1x2")
        assert float(sosnn["mean_iterations"]) > 0
        assert 0.0 <= float(sosnn["converged_fraction"]) <= 1.0
        mkv = next(f for f in fields if f["cell"] == "mkv0")
        assert mkv["mean_iterations"] == ""

    def test_report_timing_in_memory_only(self, run):
        out, report = run
        assert report.total_seconds > 0
        for blob in tree_bytes(out).values():
            assert b"seconds" not in blob


class TestSingleCellRun:
    def test_mkv0_only_fifty_rounds(self, tmp_path):
        # One strategy, one replicate: a single series file and a one-cell
        # table whose only checkpoint is the final betting round.
        text = """
[experiment]
mode = simulate
seed = 4
rounds = 50
warmup = 5
strategies = mkv0

[data]
generator = ar1
"""
        config = parse_config(write_config(tmp_path, text))
        run_simulate(config, tmp_path / "a")
        run_simulate(config, tmp_path / "b")
        series = list((tmp_path / "a" / "series").iterdir())
        assert [p.name for p in series] == ["mkv0__rep0.csv"]
        summary = (tmp_path / "a" / "summary.csv").read_text().strip().split("\n")
        assert len(summary) == 2  # header + the one cell
        assert "logK_50" in summary[0] and "logK_100" not in summary[0]
        a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
        assert a == b


class TestAllStrategiesTableStructure:
    def test_full_comparison_row_structure(self, tmp_path):
        # Every strategy family in one run over 300 betting rounds reports
        # the three standard checkpoints.
        text = """
[experiment]
mode = simulate
seed = 6
rounds = 300
warmup = 20
replicates = 1
strategies = sosnn, nnbp, mkv0, mkv1, mkv2

[data]
generator = ar1

[sosnn]
input_counts = 1
hidden_counts = 3

[nnbp]
input_count = 6
hidden_count = 8
max_steps = 60000
training_rounds = 100
"""
        config = parse_config(write_config(tmp_path, text))
        report = run_simulate(config, tmp_path / "out", jobs=2)
        assert report.checkpoints == [100, 200, 300]
        labels = [c.label for c in report.cells]
        assert labels == ["sosnn_1x3", "nnbp_6x8", "mkv0", "mkv1", "mkv2"]
        assert all(c.ok for c in report.cells)
        header = (tmp_path / "out" / "summary.csv").read_text().split("\n")[0]
        for mark in (100, 200, 300):
            assert f"logK_{mark}" in header
        nnbp = report.cell("nnbp_6x8")
        assert nnbp.training_error is not None


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        config = parse_config(write_config(tmp_path, TINY_SIM))
        run_simulate(config, tmp_path / "a")
        run_simulate(config, tmp_path / "b")
        a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
        assert a.keys() == b.keys()
        assert all(a[k] == b[k] for k in a)

    def test_jobs_do_not_change_artifacts(self, tmp_path):
        config = parse_config(write_config(tmp_path, TINY_SIM))
        run_simulate(config, tmp_path / "a", jobs=1)
        run_simulate(config, tmp_path / "b", jobs=2)
        a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
        assert a.keys() == b.keys()
        assert all(a[k] == b[k] for k in a)

    def test_seed_changes_results(self, tmp_path):
        path = write_config(tmp_path, TINY_SIM)
        run_simulate(parse_config(path), tmp_path / "a")
        run_simulate(parse_config(path, seed_override=12), tmp_path / "b")
        a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
        assert a["summary.csv"] != b["summary.csv"]


class TestRerun:
    def test_rerun_replaces_previous_artifacts(self, tmp_path):
        # A backtest with an nnbp cell leaves movements.csv, series and
        # diagnostics; a smaller simulate into the same directory must leave
        # exactly what a fresh run writes, plus files the run does not own.
        make_prices(tmp_path)
        backtest = write_config(
            tmp_path, BT_TEMPLATE.format(strategies="mkv0, nnbp", extra=BT_NNBP), "bt.ini"
        )
        run_backtest(parse_config(backtest), tmp_path / "out")
        (tmp_path / "out" / "notes.txt").write_text("kept", encoding="utf-8")
        sim = write_config(tmp_path, TINY_SIM.replace("replicates = 2", "replicates = 1"))
        run_simulate(parse_config(sim), tmp_path / "out")
        run_simulate(parse_config(sim), tmp_path / "fresh")
        rerun = tree_bytes(tmp_path / "out")
        assert rerun.pop("notes.txt") == b"kept"
        assert rerun == tree_bytes(tmp_path / "fresh")

    def test_interrupted_write_leaves_no_finished_run(self, tmp_path, monkeypatch):
        # The earlier run's manifest is removed before the first file is
        # written, so a rerun stopped after it cannot pass for finished.
        path = write_config(tmp_path, TINY_SIM)
        run_simulate(parse_config(path), tmp_path / "out")
        write_lines = rundir._write_lines
        written = []

        def first_only(file, lines):
            if written:
                raise OSError("disk full")
            written.append(file)
            write_lines(file, lines)

        monkeypatch.setattr(rundir, "_write_lines", first_only)
        with pytest.raises(OSError, match="disk full"):
            run_simulate(parse_config(path, seed_override=12), tmp_path / "out")
        assert written[0].parent.name == "series"
        assert not (tmp_path / "out" / "manifest.json").exists()
        with pytest.raises(UsageError, match="does not contain a finished run"):
            run_compare([tmp_path / "out"])

    def test_simulate_rerun_with_fewer_cells(self, tmp_path):
        path = write_config(tmp_path, TINY_SIM)
        run_simulate(parse_config(path), tmp_path / "out")
        fewer = write_config(tmp_path, TINY_SIM.replace("mkv0, mkv1, sosnn", "mkv1")
                             .replace("[sosnn]\ninput_counts = 1\nhidden_counts = 2\n", ""), "b.ini")
        run_simulate(parse_config(fewer), tmp_path / "out")
        run_simulate(parse_config(fewer), tmp_path / "fresh")
        assert tree_bytes(tmp_path / "out") == tree_bytes(tmp_path / "fresh")


class TestBacktest:
    def test_full_backtest_with_nnbp(self, tmp_path):
        make_prices(tmp_path)
        config = parse_config(
            write_config(
                tmp_path, BT_TEMPLATE.format(strategies="mkv0, nnbp", extra=BT_NNBP)
            )
        )
        report = run_backtest(config, tmp_path / "out")
        names = set(tree_bytes(tmp_path / "out"))
        assert "movements.csv" in names
        assert "diagnostics/nnbp_3x4__rep0__epochs.csv" in names
        assert "diagnostics/nnbp_3x4__rep0__days.csv" in names
        assert report.cell("mkv0").ok

    def test_constant_prices_zero_log_capital(self, tmp_path):
        # Prices move through the normalization window (to 2020-02-10, day
        # index 40) and stay constant from the next day on, so every warmup
        # and investing movement is zero.
        make_prices(tmp_path, flat_from=41)
        config = parse_config(
            write_config(tmp_path, BT_TEMPLATE.format(strategies="mkv0, mkv1, sosnn", extra="""
[sosnn]
input_counts = 1
hidden_counts = 2
"""))
        )
        report = run_backtest(config, tmp_path / "out")
        for cell in report.cells:
            assert cell.ok
            assert all(v == 0.0 for v in cell.means.values())

    def test_flat_normalization_window_rejected(self, tmp_path, capsys):
        make_prices(tmp_path, constant=50.0)
        path = write_config(tmp_path, BT_TEMPLATE.format(strategies="mkv0", extra=""))
        with pytest.raises(DataError, match="no nonzero movement"):
            run_backtest(parse_config(path), tmp_path / "out")
        assert not (tmp_path / "out").exists()
        assert main(["backtest", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "no nonzero movement" in capsys.readouterr().err

    def test_determinism(self, tmp_path):
        make_prices(tmp_path)
        config = parse_config(
            write_config(tmp_path, BT_TEMPLATE.format(strategies="mkv0, mkv2", extra=""))
        )
        run_backtest(config, tmp_path / "a")
        run_backtest(config, tmp_path / "b")
        a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
        assert all(a[k] == b[k] for k in a)

    def test_investing_range_needs_history(self, tmp_path):
        make_prices(tmp_path, n=40)
        text = BT_TEMPLATE.format(strategies="mkv0", extra="").replace(
            "investing_start = 2020-02-20", "investing_start = 2020-01-03"
        ).replace("investing_end = 2020-04-19", "investing_end = 2020-02-09")
        config = parse_config(write_config(tmp_path, text))
        with pytest.raises(ConfigError, match="warmup"):
            run_backtest(config, tmp_path / "out")

    def test_manifest_written_last(self, tmp_path, monkeypatch):
        from seqbet import data

        make_prices(tmp_path)
        config = parse_config(
            write_config(tmp_path, BT_TEMPLATE.format(strategies="mkv0, nnbp", extra=BT_NNBP))
        )
        write_lines = data._write_lines
        order = []

        def recorded(path, lines):
            order.append(Path(path).relative_to(tmp_path / "out").as_posix())
            write_lines(path, lines)

        monkeypatch.setattr(data, "_write_lines", recorded)
        monkeypatch.setattr(rundir, "_write_lines", recorded)
        run_backtest(config, tmp_path / "out")
        assert order[0] == "movements.csv" and order[-1] == "manifest.json"
        assert sorted(order) == sorted(tree_bytes(tmp_path / "out"))

    def test_movements_file_matches_loader_format(self, tmp_path):
        from seqbet.data import load_movement_matrix

        make_prices(tmp_path)
        config = parse_config(
            write_config(tmp_path, BT_TEMPLATE.format(strategies="mkv0", extra=""))
        )
        run_backtest(config, tmp_path / "out")
        dates, values = load_movement_matrix(tmp_path / "out" / "movements.csv")
        assert values.shape[1] == 1
        assert np.abs(values).max() <= 1.0
        assert len(dates) == values.shape[0]
        # The file holds the very series the backtest bets on, bit for bit.
        invest, invest_dates, _ = experiments._backtest_series(config)
        assert dates == invest_dates
        assert values[:, 0].tobytes() == invest.values.tobytes()


class TestCompare:
    def make_two_runs(self, tmp_path):
        path = write_config(tmp_path, TINY_SIM)
        run_simulate(parse_config(path), tmp_path / "runA")
        run_simulate(parse_config(path, seed_override=12), tmp_path / "runB")
        return tmp_path / "runA", tmp_path / "runB"

    def test_merge_and_flags(self, tmp_path):
        a, b = self.make_two_runs(tmp_path)
        rows = run_compare([a, b], out_path=tmp_path / "merged.csv").rows
        assert len(rows) == 6
        flags = {r.labels: r.flag for r in rows}
        assert sorted(f for f in flags.values() if f) == ["*", "**"]
        merged = (tmp_path / "merged.csv").read_text().strip().split("\n")
        assert merged[0] == "run,cell,logK_50,flag,note"

    def test_tie_broken_by_earlier_run(self, tmp_path):
        path = write_config(tmp_path, TINY_SIM)
        run_simulate(parse_config(path), tmp_path / "runA")
        run_simulate(parse_config(path), tmp_path / "runB")
        rows = run_compare([tmp_path / "runA", tmp_path / "runB"]).rows
        starred = [r for r in rows if r.flag == "*"]
        assert len(starred) == 1 and starred[0].labels[0] == "runA"
        assert starred[0].note == "tie"

    def test_incompatible_checkpoints_rejected(self, tmp_path):
        path = write_config(tmp_path, TINY_SIM)
        run_simulate(parse_config(path), tmp_path / "runA")
        other = write_config(tmp_path, TINY_SIM.replace("rounds = 50", "rounds = 40"), "o.ini")
        run_simulate(parse_config(other), tmp_path / "runB")
        with pytest.raises(UsageError, match="checkpoints"):
            run_compare([tmp_path / "runA", tmp_path / "runB"])

    def test_missing_run_dir_rejected(self, tmp_path):
        with pytest.raises(UsageError, match="finished run"):
            run_compare([tmp_path / "nope"])

    @pytest.mark.parametrize("target", ["taken/m.csv", "runA", "runA/manifest.json", "runB/summary.csv"],
                             ids=["under-a-file", "directory", "manifest", "summary"])
    def test_out_that_cannot_take_the_table_exits_1(self, tmp_path, capsys, target):
        # Rejected before the table is written: a file above --out, a
        # directory at --out, or a file compare reads; no byte changes.
        a, b = self.make_two_runs(tmp_path)
        (tmp_path / "taken").write_text("kept\n", encoding="utf-8")
        before = tree_bytes(tmp_path)
        out = tmp_path / target
        assert main(["compare", str(a), str(b), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        if target == "taken/m.csv":
            assert err == f"error: cannot write m.csv into {out.parent}: {out.parent} is not a directory\n"
        else:
            assert err == f"error: cannot write the table into {out}: it is a directory or a file compare reads\n"
        assert tree_bytes(tmp_path) == before

    def test_out_into_a_new_directory(self, tmp_path):
        a, b = self.make_two_runs(tmp_path)
        merged = tmp_path / "new" / "merged.csv"
        run_compare([a, b], out_path=merged)
        assert merged.read_text().startswith("run,cell,logK_50,flag,note\n")

    @pytest.mark.parametrize("encoding, newline", [("utf-8-sig", "\n"), ("utf-8", "\r\n"), ("utf-8-sig", "\r\n")],
                             ids=["byte-order-mark", "crlf", "both"])
    def test_summary_read_as_plain(self, tmp_path, encoding, newline):
        # A summary saved by a tool that marks or re-ends its lines compares
        # as the run wrote it.
        path = write_config(tmp_path, TINY_SIM)
        run_simulate(parse_config(path), tmp_path / "run")
        plain = rundir.read_run(tmp_path / "run")
        summary = tmp_path / "run" / "summary.csv"
        summary.write_bytes(summary.read_text(encoding="utf-8").replace("\n", newline).encode(encoding))
        assert rundir.read_run(tmp_path / "run") == plain

    @pytest.mark.parametrize(
        "name, old, new",
        [
            ("manifest.json", None, "{not json"),
            ("manifest.json", '"checkpoints"', '"marks"'),
            ("summary.csv", ",status,", ",state,"),
            ("summary.csv", ",logK_50,", ",logK_x,"),
            ("summary.csv", "mkv1,ok,,", "mkv1,ok,,abc"),
        ],
        ids=["manifest-not-json", "no-checkpoints", "no-status", "no-logK", "non-numeric"],
    )
    def test_malformed_run_exits_1(self, tmp_path, capsys, name, old, new):
        path = write_config(tmp_path, TINY_SIM)
        run_simulate(parse_config(path), tmp_path / "run")
        target = tmp_path / "run" / name
        text = target.read_text()
        target.write_text(new if old is None else text.replace(old, new, 1))
        assert main(["compare", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {target}")


class TestFailureMarking:
    def test_failed_cell_recorded_not_raised(self, tmp_path, monkeypatch):
        # SOSNN refits that turn non-finite mark their cell failed, not a
        # crashed run; the healthy cells still report.
        import seqbet.experiments as exp
        from seqbet.errors import NumericError

        def explode(series, configs):
            return [NumericError("round 7: non-finite objective")] * len(configs)

        monkeypatch.setattr(exp, "run_sosnn_replicates", explode)
        config = parse_config(write_config(tmp_path, TINY_SIM))
        report = run_simulate(config, tmp_path / "out")
        summary = {c.label: c for c in report.cells}
        assert summary["mkv0"].ok
        assert not summary["sosnn_1x2"].ok
        assert "non-finite" in summary["sosnn_1x2"].reason
        text_table = (tmp_path / "out" / "summary.txt").read_text()
        assert "---" in text_table and "failed" in text_table
        summary_csv = (tmp_path / "out" / "summary.csv").read_text()
        assert "failed" in summary_csv
        rows = run_compare([tmp_path / "out"]).rows
        failed = [r for r in rows if not r.ok]
        assert failed and all(r.flag == "" for r in failed)
        flagged = [r for r in rows if r.flag]
        assert flagged and all(r.ok for r in flagged)

    def test_read_run_returns_what_the_run_wrote(self, tmp_path, monkeypatch):
        # The reader against the writer: the checkpoints and every ok cell's
        # means bit for bit, and the failed cell with no values.
        from seqbet.errors import NumericError

        def explode(series, configs):
            return [NumericError("round 7: non-finite objective")] * len(configs)

        monkeypatch.setattr(experiments, "run_sosnn_replicates", explode)
        report = run_simulate(parse_config(write_config(tmp_path, TINY_SIM)), tmp_path / "out")
        checkpoints, rows = rundir.read_run(tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert checkpoints == manifest["checkpoints"] == report.checkpoints
        assert [cell for cell, _, _ in rows] == [c.label for c in report.cells]
        for (_, ok, values), summary in zip(rows, report.cells):
            assert ok == summary.ok
            hexes = {c: v.hex() for c, v in values.items()}
            assert hexes == {c: v.hex() for c, v in summary.means.items()}
        assert [ok for _, ok, _ in rows] == [True, True, False]
        assert rows[-1] == ("sosnn_1x2", False, {})


# MKV cells only reach the tables below: every sosnn replicate fails.
TABLE_SIM = TINY_SIM.replace("rounds = 50", "rounds = 120").replace(
    "mkv0, mkv1, sosnn", "mkv0, mkv1, mkv2, sosnn"
)

RUN_TABLE = """\
cell       logK@100  logK@120  flag  note
mkv0       -1.327    -1.240
mkv1       9.475     11.825    *
mkv2       7.943     10.220    **
sosnn_1x2  ---       ---             failed: round 7: non-finite objective, step 3
"""

COMPARE_TABLE = """\
run   cell       logK@100  logK@120  flag  note
runA  mkv0       -1.327    -1.240          tie
runA  mkv1       9.475     11.825    *     tie
runA  mkv2       7.943     10.220          tie
runA  sosnn_1x2  ---       ---
runB  mkv0       -1.327    -1.240          tie
runB  mkv1       9.475     11.825    **    tie
runB  mkv2       7.943     10.220          tie
runB  sosnn_1x2  ---       ---
"""

COMPARE_CSV = """\
run,cell,logK_100,logK_120,flag,note
runA,mkv0,-1.327212189843148,-1.2401689816704482,,tie
runA,mkv1,9.474858210834599,11.82477183008134,*,tie
runA,mkv2,7.943128379471899,10.219817422894266,,tie
runA,sosnn_1x2,---,---,,
runB,mkv0,-1.327212189843148,-1.2401689816704482,,tie
runB,mkv1,9.474858210834599,11.82477183008134,**,tie
runB,mkv2,7.943128379471899,10.219817422894266,,tie
runB,sosnn_1x2,---,---,,
"""


class TestTableBytes:
    """The ranked tables byte for byte: the run table with a failed cell, and
    the compare table and CSV of two runs whose every ok cell ties."""

    @pytest.fixture
    def runs(self, tmp_path, monkeypatch):
        from seqbet.errors import NumericError

        def explode(series, configs):
            return [NumericError("round 7: non-finite objective, step 3")] * len(configs)

        monkeypatch.setattr(experiments, "run_sosnn_replicates", explode)
        path = write_config(tmp_path, TABLE_SIM)
        for name in ("runA", "runB"):
            run_simulate(parse_config(path), tmp_path / name)
        return tmp_path / "runA", tmp_path / "runB"

    def test_run_table_with_a_failed_cell(self, runs, capsys, tmp_path):
        assert runs[0].joinpath("summary.txt").read_text() == RUN_TABLE
        path = write_config(tmp_path, TABLE_SIM)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "runC")]) == 0
        assert capsys.readouterr().out.startswith(RUN_TABLE + "# wrote ")

    def test_compare_of_two_tied_runs(self, runs, capsys, tmp_path):
        merged = tmp_path / "merged.csv"
        assert main(["compare", *map(str, runs), "--out", str(merged)]) == 0
        assert capsys.readouterr().out == COMPARE_TABLE
        assert merged.read_text() == COMPARE_CSV


ARTIFACT_SIM = """
[experiment]
mode = simulate
seed = 11
rounds = 30
warmup = 5
replicates = 3
strategies = mkv0, nnbp

[data]
generator = ar1

[nnbp]
input_count = 2
hidden_count = 3
max_steps = 4000
error_threshold = 0.3
training_rounds = 40
"""

# SHA-256 of each file; replicate 0 meets the threshold after 10 epochs and
# leaves the stack, replicates 1 and 2 run to the step cap (105 epochs).
ARTIFACT_SHA256 = {
    "diagnostics/nnbp_2x3__rep0__days.csv": "18ac11b6e9c0c7b068da256e886fadc4126c9d26f926a1d2c475c440091af59f",
    "diagnostics/nnbp_2x3__rep0__epochs.csv": "aeadc58f064924c1e0ad669b1b311c4d1695315bb40efd3b19172232c2ada599",
    "diagnostics/nnbp_2x3__rep1__days.csv": "1ec7fb66d2761035e4e162316fea2e969eb1b804242dc66f117f9788a12f85c7",
    "diagnostics/nnbp_2x3__rep1__epochs.csv": "3a014a48fbf5bdce8241e321ca98358bac62ee2361960ae0054048603da0df21",
    "diagnostics/nnbp_2x3__rep2__days.csv": "d288c413c9fddeccbe838093ab5d64648eaa0a11c6866bd142b05928aed87d29",
    "diagnostics/nnbp_2x3__rep2__epochs.csv": "7fa376a970aa70d891762bbedeaaef7fc827fefcbc92f39c0a69d27f240f9314",
    "manifest.json": "1a79264311b36ed419f71af0fbf2724a13b177e2dffe572ccff258f877215a63",
}


class TestArtifactBytes:
    """The NNBP diagnostics files and the manifest of a small simulate run,
    byte for byte; `tests/test_golden.py` hashes neither."""

    def test_diagnostics_and_manifest_digests(self, tmp_path):
        run_simulate(parse_config(write_config(tmp_path, ARTIFACT_SIM)), tmp_path / "out")
        files = tree_bytes(tmp_path / "out")
        digests = {
            name: hashlib.sha256(blob).hexdigest()
            for name, blob in files.items()
            if name.startswith("diagnostics/") or name == "manifest.json"
        }
        assert digests == ARTIFACT_SHA256
        epochs = files["diagnostics/nnbp_2x3__rep0__epochs.csv"].decode().splitlines()
        assert epochs[0] == "epoch,training_error" and epochs[-1].startswith("10,")


class TestNewlines:
    def test_every_line_ends_with_a_bare_newline(self, tmp_path, monkeypatch):
        # Text mode on Windows would end each line with os.linesep; the
        # pure-Python `io` honours a patched one, so this emulates it here.
        import _pyio

        from seqbet import data

        monkeypatch.setattr(os, "linesep", "\r\n")
        monkeypatch.setattr(data, "open", _pyio.open, raising=False)
        make_prices(tmp_path)
        backtest = BT_TEMPLATE.format(strategies="mkv0, nnbp", extra=BT_NNBP)
        run_backtest(parse_config(write_config(tmp_path, backtest, "bt.ini")), tmp_path / "bt")
        run_simulate(parse_config(write_config(tmp_path, TINY_SIM)), tmp_path / "sim")
        run_compare([tmp_path / "sim"], out_path=tmp_path / "sim" / "compare.csv")
        files = {**tree_bytes(tmp_path / "bt"), **tree_bytes(tmp_path / "sim")}
        assert {"movements.csv", "diagnostics/nnbp_3x4__rep0__days.csv", "summary.txt",
                "compare.csv", "manifest.json"} <= files.keys()
        for name, blob in files.items():
            assert blob.endswith(b"\n") and b"\r" not in blob, name


class TestGeneratedSeries:
    def test_each_series_generated_once(self, tmp_path, monkeypatch):
        # One call per replicate's betting series and one per NNBP training
        # series, however many cells bet on them.
        import seqbet.experiments as exp

        lengths = []
        gen_ar1 = exp.gen_ar1

        def counted(n, noise):
            lengths.append(n)
            return gen_ar1(n, noise)

        monkeypatch.setattr(exp, "gen_ar1", counted)
        text = TINY_SIM.replace("mkv1, sosnn", "mkv1, sosnn, nnbp")
        # The step cap only keeps the run short; training is not under test.
        text += "[nnbp]\ninput_count = 2\nhidden_count = 2\ntraining_rounds = 40\nmax_steps = 2000\n"
        config = parse_config(write_config(tmp_path, text))
        report = run_simulate(config, tmp_path / "out")
        assert len(report.cells) == 4 and all(c.ok for c in report.cells)
        assert sorted(lengths) == [40, 40, 55, 55]

    def test_rejected_series_fails_the_run(self, tmp_path, monkeypatch, capsys):
        # An all-zero series has no normalization rule: a data error for the
        # whole run, raised before the output directory exists.
        import seqbet.experiments as exp

        monkeypatch.setattr(exp, "gen_ar1", lambda n, noise: np.zeros(n))
        path = write_config(tmp_path, TINY_SIM)
        with pytest.raises(DataError, match="no nonzero movement"):
            run_simulate(parse_config(path), tmp_path / "out")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "no nonzero movement" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCellTasks:
    """A task is one cell with all its replicates."""

    def test_cell_task_matches_each_replicate_alone(self, tmp_path):
        config = parse_config(
            write_config(tmp_path, TINY_SIM.replace("replicates = 2", "replicates = 3"))
        )
        specs = _task_specs(config, *_generated_series(config))
        spec = next(s for s in specs if s.label == "sosnn_1x2")
        cell = _run_task(spec)
        assert (cell.label, cell.ok, len(cell.replicates)) == ("sosnn_1x2", True, 3)
        per_replicate = []
        for r, (run, diag) in enumerate(cell.replicates):
            alone = run_sosnn(spec.series[r], spec.configs[r])
            np.testing.assert_array_equal(run.ratios, alone.ratios)
            np.testing.assert_array_equal(run.log_capital_path, alone.log_capital_path)
            assert diag is None
            per_replicate.append(float(np.mean([d.iterations for d in alone.diagnostics])))
        assert cell.mean_iterations == float(np.mean(per_replicate))

    def test_failing_replicate_fails_only_itself(self, tmp_path, monkeypatch):
        # Poison the objective of replicate 1's refit at its 7th history
        # round. That replicate must fail with the reason its run alone
        # raises; the other replicates of the cell must still finish.
        import seqbet.sosnn as sosnn
        from seqbet.errors import NumericError

        config = parse_config(
            write_config(tmp_path, TINY_SIM.replace("replicates = 2", "replicates = 3"))
        )
        specs = _task_specs(config, *_generated_series(config))
        spec = next(s for s in specs if s.label == "sosnn_1x2")
        marker = spec.series[1].values[config.warmup]
        evaluate = sosnn._evaluate

        def poisoned(windows, moves, *args):
            values, state = evaluate(windows, moves, *args)
            values[(moves[:, 0, 0] == marker) & (moves.shape[1] == 7)] = np.nan
            return values, state

        monkeypatch.setattr(sosnn, "_evaluate", poisoned)
        cell = _run_task(spec)
        reason = "round 13: non-finite objective or gradient at ascent step 0"
        assert (cell.ok, cell.reason, cell.replicates[1]) == (False, reason, reason)
        with pytest.raises(NumericError) as info:
            run_sosnn(spec.series[1], spec.configs[1])
        assert str(info.value) == reason
        for r in (0, 2):
            alone = run_sosnn(spec.series[r], spec.configs[r])
            np.testing.assert_array_equal(cell.replicates[r][0].ratios, alone.ratios)

        report = run_simulate(config, tmp_path / "out")
        assert not report.cell("sosnn_1x2").ok
        assert report.cell("sosnn_1x2").reason == reason
        series = sorted(p.name for p in (tmp_path / "out" / "series").glob("sosnn_1x2__*"))
        assert series == ["sosnn_1x2__rep0.csv", "sosnn_1x2__rep2.csv"]

    def test_cells_submitted_longest_first(self, tmp_path):
        text = (
            TINY_SIM.replace("mkv0, mkv1, sosnn", "mkv0, sosnn, nnbp")
            .replace("input_counts = 1", "input_counts = 1, 2")
            .replace("hidden_counts = 2", "hidden_counts = 2, 3")
            + "[nnbp]\ninput_count = 2\nhidden_count = 3\n"
        )
        config = parse_config(write_config(tmp_path, text))
        assert [label for label, _ in config.cells] == [
            "mkv0", "sosnn_1x2", "sosnn_1x3", "sosnn_2x2", "sosnn_2x3", "nnbp_2x3"
        ]
        specs = _task_specs(config, *_generated_series(config))
        assert [s.label for s in specs] == [
            "nnbp_2x3", "sosnn_2x3", "sosnn_1x3", "sosnn_2x2", "sosnn_1x2", "mkv0"
        ]
        assert all(len(s.configs) == len(s.series) == 2 for s in specs)
        roles = {"nnbp_2x3": (3,), "sosnn_2x3": (1, 2, 3), "sosnn_1x3": (1, 1, 3),
                 "sosnn_2x2": (1, 2, 2), "sosnn_1x2": (1, 1, 2)}
        for spec in specs:
            if spec.label in roles:
                seeds = [derive_seed(11, r, *roles[spec.label]) for r in range(2)]
                assert [c.seed for c in spec.configs] == seeds
            else:
                assert spec.configs == [MarkovOrder(0)] * 2
            assert (spec.training is not None) == (spec.label == "nnbp_2x3")


class TestPool:
    def test_at_most_one_worker_per_cell(self, tmp_path, monkeypatch):
        # A stand-in pool that records its size and runs each submitted
        # cell in this process, so no worker is ever started.
        import concurrent.futures

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, spec):
                future = concurrent.futures.Future()
                future.set_result(fn(spec))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        config = parse_config(write_config(tmp_path, TINY_SIM))
        specs = _task_specs(config, *_generated_series(config))
        assert len(specs) == 3
        cells = experiments._execute(specs, 16)
        assert [cell.label for cell in cells] == [spec.label for spec in specs]
        experiments._execute(specs, 2)
        assert sizes == [3, 2]

    def test_failing_cell_stops_the_queued_cells(self, tmp_path, monkeypatch, capsys):
        # The patches reach the forked workers, and each cell's stand-in
        # records its start in a file. NNBP is submitted first and fails at
        # once; the SOSNN cells are slow. The MKV cells, submitted last,
        # must never start.
        import multiprocessing
        import time

        from seqbet.errors import NumericError

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the stand-ins reach pool workers only through fork")
        started = tmp_path / "started"
        started.mkdir()

        def fail_training(training, configs):
            (started / "nnbp").touch()
            raise UsageError("no training series")

        def slow_sosnn(series, configs):
            (started / f"sosnn_{configs[0].net.input_count}x{configs[0].net.hidden_count}").touch()
            time.sleep(0.5)
            return [NumericError("stand-in")] * len(configs)

        def record_mkv(series, order, warmup):
            (started / f"mkv{order.order}").touch()
            raise AssertionError("an MKV cell started")

        monkeypatch.setattr(experiments, "train_replicates", fail_training)
        monkeypatch.setattr(experiments, "run_sosnn_replicates", slow_sosnn)
        monkeypatch.setattr(experiments, "run_mkv", record_mkv)
        text = (
            TINY_SIM.replace("mkv0, mkv1, sosnn", "sosnn, nnbp, mkv0, mkv1, mkv2")
            .replace("input_counts = 1", "input_counts = 1, 2")
            .replace("hidden_counts = 2", "hidden_counts = 2, 3")
            + "[nnbp]\ninput_count = 2\nhidden_count = 3\n"
        )
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out), "--jobs", "2"]) == 1
        assert capsys.readouterr().err == "error: no training series\n"
        names = sorted(p.name for p in started.iterdir())
        assert "nnbp" in names and not [name for name in names if name.startswith("mkv")]
        assert not out.exists()


class TestImports:
    def test_no_pool_machinery_until_a_pool_runs(self):
        # A fresh interpreter, because this one may already hold the pool
        # modules from a --jobs 2 test.
        src = str(Path(experiments.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import sys, seqbet, seqbet.experiments, seqbet.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "[]"


class TestCli:
    def test_simulate_roundtrip_exit_codes(self, tmp_path, capsys):
        path = write_config(tmp_path, TINY_SIM)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "logK@50" in out

    def test_seed_flag_reaches_the_config_copy(self, tmp_path):
        # The manifest's config copy, written back as an INI file, reruns the
        # --seed run byte for byte.
        path = write_config(tmp_path, TINY_SIM)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "a"), "--seed", "12"]) == 0
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["seed"] == 12 and manifest["config"]["experiment"]["seed"] == "12"
        copy = "".join(
            f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in items.items())
            for name, items in manifest["config"].items()
        )
        rerun = write_config(tmp_path, copy, "copy.ini")
        assert main(["simulate", "--config", str(rerun), "--out", str(tmp_path / "b")]) == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_bad_config_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, TINY_SIM.replace("mkv0, mkv1, sosnn", "mkv9"))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            (TINY_SIM + "weight_tolerance = 0\n",
             "error: [sosnn] weight_tolerance must be positive and finite, got 0.0"),
            (TINY_SIM.replace("mkv0, mkv1, sosnn", "mkv0, nnbp").split("[sosnn]")[0]
             + "[nnbp]\ninput_count = 2\nhidden_count = 3\nlearning_rate = -1\n",
             "error: [nnbp] learning_rate must be positive and finite, got -1.0"),
            (TINY_SIM + "weight_tolerance = nan\n",
             "error: [sosnn] weight_tolerance must be positive and finite, got nan"),
            (TINY_SIM.replace("mkv0, mkv1, sosnn", "mkv0, nnbp").split("[sosnn]")[0]
             + "[nnbp]\ninput_count = 2\nhidden_count = 3\nlearning_rate = nan\n",
             "error: [nnbp] learning_rate must be positive and finite, got nan"),
            (TINY_SIM.replace("mkv0, mkv1, sosnn", "mkv0, nnbp").split("[sosnn]")[0]
             + "[nnbp]\ninput_count = 3\nhidden_count = 2\ntraining_rounds = 3\n",
             "error: [nnbp_3x2] training series of length 3 leaves no sample after a window of 3"),
            (TINY_SIM.replace("mkv0, mkv1, sosnn", "mkv0, nnbp").split("[sosnn]")[0]
             + "[nnbp]\ninput_count = 3\nhidden_count = 2\ntraining_rounds = 0\n",
             "error: [nnbp] training_rounds must be >= 1, got 0"),
        ],
        ids=["zero-tolerance", "negative-rate", "nan-tolerance", "nan-rate", "training-rounds",
             "no-training-rounds"],
    )
    def test_invalid_strategy_value_exits_1(self, tmp_path, capsys, text, message):
        path = write_config(tmp_path, text)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.strip() == message
        assert not (tmp_path / "o").exists()

    def test_training_rounds_in_backtest_exits_1(self, tmp_path, capsys):
        make_prices(tmp_path)
        text = BT_TEMPLATE.format(strategies="nnbp", extra=BT_NNBP + "training_rounds = 100\n")
        path = write_config(tmp_path, text)
        assert main(["backtest", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: [nnbp] training_rounds")
        assert not (tmp_path / "o").exists()

    def test_missing_config_exits_1(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "no.ini"), "--out", "o"]) == 1

    def test_wrong_mode_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, TINY_SIM)
        assert main(["backtest", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "error: config declares mode 'simulate' but the command is 'backtest'\n"
        )

    def test_each_runner_rejects_the_other_mode(self, tmp_path):
        make_prices(tmp_path)
        simulate = parse_config(write_config(tmp_path, TINY_SIM))
        backtest = parse_config(write_config(tmp_path, BT_TEMPLATE.format(strategies="mkv0", extra=""), "bt.ini"))
        for runner, config, command in ((run_backtest, simulate, "backtest"), (run_simulate, backtest, "simulate")):
            with pytest.raises(ConfigError) as info:
                runner(config, tmp_path / "o")
            assert str(info.value) == f"config declares mode '{config.mode}' but the command is '{command}'"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("jobs", [0, -5])
    def test_jobs_below_1_rejected_before_any_cell(self, tmp_path, monkeypatch, jobs):
        def broken(*args):
            raise RuntimeError("a cell ran")

        monkeypatch.setattr(experiments, "run_mkv", broken)
        monkeypatch.setattr(experiments, "run_sosnn_replicates", broken)
        config = parse_config(write_config(tmp_path, TINY_SIM))
        with pytest.raises(UsageError) as info:
            run_simulate(config, tmp_path / "o", jobs=jobs)
        assert str(info.value) == f"jobs must be >= 1, got {jobs}"
        assert main(["simulate", "--config", str(tmp_path / "exp.ini"), "--out", str(tmp_path / "o"),
                     "--jobs", str(jobs)]) == 1
        assert not (tmp_path / "o").exists()

    def test_usage_error_exits_1(self, capsys):
        assert main(["simulate", "--out", "x"]) == 1

    def test_internal_error_exits_2_with_traceback(self, tmp_path, capsys, monkeypatch):
        # The error stops the run before it touches --out: a previous run's
        # directory keeps every byte, and a fresh run creates no directory.
        path = write_config(tmp_path, TINY_SIM)
        previous, fresh = tmp_path / "previous", tmp_path / "fresh"
        assert main(["simulate", "--config", str(path), "--out", str(previous)]) == 0
        before = tree_bytes(previous)

        def broken(*args):
            raise RuntimeError("bug inside a cell")

        monkeypatch.setattr(experiments, "run_mkv", broken)
        for out in (previous, fresh):
            capsys.readouterr()
            assert main(["simulate", "--config", str(path), "--out", str(out), "--jobs", "1"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("Traceback (most recent call last):")
            assert err.rstrip().endswith("RuntimeError: bug inside a cell")
        assert tree_bytes(previous) == before
        assert not fresh.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_short_training_exits_1_before_any_cell(self, tmp_path, capsys, monkeypatch, jobs):
        # 3 training movements leave no sample after NNBP's 3-movement
        # window. The parser cannot see it; the run rejects it before its
        # first cell starts (a cell that started would exit 2 here).
        def broken(*args):
            raise RuntimeError("a cell ran")

        monkeypatch.setattr(experiments, "train_replicates", broken)
        monkeypatch.setattr(experiments, "run_mkv", broken)
        make_prices(tmp_path)
        text = BT_TEMPLATE.format(strategies="nnbp, mkv0", extra=BT_NNBP)
        path = write_config(tmp_path, text.replace("training_end = 2020-02-10", "training_end = 2020-01-04"))
        message = "[nnbp_3x4] training series of length 3 leaves no sample after a window of 3"
        with pytest.raises(ConfigError) as info:
            run_backtest(parse_config(path), tmp_path / "o")
        assert str(info.value) == message
        assert main(["backtest", "--config", str(path), "--out", str(tmp_path / "o"), "--jobs", jobs]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (BT_TEMPLATE.format(strategies="mkv0", extra="").replace(
                "normalization_start = 2020-01-02", "normalization_start = 2021-01-01").replace(
                "normalization_end = 2020-02-10", "normalization_end = 2021-02-01"),
             "[data] normalization range selects no movements"),
            (BT_TEMPLATE.format(strategies="mkv0", extra="").replace(
                "investing_start = 2020-02-20", "investing_start = 2021-01-01").replace(
                "investing_end = 2020-04-19", "investing_end = 2021-02-01"),
             "[data] investing range selects no movements"),
            (BT_TEMPLATE.format(strategies="nnbp", extra=BT_NNBP).replace(
                "training_start = 2020-01-02", "training_start = 2019-01-01").replace(
                "training_end = 2020-02-10", "training_end = 2019-02-01"),
             "[data] training range selects no movements"),
        ],
        ids=["normalization", "investing", "training"],
    )
    def test_empty_date_range_exits_1(self, tmp_path, capsys, text, message):
        make_prices(tmp_path)
        path = write_config(tmp_path, text)
        assert main(["backtest", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_warmup_longer_than_the_movements_before_investing_exits_1(self, tmp_path, capsys):
        # 60 days of prices leave 49 movements before the investing range.
        make_prices(tmp_path, n=60)
        text = BT_TEMPLATE.format(strategies="mkv0", extra="").replace("warmup = 6", "warmup = 50")
        path = write_config(tmp_path, text)
        assert main(["backtest", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "error: [data] only 49 movements precede the investing range; warmup needs 50\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_out_that_cannot_be_a_directory_exits_1(self, tmp_path, capsys, monkeypatch, sub):
        # A file at --out, or above it, is a usage error found before any
        # cell runs (a cell would exit 2 here); the file keeps its bytes.
        def broken(*args):
            raise RuntimeError("a cell ran")

        monkeypatch.setattr(experiments, "run_mkv", broken)
        path = write_config(tmp_path, TINY_SIM)
        taken = tmp_path / "taken"
        taken.write_text("kept\n", encoding="utf-8")
        out = taken / sub
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot write the run into {out}: {taken} is not a directory\n"
        )
        assert taken.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("case", [
        "sosnn-init-scale-inf", "nnbp-init-scale-1e308", "nnbp-learning-rate-inf", "sosnn-initial-rate-inf",
        "config-not-utf8", "prices-not-utf8", "summary-not-utf8", "no-price-file",
    ])
    def test_bad_input_exits_1_before_any_cell(self, tmp_path, capsys, monkeypatch, case):
        # Each of these once ended in exit 2 or a failed cell. A usage,
        # configuration or data error exits 1, naming the file or the
        # [section] key, before a cell starts (a cell would exit 2 here) and
        # before --out exists.
        nnbp = TINY_SIM.replace("mkv0, mkv1, sosnn", "mkv0, nnbp").split("[sosnn]")[0]
        nnbp += "[nnbp]\ninput_count = 2\nhidden_count = 3\n"
        texts = {
            "sosnn-init-scale-inf": (TINY_SIM + "init_scale = inf\n", "[sosnn] init_scale", "inf"),
            "nnbp-init-scale-1e308": (nnbp + "init_scale = 1e308\n", "[nnbp] init_scale", "1e+308"),
            "nnbp-learning-rate-inf": (nnbp + "learning_rate = inf\n", "[nnbp] learning_rate", "inf"),
            "sosnn-initial-rate-inf": (TINY_SIM + "initial_rate = inf\n", "[sosnn] initial_rate", "inf"),
        }
        out = tmp_path / "o"
        if case in texts:
            text, key, value = texts[case]
            argv = ["simulate", "--config", str(write_config(tmp_path, text)), "--out", str(out)]
            message = f"{key} must be positive and finite, got {value}"
        elif case == "config-not-utf8":
            path = tmp_path / "exp.ini"
            path.write_bytes(b"# caf\xe9\n" + TINY_SIM.encode())
            argv = ["simulate", "--config", str(path), "--out", str(out)]
            message = f"{path}: is not UTF-8 text: invalid continuation byte at byte 5"
        elif case == "summary-not-utf8":
            run_simulate(parse_config(write_config(tmp_path, TINY_SIM)), tmp_path / "run")
            path = tmp_path / "run" / "summary.csv"
            size = len(path.read_bytes())
            path.write_bytes(path.read_bytes() + b"\xff\n")
            argv = ["compare", str(tmp_path / "run"), "--out", str(out)]
            message = f"{path}: is not UTF-8 text: invalid start byte at byte {size}"
        else:
            prices = (tmp_path / "prices.csv").resolve()
            if case == "prices-not-utf8":
                make_prices(tmp_path)
                prices.write_bytes(b"date,clos\xe9\n" + prices.read_bytes())
                message = f"{prices}: is not UTF-8 text: invalid continuation byte at byte 9"
            else:
                message = f"{prices}: cannot be read: No such file or directory"
            path = write_config(tmp_path, BT_TEMPLATE.format(strategies="mkv0", extra=""))
            argv = ["backtest", "--config", str(path), "--out", str(out)]

        def broken(*args):
            raise RuntimeError("a cell ran")

        for name in ("run_mkv", "run_sosnn_replicates", "train_replicates"):
            monkeypatch.setattr(experiments, name, broken)
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_compare_cli(self, tmp_path, capsys):
        path = write_config(tmp_path, TINY_SIM)
        main(["simulate", "--config", str(path), "--out", str(tmp_path / "a")])
        main(["simulate", "--config", str(path), "--out", str(tmp_path / "b")])
        capsys.readouterr()
        rc = main(
            ["compare", str(tmp_path / "a"), str(tmp_path / "b"), "--out", str(tmp_path / "m.csv")]
        )
        assert rc == 0
        assert (tmp_path / "m.csv").is_file()
        assert "flag" in capsys.readouterr().out
