"""Config validation, artifact layout, determinism, compare, CLI exit codes."""

import datetime
import json

import numpy as np
import pytest

from seqbet.cli import main
from seqbet.errors import ConfigError, DataError, UsageError
from seqbet.experiments import (
    _run_task,
    _series,
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

    def test_window_larger_than_warmup(self, tmp_path):
        bad = TINY_SIM.replace("input_counts = 1", "input_counts = 9")
        with pytest.raises(ConfigError, match="warmup"):
            parse_config(write_config(tmp_path, bad))

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

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("rounds = 50", "rounds = many", "[experiment] rounds must be an integer, got 'many'"),
            ("input_counts = 1", "input_counts = 1, a",
             "[sosnn] input_counts must be a comma list of integers"),
            ("input_counts = 1", "input_counts = ,", "[sosnn] input_counts must not be empty"),
            ("strategies = mkv0, mkv1, sosnn", "strategies = ,",
             "[experiment] strategies must not be empty"),
            ("hidden_counts = 2", "hidden_counts = 2\ninitial_rate = fast",
             "[sosnn] initial_rate must be a number, got 'fast'"),
            ("hidden_counts = 2", "hidden_counts = 2\nwarm_start = maybe",
             "[sosnn] warm_start must be a boolean, got 'maybe'"),
            ("hidden_counts = 2\n", "", "[sosnn] is missing required key 'hidden_counts'"),
        ],
    )
    def test_value_errors_name_section_and_key(self, tmp_path, old, new, message):
        with pytest.raises(ConfigError) as info:
            parse_config(write_config(tmp_path, TINY_SIM.replace(old, new)))
        assert str(info.value) == message

    def test_bad_date_named(self, tmp_path):
        make_prices(tmp_path)
        text = BT_TEMPLATE.format(strategies="mkv0", extra="").replace(
            "investing_end = 2020-04-19", "investing_end = 2020-04-31"
        )
        with pytest.raises(ConfigError) as info:
            parse_config(write_config(tmp_path, text))
        assert str(info.value) == "[data] investing_end must be an ISO date, got '2020-04-31'"

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("hidden_counts = 2", "hidden_counts = 2\nweight_tolerance = 0",
             "[sosnn] weight_tolerance must be positive"),
            ("hidden_counts = 2", "hidden_counts = 2\nweight_tolerance = nan",
             "[sosnn] weight_tolerance must be positive"),
            ("hidden_counts = 2", "hidden_counts = 2\ninit_scale = nan",
             "[sosnn] init_scale must be positive"),
            ("hidden_counts = 2", "hidden_counts = 2\nmax_iterations = 0",
             "[sosnn] max_iterations must be >= 1"),
            ("hidden_counts = 2", "hidden_counts = 2\ninit_scale = -0.1",
             "[sosnn] init_scale must be positive"),
            ("hidden_counts = 2", "hidden_counts = 2\ndecay_steps = 0",
             "[sosnn] annealing parameters must be strictly positive"),
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
            ("learning_rate = -1", "learning_rate must be positive"),
            ("learning_rate = nan", "learning_rate must be positive"),
            ("error_threshold = 0", "error_threshold must be positive"),
            ("error_threshold = nan", "error_threshold must be positive"),
            ("init_scale = nan", "init_scale must be positive"),
            ("max_steps = 0", "max_steps must be >= 1"),
            ("init_scale = -1", "init_scale must be positive"),
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


class TestCompare:
    def make_two_runs(self, tmp_path):
        path = write_config(tmp_path, TINY_SIM)
        run_simulate(parse_config(path), tmp_path / "runA")
        run_simulate(parse_config(path, seed_override=12), tmp_path / "runB")
        return tmp_path / "runA", tmp_path / "runB"

    def test_merge_and_flags(self, tmp_path):
        a, b = self.make_two_runs(tmp_path)
        rows = run_compare([a, b], out_path=tmp_path / "merged.csv")
        assert len(rows) == 6
        flags = {(r.run, r.cell): r.flag for r in rows}
        assert sorted(f for f in flags.values() if f) == ["*", "**"]
        merged = (tmp_path / "merged.csv").read_text().strip().split("\n")
        assert merged[0] == "run,cell,logK_50,flag,note"

    def test_tie_broken_by_earlier_run(self, tmp_path):
        path = write_config(tmp_path, TINY_SIM)
        run_simulate(parse_config(path), tmp_path / "runA")
        run_simulate(parse_config(path), tmp_path / "runB")
        rows = run_compare([tmp_path / "runA", tmp_path / "runB"])
        starred = [r for r in rows if r.flag == "*"]
        assert len(starred) == 1 and starred[0].run == "runA"
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


class TestFailureMarking:
    def test_failed_cell_recorded_not_raised(self, tmp_path, monkeypatch):
        # A strategy that blows up at run time becomes a marked cell, not a
        # crashed run; the healthy cells still report.
        import seqbet.experiments as exp
        from seqbet.errors import NumericError

        def explode(*args, **kwargs):
            raise NumericError("round 7: non-finite objective")

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
        rows = run_compare([tmp_path / "out"])
        failed = [r for r in rows if not r.ok]
        assert failed and all(r.flag == "" for r in failed)
        flagged = [r for r in rows if r.flag]
        assert flagged and all(r.ok for r in flagged)


class TestCellTasks:
    """A task is one cell with all its replicates."""

    def test_cell_task_matches_each_replicate_alone(self, tmp_path):
        config = parse_config(
            write_config(tmp_path, TINY_SIM.replace("replicates = 2", "replicates = 3"))
        )
        spec = next(s for s in _task_specs(config) if s.label == "sosnn_1x2")
        results = _run_task(spec)
        assert [(r.label, r.replicate, r.ok) for r in results] == [
            ("sosnn_1x2", r, True) for r in range(3)
        ]
        for r, result in enumerate(results):
            alone = run_sosnn(_series(spec.series[r], f"rep{r}"), spec.configs[r])
            np.testing.assert_array_equal(result.ratios, alone.ratios)
            np.testing.assert_array_equal(result.log_capital_path, alone.log_capital_path)
            iters = [d.iterations for d in alone.diagnostics]
            assert result.mean_iterations == float(np.mean(iters))

    def test_failing_replicate_fails_only_itself(self, tmp_path, monkeypatch):
        # Poison the objective of replicate 1's refit at its 7th history
        # round. That replicate must fail with the reason its run alone
        # raises; the other replicates of the cell must still finish.
        import seqbet.sosnn as sosnn
        from seqbet.errors import NumericError

        config = parse_config(
            write_config(tmp_path, TINY_SIM.replace("replicates = 2", "replicates = 3"))
        )
        spec = next(s for s in _task_specs(config) if s.label == "sosnn_1x2")
        marker = _series(spec.series[1], "rep1").values[config.warmup]
        evaluate = sosnn._evaluate

        def poisoned(windows, moves, *args):
            values, state = evaluate(windows, moves, *args)
            values[(moves[:, 0, 0] == marker) & (moves.shape[1] == 7)] = np.nan
            return values, state

        monkeypatch.setattr(sosnn, "_evaluate", poisoned)
        results = _run_task(spec)
        reason = "round 13: non-finite objective or gradient at ascent step 0"
        assert [(r.replicate, r.ok, r.reason) for r in results] == [
            (0, True, ""), (1, False, reason), (2, True, "")
        ]
        with pytest.raises(NumericError) as info:
            run_sosnn(_series(spec.series[1], "rep1"), spec.configs[1])
        assert str(info.value) == reason
        for r in (0, 2):
            alone = run_sosnn(_series(spec.series[r], f"rep{r}"), spec.configs[r])
            np.testing.assert_array_equal(results[r].ratios, alone.ratios)

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
        specs = _task_specs(config)
        assert [s.label for s in specs] == [
            "nnbp_2x3", "sosnn_2x3", "sosnn_1x3", "sosnn_2x2", "sosnn_1x2", "mkv0"
        ]
        assert all(len(s.configs) == len(s.series) == 2 for s in specs)


class TestCli:
    def test_simulate_roundtrip_exit_codes(self, tmp_path, capsys):
        path = write_config(tmp_path, TINY_SIM)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "logK@50" in out

    def test_bad_config_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, TINY_SIM.replace("mkv0, mkv1, sosnn", "mkv9"))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            (TINY_SIM + "weight_tolerance = 0\n",
             "error: [sosnn] weight_tolerance must be positive"),
            (TINY_SIM.replace("mkv0, mkv1, sosnn", "mkv0, nnbp").split("[sosnn]")[0]
             + "[nnbp]\ninput_count = 2\nhidden_count = 3\nlearning_rate = -1\n",
             "error: [nnbp] learning_rate must be positive"),
            (TINY_SIM + "weight_tolerance = nan\n",
             "error: [sosnn] weight_tolerance must be positive"),
            (TINY_SIM.replace("mkv0, mkv1, sosnn", "mkv0, nnbp").split("[sosnn]")[0]
             + "[nnbp]\ninput_count = 2\nhidden_count = 3\nlearning_rate = nan\n",
             "error: [nnbp] learning_rate must be positive"),
        ],
        ids=["zero-tolerance", "negative-rate", "nan-tolerance", "nan-rate"],
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

    def test_usage_error_exits_1(self, capsys):
        assert main(["simulate", "--out", "x"]) == 1

    def test_out_is_a_file_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, TINY_SIM)
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        assert main(["simulate", "--config", str(path), "--out", str(taken)]) == 2
        assert "runtime failure" in capsys.readouterr().err

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
