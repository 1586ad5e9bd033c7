"""scripts/ci.py: each guard passes its good input and fails each broken one.

No perfbench job runs here: the guards are fed the text a step checks, and
the step-level tests replace the child process with canned output.
"""

import dataclasses
import importlib.util
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

from seqbet.experiments import STRATEGY_NAMES, parse_config

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ci", ROOT / "scripts" / "ci.py")
ci = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ci)

# Traced seed-2 counts: (markov.refits, game.rounds, portfolio.rounds).
COUNTS = {
    "ar1_grid": (900, 3000, 0),
    "price_backtest": (138, 330, 0),
    "arma21_long": (14999, 20160, 0),
    "portfolio_p2": (0, 0, 240),
}

STABILITY_ROW = (
    "portfolio_p2    portfolio_1x3__rep{k}    iterations     {a:>4d} ->     {b:>4d}  "
    "log K  5.529575098751 ->  5.529575098751  stable"
)

COMPARE_TABLE = """\
run         cell        logK@100  logK@200  logK@300  flag  note
backtest-7  mkv0        1.057     1.335     0.086     *     tie
backtest-7  mkv1        -4.481    -4.714    -6.371          tie
backtest-8  mkv0        1.057     1.335     0.086     **    tie
backtest-8  mkv1        -4.481    -4.714    -6.371          tie
"""
SECOND_BEST_ONLY = COMPARE_TABLE.replace("*     tie", "      tie")
UNFLAGGED = SECOND_BEST_ONLY.replace("**    tie", "      tie")


def smoke_line(workload, correct=True, **values):
    refits, rounds, portfolio_rounds = COUNTS[workload]
    counts = {"markov.refits": refits, "game.rounds": rounds, "portfolio.rounds": portfolio_rounds}
    counts.update({name.replace("_", "."): value for name, value in values.items()})
    metrics = {name: {"value": value, "unit": "count"} for name, value in counts.items()}
    return json.dumps({"correct": correct, "attempted": 3, "failed": 0, "metrics": metrics})


def stability_table(counts):
    return "\n".join(STABILITY_ROW.format(k=k, a=a, b=b) for k, (a, b) in enumerate(counts)) + "\n"


class TestSmokeGuards:
    @pytest.mark.parametrize("workload", ci.SMOKE_WORKLOADS)
    def test_good_line_passes(self, workload):
        assert ci.smoke_failures(workload, smoke_line(workload)) == []

    @pytest.mark.parametrize("workload", ci.SMOKE_WORKLOADS)
    def test_incorrect_run_fails(self, workload):
        (failure,) = ci.smoke_failures(workload, smoke_line(workload, correct=False))
        assert "correctness gate" in failure

    @pytest.mark.parametrize("workload, metric", [
        ("arma21_long", "markov_refits"),
        ("ar1_grid", "game_rounds"),
        ("price_backtest", "game_rounds"),
        ("arma21_long", "game_rounds"),
        ("portfolio_p2", "portfolio_rounds"),
    ])
    def test_zero_count_fails(self, workload, metric):
        (failure,) = ci.smoke_failures(workload, smoke_line(workload, **{metric: 0}))
        assert f"{metric.replace('_', '.')} = 0" in failure

    def test_missing_metric_or_json_fails(self):
        line = json.loads(smoke_line("arma21_long"))
        del line["metrics"]["markov.refits"]
        assert ci.smoke_failures("arma21_long", json.dumps(line)) == [
            "arma21_long: reports no markov.refits"
        ]
        assert ci.smoke_failures("ar1_grid", "failed_frac  0.0000") != []

    def test_every_parent_guard_is_a_row(self):
        rows = {(w, m) for w, m, _, _ in ci.SMOKE_GUARDS}
        assert rows == {
            *((w, "correct") for w in ci.SMOKE_WORKLOADS),
            ("arma21_long", "markov.refits"),
            ("ar1_grid", "game.rounds"),
            ("price_backtest", "game.rounds"),
            ("arma21_long", "game.rounds"),
            ("portfolio_p2", "portfolio.rounds"),
        }


class TestStabilityGuard:
    def test_eight_counted_rows_pass(self):
        assert ci.stability_failures(stability_table([(5686, 5686)] * 8)) == []

    def test_seven_rows_fail(self):
        assert ci.stability_failures(stability_table([(5686, 5686)] * 7)) != []

    @pytest.mark.parametrize("pair", [(0, 5686), (5686, 0)])
    def test_zero_count_fails(self, pair):
        counts = [(5686, 5686)] * 7 + [pair]
        assert ci.stability_failures(stability_table(counts)) != []


class TestCompareGuard:
    def test_flagged_table_passes(self):
        assert ci.compare_failures(COMPARE_TABLE) == []

    def test_table_without_best_row_fails(self):
        assert ci.compare_failures(UNFLAGGED) == ["the compare table has no '*' row"]

    def test_second_best_alone_is_not_best(self):
        assert ci.compare_failures(SECOND_BEST_ONLY) != []


class TestCliConfig:
    def test_demo_grid_with_small_caps(self, tmp_path):
        demo = parse_config(ROOT / "configs" / "backtest_demo.ini")
        path = ci.cli_config(tmp_path)
        assert path.read_bytes().startswith(b"\xef\xbb\xbf[")  # read as a marked file
        reduced = parse_config(path)
        assert reduced.strategies == demo.strategies == STRATEGY_NAMES
        assert reduced.data == demo.data
        assert [label for label, _ in reduced.cells] == [label for label, _ in demo.cells]
        caps = {"sosnn": {"max_iterations": 100}, "nnbp": {"max_steps": 2000}}
        for (label, cell), (_, full) in zip(reduced.cells, demo.cells):
            assert cell == dataclasses.replace(full, **caps.get(label.split("_")[0], {}))


class TestRejectionGuard:
    def test_exit_1_without_out_passes(self):
        assert ci.rejection_failures("the run", 1, False) == []

    @pytest.mark.parametrize("returncode, out_touched", [(0, True), (0, False), (2, False), (1, True)])
    def test_other_exit_or_an_out_directory_fails(self, returncode, out_touched):
        assert ci.rejection_failures("the run", returncode, out_touched) != []

    def test_failures_name_the_run(self):
        assert ci.rejection_failures("the backtest into a file", 2, True) == [
            "the backtest into a file exited 2, not 1",
            "the backtest into a file touched its --out",
        ]

    def test_short_training_config_parses(self, tmp_path):
        # The run, not the parser, must reject it, before any cell starts.
        config = parse_config(ci.short_training_config(tmp_path))
        assert [label for label, _ in config.cells] == ["nnbp_12x30", "mkv0"]
        assert config.data.training[1].isoformat() == "2005-11-08"

    def test_missing_prices_config_parses(self, tmp_path):
        config = parse_config(ci.missing_prices_config(tmp_path))
        assert [label for label, _ in config.cells] == ["mkv0"]
        assert config.data.price_file == (tmp_path / "no_such_prices.csv").resolve()
        assert not config.data.price_file.exists()

    def test_late_investing_config_parses(self, tmp_path):
        # It starts after the bundled price file's last day, 2007-11-30.
        config = parse_config(ci.late_investing_config(tmp_path))
        assert [label for label, _ in config.cells] == ["mkv0"]
        assert config.data.investing[0].isoformat() == "2008-01-02"


class TestDemoGuard:
    def test_numbers_pass(self):
        assert ci.demo_failures("round,log_capital\n1,0.0\n2,-0.0123\n") == []

    def test_numpy_scalar_reprs_fail(self):
        # What `{v!r}` writes for a numpy scalar under numpy 2.
        text = "round,log_capital\n1,np.float64(0.0)\n2,np.float64(-0.0123)\n"
        assert ci.demo_failures(text) == [
            "log_capital.csv line 2 holds no number: '1,np.float64(0.0)'"
        ]

    @pytest.mark.parametrize("text", ["", "round,log_capital\n", "round,log_capital\n1\n"])
    def test_missing_rows_or_values_fail(self, text):
        assert ci.demo_failures(text) != []


# Per OWNERS row: its owning file, lines that break it in another module,
# and the line that owning file may hold.
OWNED = {
    "game.py": (["x = math.log1p(y)", "from math import exp, log1p"], "x = math.log1p(0.5)"),
    "rundir.py": (['path = out_dir / "manifest.json"', "path = out_dir / 'series' / name",
                   'path = f"{out_dir}/summary.csv"'], 'path = out_dir / "manifest.json"'),
    "data.py": (["fh = open(path)", "text = path.read_text()", "path.write_text(text)",
                 "blob = path.read_bytes()", "path.write_bytes(blob)"], "blob = Path(path).read_bytes()"),
}


class TestOwnerGuard:
    @pytest.fixture
    def package(self, tmp_path):
        return Path(shutil.copytree(ci.PACKAGE, tmp_path / "seqbet"))

    def test_every_row_is_listed(self):
        assert [owner for _, owner, _ in ci.OWNERS] == list(OWNED)

    def test_source_tree_passes(self, package):
        assert ci.owner_failures(package) == []

    @pytest.mark.parametrize("owner, line", [(owner, line) for owner, (bad, _) in OWNED.items() for line in bad])
    @pytest.mark.parametrize("module", ["network.py", "experiments.py"])
    def test_line_outside_its_owner_fails(self, package, owner, line, module):
        with open(package / module, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        (failure,) = ci.owner_failures(package)
        assert failure.startswith(f"seqbet/{module}:") and f" outside {owner}: " in failure

    @pytest.mark.parametrize("owner", list(OWNED))
    def test_line_in_its_owner_passes(self, package, owner):
        with open(package / owner, "a", encoding="utf-8") as fh:
            fh.write(OWNED[owner][1] + "\n")
        assert ci.owner_failures(package) == []


class TestSteps:
    """Each step exits 1 when its broken input is substituted."""

    @pytest.fixture
    def exits(self):
        """Exit codes of the uncaptured child processes, one per call; 0
        once they run out."""
        return []

    @pytest.fixture
    def canned(self, monkeypatch, exits):
        """Replace the captured child processes by `outputs[i]`, one per
        call, each exiting 0."""
        outputs = []

        def run(args, capture=False):
            if capture:
                return subprocess.CompletedProcess(args, 0, stdout=outputs.pop(0))
            return subprocess.CompletedProcess(args, exits.pop(0) if exits else 0)

        monkeypatch.setattr(ci, "_run", run)
        monkeypatch.setattr(ci.shutil, "which", lambda name: "seqbet")
        return outputs

    def test_smoke(self, canned):
        canned += ["# header\n" + smoke_line(w) + "\n" for w in ci.SMOKE_WORKLOADS]
        assert ci.main(["smoke"]) == 0
        canned += [smoke_line(w, markov_refits=0) + "\n" for w in ci.SMOKE_WORKLOADS]
        assert ci.main(["smoke"]) == 1

    def test_stability(self, canned):
        canned.append(stability_table([(5686, 5686)] * 8))
        assert ci.main(["stability"]) == 0
        canned.append(stability_table([(5686, 5686)] * 7))
        assert ci.main(["stability"]) == 1

    @pytest.mark.parametrize("codes, table, status", [
        ([0, 0, 1, 1, 1, 1, 1, 1], COMPARE_TABLE, 0),
        ([0, 0, 0, 1, 1, 1, 1, 1], COMPARE_TABLE, 1),
        ([0, 0, 1, 0, 1, 1, 1, 1], COMPARE_TABLE, 1),
        ([0, 0, 1, 1, 2, 1, 1, 1], COMPARE_TABLE, 1),
        ([0, 0, 1, 1, 1, 2, 1, 1], COMPARE_TABLE, 1),
        ([0, 0, 1, 1, 1, 1, 2, 1], COMPARE_TABLE, 1),
        ([0, 0, 1, 1, 1, 1, 1, 2], COMPARE_TABLE, 1),
        ([0, 0], UNFLAGGED, 1),
    ], ids=["pass", "short-training-exit-0", "late-investing-exit-0", "missing-prices-exit-2",
            "into-a-file-exit-2", "into-a-dangling-symlink-exit-2", "compare-under-a-file-exit-2",
            "no-best-row"])
    def test_cli(self, canned, exits, codes, table, status):
        # Two seeded backtests, the compare, the short-training backtest,
        # the late-investing backtest, the missing-prices backtest, the
        # backtest into a file, the backtest into a dangling symlink, then
        # the compare under that file. The step makes each run it gets to
        # once: no exit code is left over.
        canned.append(table)
        exits += codes
        assert ci.main(["cli"]) == status
        assert exits == [] and canned == []

    @pytest.mark.parametrize("command", ["backtest", "compare"])
    def test_cli_fails_when_the_file_at_out_changes(self, canned, exits, monkeypatch, command):
        run = ci._run

        def overwrite(args, capture=False):
            # The backtest's --out is the file; the compare's lies under it.
            out = Path(args[-1])
            taken = out if command == "backtest" else out.parent
            if args[1] == command and args[-2] == "--out" and taken.name == "taken":
                taken.write_text("overwritten\n", encoding="utf-8")
            return run(args, capture)

        monkeypatch.setattr(ci, "_run", overwrite)
        canned.append(COMPARE_TABLE)
        exits += [0, 0, 1, 1, 1, 1, 1, 1]
        assert ci.main(["cli"]) == 1

    @pytest.mark.parametrize("change", ["target-made", "link-replaced"])
    def test_cli_fails_when_the_dangling_symlink_changes(self, canned, exits, monkeypatch, change):
        run = ci._run

        def follow(args, capture=False):
            # The run writes through the link, or puts a directory in its place.
            link = Path(args[-1])
            if args[1] == "backtest" and link.name == "dangling":
                if change == "target-made":
                    link.readlink().mkdir()
                else:
                    link.unlink()
                    link.mkdir()
            return run(args, capture)

        monkeypatch.setattr(ci, "_run", follow)
        # A temporary scratch, so the changed link outlives no test.
        monkeypatch.delenv("RUNNER_TEMP", raising=False)
        canned.append(COMPARE_TABLE)
        exits += [0, 0, 1, 1, 1, 1, 1, 1]
        assert ci.main(["cli"]) == 1
        assert exits == [] and canned == []

    def test_demo(self, monkeypatch):
        def run(args, capture=False, value="0.5"):
            out = Path(args[-1])
            out.mkdir(parents=True, exist_ok=True)
            (out / "log_capital.csv").write_text(f"round,log_capital\n1,{value}\n", encoding="utf-8")
            return subprocess.CompletedProcess(args, 0)

        monkeypatch.setattr(ci, "_run", run)
        assert ci.main(["demo"]) == 0
        monkeypatch.setattr(ci, "_run", lambda args, capture=False: run(args, value="np.float64(0.5)"))
        assert ci.main(["demo"]) == 1

    def test_failed_child_fails_its_step(self, monkeypatch):
        monkeypatch.setattr(ci, "_run", lambda args, capture=False: subprocess.CompletedProcess(args, 2))
        assert ci.main(["demo"]) == 1

    @pytest.mark.parametrize("code, status", [(0, 0), (1, 1), (2, 1)])
    def test_mirror(self, monkeypatch, code, status):
        # One child runs the mirror lock on Haswell's kernels, with the
        # checkout's src first on its path, and its exit decides the step.
        children = []

        def run(args, env, **kwargs):
            children.append((args, env))
            return subprocess.CompletedProcess(args, code)

        monkeypatch.setattr(ci.subprocess, "run", run)
        monkeypatch.setenv("OPENBLAS_CORETYPE", "SkylakeX")
        assert ci.main(["mirror"]) == status
        ((args, env),) = children
        assert args[1:] == ["-m", "pytest", "-q", "tests/test_mirror.py"]
        assert env["OPENBLAS_CORETYPE"] == "Haswell"
        assert env["PYTHONPATH"].split(os.pathsep)[0] == str(ci.ROOT / "src")
        assert os.environ["OPENBLAS_CORETYPE"] == "SkylakeX"

    def test_owners(self, monkeypatch, tmp_path, capsys):
        package = Path(shutil.copytree(ci.PACKAGE, tmp_path / "seqbet"))
        monkeypatch.setattr(ci, "PACKAGE", package)
        assert ci.main(["owners"]) == 0
        (package / "sosnn.py").write_text("import math\nmath.log1p(0.5)\n", encoding="utf-8")
        assert ci.main(["owners"]) == 1
        assert "::error::seqbet/sosnn.py:2:" in capsys.readouterr().out

    def test_all_stops_at_the_first_failure(self, monkeypatch):
        ran = []
        for name in ci.STEPS:
            monkeypatch.setitem(ci.STEPS, name, lambda scratch, name=name: ran.append(name) or (
                ["broken"] if name == "smoke" else []))
        assert ci.main(["all"]) == 1
        assert ran == ["owners", "tier1", "mirror", "smoke"]
