#!/usr/bin/env python3
"""The repository's checks, one named step per step of the CI workflow.

    python scripts/ci.py {owners,tier1,smoke,stability,demo,cli,all}

`all` runs the steps in workflow order and stops at the first failure. The
exit status is 0 when the step (or every step) passes and 1 when one fails.

Nothing needs installing: child processes get the checkout's `src` in front
of PYTHONPATH, and when no `seqbet` console script is on PATH the `cli` step
runs `python -m seqbet.cli` instead, and says so. Scratch output goes to
$RUNNER_TEMP when it is set, else to a temporary directory removed at exit.

Each guard is a function of the text it checks and returns its failures, so
tests/test_ci.py can feed it good and broken inputs without running a job.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "seqbet"
SMOKE_WORKLOADS = ("ar1_grid", "price_backtest", "arma21_long", "portfolio_p2")


def _positive(value) -> bool:
    return value > 0


# (workload, metric, rule, what a failure means) for the last JSON line of a
# traced `perfbench/run.py` run. "correct" is the line's own flag: run.py
# exits 0 even when a job fails its correctness gate. A count of 0 means a
# seam the tracer wraps was lost, not that the workload did no work.
SMOKE_GUARDS = (
    *((w, "correct", bool, "failed the correctness gate") for w in SMOKE_WORKLOADS),
    # arma21_long runs MKV.
    ("arma21_long", "markov.refits", _positive, "traced no markov.optimize_bucket call"),
    # These three play every strategy run through run_game.
    ("ar1_grid", "game.rounds", _positive, "traced no game.run_game round"),
    ("price_backtest", "game.rounds", _positive, "traced no game.run_game round"),
    ("arma21_long", "game.rounds", _positive, "traced no game.run_game round"),
    # portfolio_p2 bets through portfolio.forward_portfolio once per round.
    ("portfolio_p2", "portfolio.rounds", _positive, "traced no portfolio.forward_portfolio call"),
)

STABILITY_WORKLOAD = "portfolio_p2"
STABILITY_TASKS = 8

# Capital adds math.log1p(alpha . x) per round in seqbet.game alone;
# np.log1p in network._evaluate is the refit objective, not capital.
LOG1P = re.compile(r"math\.log1p|from math import .*log1p")
# The run files and directories, named as a string or a path part.
RUN_FILE = re.compile(r"""(?<=["'/])(manifest\.json|summary\.csv|summary\.txt|replicates\.csv"""
                      r"""|movements\.csv|series|diagnostics)(?=["'/])""")
FILE_IO = re.compile(r"\bopen\(|\.(read|write)_(text|bytes)\(")

# (pattern, owning file, reason): only the owning file of the package may
# match the pattern, so each decision keeps its one home.
OWNERS = (
    (LOG1P, "game.py", "the capital update belongs to game._play"),
    (RUN_FILE, "rundir.py", "the run directory's layout belongs to seqbet.rundir"),
    (FILE_IO, "data.py", "files are read by data._read_text and written by data._write_lines"),
)


def owner_failures(package: Path) -> list[str]:
    """Lines of the package tree that match an OWNERS pattern outside its owning file."""
    return [
        f"{path.relative_to(package.parent)}:{lineno}: {match.group(0)} outside {owner}: {reason}"
        for pattern, owner, reason in OWNERS
        for path in sorted(package.rglob("*.py"))
        if path != package / owner
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        for match in pattern.finditer(line)
    ]


def smoke_failures(workload: str, last_line: str) -> list[str]:
    """The SMOKE_GUARDS rows of `workload` that its run's last JSON line breaks."""
    try:
        result = json.loads(last_line)
    except ValueError:
        return [f"{workload}: the last line of perfbench/run.py is not JSON"]
    failures = []
    for name, metric, rule, meaning in SMOKE_GUARDS:
        if name != workload:
            continue
        try:
            value = result[metric] if metric == "correct" else result["metrics"][metric]["value"]
        except (KeyError, TypeError):
            failures.append(f"{workload}: reports no {metric}")
            continue
        if not rule(value):
            failures.append(f"{workload} {meaning} ({metric} = {value!r})")
    return failures


def stability_failures(table: str) -> list[str]:
    """The probe counts iterations through portfolio._optimize_portfolio. If
    that seam were lost, every task would count 0 on both sides and still
    read "stable", so every task must count a nonzero number in both runs."""
    rows = re.findall(rf"^{STABILITY_WORKLOAD} .* iterations +(\d+) -> +(\d+) ", table, re.M)
    failures = []
    if len(rows) != STABILITY_TASKS:
        failures.append(f"the stability probe listed {len(rows)} {STABILITY_WORKLOAD} tasks, "
                        f"not {STABILITY_TASKS}")
    if not all(int(a) > 0 and int(b) > 0 for a, b in rows):
        failures.append(f"the stability probe counted 0 iterations on a {STABILITY_WORKLOAD} task")
    return failures


def compare_failures(table: str) -> list[str]:
    """Both compared runs bet MKV0 on the same prices, so the merged table
    must flag a best ('*') row."""
    if re.search(r"(^| )\*( |$)", table, re.M):
        return []
    return ["the compare table has no '*' row"]


def demo_failures(text: str) -> list[str]:
    """Every row of the portfolio demo's `log_capital.csv` after its header
    must be `round,value` with a value that parses as a float."""
    rows = text.splitlines()[1:]
    if not rows:
        return ["log_capital.csv holds no rows"]
    for lineno, row in enumerate(rows, 2):
        try:
            float(row.split(",")[1])
        except (IndexError, ValueError):
            return [f"log_capital.csv line {lineno} holds no number: {row!r}"]
    return []


def rejection_failures(run: str, returncode: int, out_touched: bool) -> list[str]:
    """A usage error must stop `run` with exit 1 before it writes anything,
    and leave its `--out` as it was: not created, or the file that stands
    there (or above it) unchanged."""
    failures = []
    if returncode != 1:
        failures.append(f"{run} exited {returncode}, not 1")
    if out_touched:
        failures.append(f"{run} touched its --out")
    return failures


def _run(args, capture: bool = False) -> subprocess.CompletedProcess:
    """`args` from the repository root, with `src` first on PYTHONPATH; when
    `capture`, standard output is returned as text and echoed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([str(a) for a in args], cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE if capture else None)
    if capture:
        print(done.stdout, end="", flush=True)
    return done


def _exited(done: subprocess.CompletedProcess, what: str) -> list[str]:
    return [f"{what} exited {done.returncode}"] if done.returncode else []


def step_owners(scratch: Path) -> list[str]:
    return owner_failures(PACKAGE)


def step_tier1(scratch: Path) -> list[str]:
    done = _run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"])
    return _exited(done, "the tier-1 tests")


def step_smoke(scratch: Path) -> list[str]:
    # Seed 2, because the final log K pins at seed 1 depend on the BLAS.
    failures = []
    for workload in SMOKE_WORKLOADS:
        done = _run([sys.executable, "perfbench/run.py", "--workload", workload,
                     "--seed", "2", "--seconds", "1", "--trace", "1"], capture=True)
        if done.returncode:
            failures += _exited(done, f"perfbench/run.py --workload {workload}")
            continue
        lines = done.stdout.splitlines()
        failures += smoke_failures(workload, lines[-1] if lines else "")
    return failures


def step_stability(scratch: Path) -> list[str]:
    # Exercises the attributes stability.py patches, which the traced smoke
    # never touches: sosnn.NetworkWeights, portfolio.PortfolioWeights and
    # portfolio._optimize_portfolio.
    done = _run([sys.executable, "perfbench/stability.py",
                 "--workload", STABILITY_WORKLOAD, "--seed", "2"], capture=True)
    return _exited(done, "perfbench/stability.py") or stability_failures(done.stdout)


def step_demo(scratch: Path) -> list[str]:
    # The only runnable example of the multi-asset API. Like tier-1, it
    # fails on any RuntimeWarning.
    out = scratch / "portfolio_demo"
    done = _run([sys.executable, "-W", "error::RuntimeWarning", "scripts/run_portfolio_demo.py", out])
    failures = _exited(done, "scripts/run_portfolio_demo.py")
    return failures or demo_failures((out / "log_capital.csv").read_text(encoding="utf-8"))


def cli_config(scratch: Path) -> Path:
    """configs/backtest_demo.ini with its price file by absolute path and the
    SOSNN and NNBP step caps cut, written to `scratch` with a UTF-8 byte-order
    mark: every strategy still runs, in seconds rather than minutes, and the
    console-script runs parse a marked file."""
    demo = ROOT / "configs" / "backtest_demo.ini"
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(demo, encoding="utf-8")
    parser["data"]["price_file"] = str((demo.parent / parser["data"]["price_file"]).resolve())
    parser["sosnn"]["max_iterations"] = "100"
    parser["nnbp"]["max_steps"] = "2000"
    path = scratch / "backtest_cli.ini"
    with open(path, "w", encoding="utf-8-sig") as fh:
        parser.write(fh)
    return path


def _cli_variant(scratch: Path, name: str, strategies: str, **data: str) -> Path:
    """`cli_config` with only `strategies`, the sections they read and the
    `[data]` values `data`, written to `scratch / name`."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(cli_config(scratch), encoding="utf-8-sig")
    parser["experiment"]["strategies"] = strategies
    parser["data"].update(data)
    for section in ("sosnn", "nnbp"):
        if section not in strategies:
            parser.remove_section(section)
    path = scratch / name
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return path


def short_training_config(scratch: Path) -> Path:
    """`cli_config` with only NNBP and MKV0 and a training range of 7
    movements, fewer than NNBP's 12 inputs: the config parses, and the run
    rejects it before any cell starts."""
    return _cli_variant(scratch, "backtest_short_training.ini", "nnbp, mkv0", training_end="2005-11-08")


def late_investing_config(scratch: Path) -> Path:
    """`cli_config` with only MKV0 and an investing range that starts after
    the bundled price file's last day: the config parses, and the run
    rejects it before any cell starts."""
    return _cli_variant(scratch, "backtest_late_investing.ini", "mkv0",
                        investing_start="2008-01-02", investing_end="2008-06-30")


def missing_prices_config(scratch: Path) -> Path:
    """`cli_config` with only MKV0 and a price file that does not exist: the
    config parses, and the run rejects it before any cell starts."""
    return _cli_variant(scratch, "backtest_missing_prices.ini", "mkv0",
                        price_file=str(scratch / "no_such_prices.csv"))


def step_cli(scratch: Path) -> list[str]:
    # The console script and `compare` run nowhere else: the tests call the
    # CLI in process.
    seqbet = shutil.which("seqbet")
    if seqbet is None:
        print("no seqbet console script on PATH; running python -m seqbet.cli", flush=True)
    command = [seqbet] if seqbet else [sys.executable, "-m", "seqbet.cli"]
    config = cli_config(scratch)
    for seed in (7, 8):
        done = _run([*command, "backtest", "--config", config,
                     "--seed", seed, "--out", scratch / f"backtest-{seed}"])
        if done.returncode:
            return _exited(done, f"seqbet backtest --seed {seed}")
    done = _run([*command, "compare", scratch / "backtest-7", scratch / "backtest-8",
                 "--out", scratch / "compare.csv"], capture=True)
    failures = _exited(done, "seqbet compare") or compare_failures(done.stdout)
    if failures:
        return failures
    # The exit-code contract at --jobs 2: the run is rejected before the
    # pool starts a cell.
    out = scratch / "backtest-short-training"
    done = _run([*command, "backtest", "--config", short_training_config(scratch),
                 "--jobs", 2, "--out", out])
    failures = rejection_failures("the short-training backtest", done.returncode, out.exists())
    out = scratch / "backtest-late-investing"
    done = _run([*command, "backtest", "--config", late_investing_config(scratch), "--out", out])
    failures += rejection_failures("the late-investing backtest", done.returncode, out.exists())
    out = scratch / "backtest-missing-prices"
    done = _run([*command, "backtest", "--config", missing_prices_config(scratch), "--out", out])
    failures += rejection_failures("the missing-prices backtest", done.returncode, out.exists())
    # An --out that cannot be a directory, before any cell runs, and a
    # compare --out under a file.
    taken = scratch / "taken"
    taken.write_text("kept\n", encoding="utf-8")
    done = _run([*command, "backtest", "--config", config, "--out", taken])
    unchanged = taken.read_text(encoding="utf-8") == "kept\n"
    failures += rejection_failures("the backtest into a file", done.returncode, not unchanged)
    done = _run([*command, "compare", scratch / "backtest-7", scratch / "backtest-8",
                 "--out", taken / "m.csv"])
    unchanged = taken.read_text(encoding="utf-8") == "kept\n"
    return failures + rejection_failures("the compare under a file", done.returncode, not unchanged)


STEPS = {
    "owners": step_owners,
    "tier1": step_tier1,
    "smoke": step_smoke,
    "stability": step_stability,
    "demo": step_demo,
    "cli": step_cli,
}


@contextmanager
def _scratch():
    """$RUNNER_TEMP, or a temporary directory removed on exit."""
    if os.environ.get("RUNNER_TEMP"):
        yield Path(os.environ["RUNNER_TEMP"])
    else:
        with tempfile.TemporaryDirectory(prefix="seqbet-ci-") as path:
            yield Path(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("step", choices=[*STEPS, "all"])
    step = parser.parse_args(argv).step
    with _scratch() as scratch:
        for name in STEPS if step == "all" else [step]:
            print(f"== {name}", flush=True)
            start = time.monotonic()
            failures = STEPS[name](scratch)
            for failure in failures:
                print(f"::error::{failure}")
            verdict = "failed" if failures else "passed"
            print(f"== {name} {verdict} in {time.monotonic() - start:.1f} s", flush=True)
            if failures:
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
