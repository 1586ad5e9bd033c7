"""The run directory: every file a run writes, its columns, and the reader.

A finished run holds `summary.csv` and `summary.txt` (one row per cell),
`replicates.csv` (each replicate's log capital at every checkpoint),
`series/<cell>__rep<k>.csv` (each finished replicate's bet and log capital
per round), for NNBP `diagnostics/<cell>__rep<k>__epochs.csv` and
`__days.csv`, for a backtest `movements.csv`, and `manifest.json`, written
last: its presence marks the run finished. No other module names them.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from .data import _fmt, _read_text, _write_lines, write_movements
from .errors import UsageError

# The files `read_run` reads, which `compare --out` must not write over.
READ_FILES = ("manifest.json", "summary.csv")


def _numbered(header: str, *columns) -> list[str]:
    """`header`, then one `i,value,...` row per entry of the equally long
    `columns`, numbered from 1."""
    rows = (",".join([str(i), *map(_fmt, values)]) for i, values in enumerate(zip(*columns), 1))
    return [header, *rows]


def write_run(report, manifest: dict, movements=None) -> None:
    """Write `report`, an `experiments.RunReport`, as the run in
    `report.out_dir`: a backtest's `movements` (dates, values), each finished
    replicate's series (and NNBP diagnostics), the tables, and last
    `manifest` with the checkpoints. An earlier run's manifest and the files
    this run might not overwrite go first; other files stay."""
    out_dir, cells, checkpoints = report.out_dir, report.cells, report.checkpoints
    for name in ("manifest.json", "movements.csv"):
        (out_dir / name).unlink(missing_ok=True)
    for name in ("series", "diagnostics"):
        if (out_dir / name).is_dir():
            shutil.rmtree(out_dir / name)
    if movements is not None:
        write_movements(out_dir / "movements.csv", *movements)

    lines = ["cell,replicate,checkpoint,log_capital"]
    for cell in cells:
        for r, replicate in enumerate(cell.replicates):
            if isinstance(replicate, str):
                continue
            run, diag = replicate
            stem = f"{cell.label}__rep{r}"
            series = _numbered("round,alpha,log_capital", run.ratios, run.log_capital_path)
            _write_lines(out_dir / "series" / f"{stem}.csv", series)
            if diag is not None:
                diags = out_dir / "diagnostics"
                _write_lines(diags / f"{stem}__epochs.csv", _numbered("epoch,training_error", diag.error_per_epoch))
                _write_lines(diags / f"{stem}__days.csv", _numbered("day,error", diag.per_day_error))
            lines += [f"{cell.label},{r},{c},{_fmt(run.checkpoints[c])}" for c in checkpoints]
    _write_lines(out_dir / "replicates.csv", lines)

    header = ["cell", "status", "reason", *(f"logK_{c}" for c in checkpoints)]
    lines = [",".join([*header, "mean_iterations", "converged_fraction", "training_error"])]
    for s in cells:
        row = [s.label, "ok" if s.ok else "failed", s.reason.replace(",", ";")]
        row += [_fmt(s.means[c]) if s.ok else "" for c in checkpoints]
        row += ["" if v is None else _fmt(v) for v in (s.mean_iterations, s.converged_fraction, s.training_error)]
        lines.append(",".join(row))
    _write_lines(out_dir / "summary.csv", lines)
    _write_lines(out_dir / "summary.txt", report.table.render().splitlines())

    manifest = {**manifest, "checkpoints": list(checkpoints)}
    _write_lines(out_dir / "manifest.json", [json.dumps(manifest, indent=2, sort_keys=True)])


def read_run(path) -> tuple[list[int], list[tuple[str, bool, dict[int, float]]]]:
    """The checkpoints of the finished run in directory `path` and, per
    summary row, its cell, whether it finished, and its log capital at each
    checkpoint (none if it failed). A UsageError when `path` holds no
    finished run, or when its manifest or summary does not parse."""
    directory = Path(path)
    manifest_path, summary_path = (directory / name for name in READ_FILES)
    if not manifest_path.is_file() or not summary_path.is_file():
        raise UsageError(f"{directory} does not contain a finished run")
    manifest = _read_text(manifest_path, UsageError)
    try:
        checkpoints = list(json.loads(manifest)["checkpoints"])
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"{manifest_path} is not a finished run's manifest: {exc!r}") from None
    if not checkpoints:
        raise UsageError(f"{manifest_path} lists no checkpoints")
    summary = _read_text(summary_path, UsageError)
    rows = []
    try:
        header, *records = summary.strip().splitlines()
        names = header.split(",")
        for record in records:
            fields = dict(zip(names, record.split(",")))
            ok = fields["status"] == "ok"
            values = {c: float(fields[f"logK_{c}"]) for c in checkpoints} if ok else {}
            rows.append((fields["cell"], ok, values))
    except (ValueError, KeyError) as exc:
        raise UsageError(f"{summary_path} is not a finished run's summary: {exc!r}") from None
    return checkpoints, rows
