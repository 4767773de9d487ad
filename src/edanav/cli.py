"""Command-line pipeline: synth, train, optimize, evaluate, report.

Each command validates its configuration and loads every input before
writing anything, so a failing run never leaves partial outputs. Exit
codes: 0 success, 1 usage/config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys

from .config import RunConfig, load_config
from .control import read_gains, write_gains
from .dataset import load_dataset, save_dataset, synth_cohort
from .errors import ConfigError
from .metrics import (
    build_report,
    read_per_session_csv,
    write_msdv_svg,
    write_per_session_csv,
    write_report_csv,
)
from .optimize import evaluate_sessions, optimize, write_history_csv
from .pipeline import train_split, train_surrogate
from .signals import format_float
from .surrogate import read_model, write_model


class _Parser(argparse.ArgumentParser):
    """argparse that exits with code 1 (not 2) on usage errors."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="edanav", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("synth", "generate a synthetic session dataset"),
        ("train", "fit the linear surrogate on the train split"),
        ("optimize", "search adaptation gains on the eval split"),
        ("evaluate", "simulate best gains and write the report files"),
        ("report", "rebuild report files from the per-session table"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", metavar="PATH", help="INI config file")
        cmd.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override one config key (repeatable)",
        )
        cmd.add_argument("--output-dir", metavar="DIR", help="base directory for artifacts")
    return parser


def _cmd_synth(cfg: RunConfig) -> None:
    records = synth_cohort(**cfg.synth)
    save_dataset(records, cfg.dataset_dir)
    n_train = len(train_split(records))
    print(
        f"wrote {len(records)} sessions ({n_train} train / "
        f"{len(records) - n_train} eval) to {cfg.dataset_dir}"
    )
    short = [r for r in records if r.missing_pulses]
    if short:
        print("sessions short of their drawn pulses: "
              + ", ".join(f"{r.session_id} ({r.missing_pulses})" for r in short)
              + f"; {sum(r.missing_pulses for r in short)} in total")


def _cmd_train(cfg: RunConfig) -> None:
    records = load_dataset(cfg.dataset_dir)
    model, heldout = train_surrogate(records, **cfg.train)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    write_model(model, cfg.model_path)
    print(f"train MAE {format_float(model.train_mae)}")
    print(f"held-out MAE {format_float(heldout)}")
    print(f"wrote {cfg.model_path}")


def _cmd_optimize(cfg: RunConfig) -> None:
    records = load_dataset(cfg.dataset_dir, splits=("eval",))
    model = read_model(cfg.model_path)
    result = optimize(records, model, **cfg.search, **cfg.replay)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    write_gains(result.best.gains, cfg.gains_path)
    write_history_csv(result, cfg.history_path)
    best = result.best
    print(
        f"best objective {format_float(best.objective)} of {100 * len(result.methods)} "
        f"(trial {best.index})"
    )
    for method, pct in zip(result.methods, best.percentages):
        print(f"  {method}: {format_float(pct)}% of sessions improved")
    print(f"wrote {cfg.gains_path}")
    print(f"wrote {cfg.history_path}")


def _write_report(cfg: RunConfig, report, stats) -> None:
    """Write report.csv and, if enabled, msdv.svg: the files `report` rebuilds."""
    write_report_csv(report, cfg.report_path)
    print(f"wrote {cfg.report_path}")
    if cfg.svg:
        write_msdv_svg(stats, cfg.svg_path)
        print(f"wrote {cfg.svg_path}")


def _cmd_evaluate(cfg: RunConfig) -> None:
    records = load_dataset(cfg.dataset_dir, splits=("eval",))
    model = read_model(cfg.model_path)
    gains = read_gains(cfg.gains_path)
    results = evaluate_sessions(records, gains, model, **cfg.replay)
    methods = tuple(d.method for d in cfg.replay["detectors"])
    stats = [r.stats for r in results]
    report = build_report(stats, methods)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    # first, so that `report` can rebuild the other files after a crash
    write_per_session_csv(stats, methods, cfg.per_session_path)
    print(f"wrote {cfg.per_session_path}")
    _write_report(cfg, report, stats)
    for method, stat in report.stats.items():
        print(
            f"  {method}: {stat.positives}/{stat.total} improved, "
            f"chi2 {format_float(stat.chi2)}, phi {format_float(stat.phi)}, "
            f"{stat.significant_at}, {stat.direction}"
        )


def _cmd_report(cfg: RunConfig) -> None:
    methods, stats = read_per_session_csv(cfg.per_session_path)
    _write_report(cfg, build_report(stats, methods), stats)


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "optimize": _cmd_optimize,
    "evaluate": _cmd_evaluate,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides, args.output_dir)
    except ConfigError as exc:
        print(f"edanav: config error: {exc}", file=sys.stderr)
        return 1
    try:
        _COMMANDS[args.command](cfg)
    except Exception as exc:  # runtime failures: missing inputs, bad files, ...
        print(f"edanav: error: {exc}", file=sys.stderr)
        return 2
    return 0
