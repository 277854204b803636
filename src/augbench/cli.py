"""Command-line interface.

Subcommands: augment, train, run-grid, mcnemar, report. Exit codes map
error categories: 0 success, 2 usage/config, 3 data, 4 resource,
5 transport, 1 anything else (a failed grid invariant included).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import report, runner, stats
from .errors import (
    AugbenchError, ConfigError, DataError, InvariantError, ResourceError,
    TransportError,
)
from .metrics import load_predictions
from .results import STATUS_OK, make_output_dir, read_results_csv, write_csv

_EXIT_CODES = [
    (ConfigError, 2, "config"),
    (DataError, 3, "data"),
    (ResourceError, 4, "resource"),
    (TransportError, 5, "transport"),
    (InvariantError, 1, "invariant"),
    (AugbenchError, 1, "error"),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="augbench",
        description="Text augmentation toolkit and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--config", required=True,
                       help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config master seed")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("augment", help="augment one dataset, emit a CSV")
    common(p)
    p.add_argument("--dataset", required=True, help="dataset name from config")
    p.add_argument("--group", required=True, choices=runner.GROUPS)
    p.add_argument("--pct", type=float, required=True,
                   help="fraction of rows to use as augmentation sources")

    p = sub.add_parser("train", help="run a single grid cell")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--group", required=True, choices=runner.GROUPS)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--pct", type=float, required=True)
    p.add_argument("--round", type=int, default=0)

    p = sub.add_parser("run-grid", help="run the full experiment grid")
    common(p)

    p = sub.add_parser("mcnemar", help="compare two prediction files")
    p.add_argument("baseline", help="baseline predictions JSONL")
    p.add_argument("augmented", help="augmented predictions JSONL")

    p = sub.add_parser("report", help="summarize a results CSV")
    p.add_argument("--results", required=True, help="results.csv path")
    p.add_argument("--out", default="out", help="output directory")
    return parser


def _load_config(args) -> runner.ExperimentConfig:
    config = runner.load_config(args.config)
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    return config


def _cell_config(args) -> runner.ExperimentConfig:
    """The config narrowed to the command's dataset and group, so that the
    command reads only their inputs. The command's arguments are checked
    here, before any input is read."""
    config = _load_config(args)
    spec = next((d for d in config.datasets if d.name == args.dataset), None)
    if spec is None:
        raise ConfigError(f"dataset {args.dataset!r} not in config")
    if args.group not in config.groups:
        raise ConfigError(f"group {args.group!r} not in config")
    if not 0.0 <= args.pct <= 1.0:
        raise ConfigError(f"--pct {args.pct} outside [0, 1]")
    if getattr(args, "round", 0) < 0:
        raise ConfigError(f"--round {args.round} is negative")
    return dataclasses.replace(config, datasets=(spec,), groups=(args.group,))


def _cmd_augment(args) -> int:
    config = _cell_config(args)
    spec = config.datasets[0]
    resources = runner.load_resources(config, featurize=False)
    dataset = resources.datasets[args.dataset]
    cell = runner.GridCell(args.dataset, args.group, len(dataset), args.pct, 0)
    try:
        make_output_dir(args.out)
        aug = runner.augment_cell(config, resources, cell, dataset)
    finally:
        resources.cache.close()
    out_path = os.path.join(args.out, f"{args.dataset}_{args.group}_augmented.csv")
    write_csv(out_path, [spec.text_column, spec.label_column],
              dataset.examples + aug.added.examples)
    print(json.dumps({
        "input_rows": len(dataset), "targets": len(aug.targets),
        "failed_targets": len(aug.failures),
        "output_rows": len(dataset) + len(aug.added), "path": out_path,
    }))
    return 0


def _cmd_train(args) -> int:
    # the cell and its p=0 baseline, which it pairs with
    cells = [
        runner.GridCell(args.dataset, args.group, args.size, pct, args.round)
        for pct in dict.fromkeys((0.0, args.pct))
    ]
    row = runner.run_grid(_cell_config(args), args.out, cells)[-1]
    print(json.dumps({
        "dataset": row.dataset, "group": row.group,
        "subset_size": row.subset_size, "aug_pct": row.aug_pct,
        "round": row.round, "status": row.status, "f1": row.f1,
        "baseline_f1": row.baseline_f1, "gain": row.gain,
        "p_value": row.p_value,
    }))
    return 0


def _cmd_run_grid(args) -> int:
    config = _load_config(args)
    rows = runner.run_grid(config, args.out)
    ok = sum(1 for r in rows if r.status == STATUS_OK)
    print(json.dumps({
        "cells": len(rows), "ok": ok, "failed": len(rows) - ok,
        "results": os.path.join(args.out, "results.csv"),
    }))
    return 0


def _cmd_mcnemar(args) -> int:
    y_true_b, pred_b = load_predictions(args.baseline)
    y_true_a, pred_a = load_predictions(args.augmented)
    if y_true_b != y_true_a:
        raise DataError("prediction files disagree on the true labels")
    if not y_true_b:
        raise DataError("prediction files hold no records")
    table = stats.contingency(y_true_b, pred_b, pred_a)
    result = stats.mcnemar(table)
    print(json.dumps({
        "a": table.a, "b": table.b, "c": table.c, "d": table.d,
        "chi2": result.chi2, "p_value": result.p_value,
        "significant": result.significant,
    }))
    return 0


def _cmd_report(args) -> int:
    rows = read_results_csv(args.results)
    gains, significant = report.summarize(rows, args.out)
    print(json.dumps({
        "gain_records": len(gains),
        "significant": len(significant),
        "out": args.out,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "augment": _cmd_augment,
        "train": _cmd_train,
        "run-grid": _cmd_run_grid,
        "mcnemar": _cmd_mcnemar,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except Exception as exc:  # map to typed exit categories
        for etype, code, label in _EXIT_CODES:
            if isinstance(exc, etype):
                print(f"error[{label}]: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    raise SystemExit(main())
