"""Summary tables over a results set.

Emits the report bundle as CSV plus a human-readable text summary:
baseline-F1 grids per dataset, mean gains per group and per
(group, size), p-value grids with significance flags, and the
-log10(p) series behind significance plots.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

from .errors import DataError
from .results import ExperimentResult, _fmt
from .stats import (
    ALPHA, GainRecord, ScreenRow, TestResult, compute_gains, filter_best,
    significance_screen,
)

GROUP_ORDER = ("EDA", "Syn", "BT")


@dataclass
class Summary:
    mean_gain_by_group: dict[tuple[str, str], tuple[float, int]]
    mean_gain_by_group_size: dict[tuple[str, str, int], tuple[float, int]]
    screen: list[ScreenRow]
    best_models: dict[tuple[str, str, int, float], GainRecord]
    unpaired: list[tuple]
    significant: list[ScreenRow]


def _group_sort_key(group: str):
    try:
        return (0, GROUP_ORDER.index(group))
    except ValueError:
        return (1, group)


def summarize(rows: list[ExperimentResult], out_dir: str) -> Summary:
    """Build and write the report bundle for a results set."""
    if not rows:
        raise DataError("cannot summarize an empty results set")
    os.makedirs(out_dir, exist_ok=True)
    ok_rows = [r for r in rows if r.status == "ok" and r.f1 is not None]
    if not ok_rows:
        raise DataError("no successful cells to summarize")
    best = filter_best(ok_rows)

    # Augmented cells whose baseline never succeeded cannot be paired;
    # they are excluded from gains and reported, not silently dropped.
    baselines = {r.pairing_key() for r in best if r.aug_pct == 0}
    unpaired = [
        r.key() for r in best
        if r.aug_pct > 0 and r.pairing_key() not in baselines
    ]
    pairable = [
        r for r in best
        if r.aug_pct == 0 or r.pairing_key() in baselines
    ]
    gains = compute_gains(pairable)
    tests = {
        r.key(): TestResult(chi2=r.chi2, p_value=r.p_value)
        for r in best
        if r.chi2 is not None and r.p_value is not None
    }
    untested = [g.key() for g in gains if g.gain > 0 and g.key() not in tests]
    if untested:
        raise DataError(
            f"positive-gain cell(s) without chi2/p_value: {untested}"
        )
    screen = significance_screen(gains, tests)
    significant = [s for s in screen if s.test is not None and s.test.significant]

    by_group: dict[tuple[str, str], list[float]] = {}
    by_group_size: dict[tuple[str, str, int], list[float]] = {}
    for g in gains:
        for ds in (g.dataset, "ALL"):
            by_group.setdefault((ds, g.group), []).append(g.gain)
            by_group_size.setdefault((ds, g.group, g.subset_size), []).append(g.gain)
    mean_by_group = {
        k: (sum(v) / len(v), len(v)) for k, v in by_group.items()
    }
    mean_by_group_size = {
        k: (sum(v) / len(v), len(v)) for k, v in by_group_size.items()
    }

    # best augmented model across rounds per combination; ties go to the
    # earliest round so the report is deterministic
    best_models: dict[tuple[str, str, int, float], GainRecord] = {}
    for g in gains:
        combo = (g.dataset, g.group, g.subset_size, g.aug_pct)
        cur = best_models.get(combo)
        if cur is None or (g.augmented_f1, -g.round) > (cur.augmented_f1, -cur.round):
            best_models[combo] = g

    _write_mean_gains(out_dir, mean_by_group, mean_by_group_size)
    _write_screen(out_dir, screen)
    _write_appendix_tables(out_dir, best_models, tests)
    _write_text_summary(
        out_dir, rows, ok_rows, gains, significant, unpaired, mean_by_group
    )
    return Summary(
        mean_gain_by_group=mean_by_group,
        mean_gain_by_group_size=mean_by_group_size,
        screen=screen,
        best_models=best_models,
        unpaired=unpaired,
        significant=significant,
    )


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_mean_gains(out_dir, mean_by_group, mean_by_group_size) -> None:
    rows = [
        [ds, group, repr(mean), str(n)]
        for (ds, group), (mean, n) in sorted(
            mean_by_group.items(),
            key=lambda kv: (kv[0][0], _group_sort_key(kv[0][1])),
        )
    ]
    _write_csv(
        os.path.join(out_dir, "mean_gain_by_group.csv"),
        ["dataset", "group", "mean_gain", "n_models"], rows,
    )
    rows = [
        [ds, group, str(size), repr(mean), str(n)]
        for (ds, group, size), (mean, n) in sorted(
            mean_by_group_size.items(),
            key=lambda kv: (kv[0][0], _group_sort_key(kv[0][1]), kv[0][2]),
        )
    ]
    _write_csv(
        os.path.join(out_dir, "mean_gain_by_group_size.csv"),
        ["dataset", "group", "subset_size", "mean_gain", "n_models"], rows,
    )


def _write_screen(out_dir, screen: list[ScreenRow]) -> None:
    p_rows, log_rows = [], []
    for s in screen:
        ds, group, size, pct, rnd = s.key
        if s.test is None:
            p_rows.append([ds, group, str(size), _fmt(pct), str(rnd),
                           repr(s.gain), "", "", ""])
            continue
        p_rows.append([
            ds, group, str(size), _fmt(pct), str(rnd), repr(s.gain),
            repr(s.test.chi2), repr(s.test.p_value),
            "true" if s.test.significant else "false",
        ])
        if s.test.p_value > 0:
            log_rows.append([
                ds, group, str(size), _fmt(pct), str(rnd),
                repr(-math.log10(s.test.p_value)),
            ])
    _write_csv(
        os.path.join(out_dir, "pvalues.csv"),
        ["dataset", "group", "subset_size", "aug_pct", "round", "gain",
         "chi2", "p_value", "significant"],
        p_rows,
    )
    _write_csv(
        os.path.join(out_dir, "neg_log_p.csv"),
        ["dataset", "group", "subset_size", "aug_pct", "round", "neg_log10_p"],
        log_rows,
    )


def _write_appendix_tables(out_dir, best_models, tests) -> None:
    datasets = sorted({combo[0] for combo in best_models})
    groups = sorted({combo[1] for combo in best_models}, key=_group_sort_key)
    pcts = sorted({combo[3] for combo in best_models})
    for ds in datasets:
        sizes = sorted({c[2] for c in best_models if c[0] == ds})
        header = ["subset_size"] + [
            f"{g}_{_fmt(p)}" for g in groups for p in pcts
        ]
        base_rows, p_rows = [], []
        for size in sizes:
            base_row, p_row = [str(size)], [str(size)]
            for g in groups:
                for p in pcts:
                    rec = best_models.get((ds, g, size, p))
                    base_row.append("" if rec is None else repr(rec.baseline_f1))
                    test = tests.get(rec.key()) if rec is not None else None
                    p_row.append("" if test is None else repr(test.p_value))
            base_rows.append(base_row)
            p_rows.append(p_row)
        _write_csv(
            os.path.join(out_dir, f"baseline_table_{ds}.csv"), header, base_rows
        )
        _write_csv(
            os.path.join(out_dir, f"pvalue_table_{ds}.csv"), header, p_rows
        )


def _write_text_summary(
    out_dir, rows, ok_rows, gains, significant, unpaired, mean_by_group
) -> None:
    lines = [
        f"cells: {len(rows)} total, {len(ok_rows)} ok, "
        f"{len(rows) - len(ok_rows)} failed",
        f"gain records: {len(gains)}",
        f"unpaired augmented cells (no ok baseline): {len(unpaired)}",
        "",
        f"mean gain by group (alpha = {ALPHA}):",
    ]
    for (ds, group), (mean, n) in sorted(
        mean_by_group.items(), key=lambda kv: (kv[0][0], _group_sort_key(kv[0][1]))
    ):
        lines.append(f"  {ds:>12} {group:<4} mean_gain={mean:+.4f} over {n} models")
    lines.append("")
    if significant:
        lines.append(f"significant models (p < {ALPHA}):")
        for s in significant:
            ds, group, size, pct, rnd = s.key
            lines.append(
                f"  {ds} {group} N={size} p={pct} round={rnd}: "
                f"gain={s.gain:+.4f}, p_value={s.test.p_value:.6f}"
            )
    else:
        lines.append("no significant models")
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
