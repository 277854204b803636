"""Summary tables over a results set.

The report pairs nothing itself: each p>0 row carries the pairing
fields the runner computed for it (``baseline_f1``, ``gain``, and for a
positive gain the McNemar ``chi2`` and ``p_value``), and every table is
read from those rows. Emits the report bundle as CSV plus a
human-readable text summary: baseline-F1 grids per dataset, mean gains
per group and per (group, size), p-value grids with significance
flags, and the -log10(p) series behind significance plots.
"""

from __future__ import annotations

import math
import os
from collections import Counter

from .errors import DataError
from .results import (ALL_DATASETS, GROUPS, STATUS_OK, ExperimentResult,
                      _fmt, make_output_dir, write_csv)
from .stats import ALPHA


def _group_sort_key(group: str):
    try:
        return (0, GROUPS.index(group))
    except ValueError:
        return (1, group)


def summarize(
    rows: list[ExperimentResult], out_dir: str
) -> tuple[list[ExperimentResult], list[ExperimentResult]]:
    """Write the report bundle for a results set; return its gain records
    (the ok p>0 rows with a gain, in row order) and, of those, the
    significant ones."""
    if not rows:
        raise DataError("cannot summarize an empty results set")
    repeated = [k for k, n in Counter(r.key() for r in rows).items() if n > 1]
    if repeated:
        raise DataError(f"repeated cell key(s) in results: {repeated[:5]}")
    make_output_dir(out_dir)
    ok_rows = [r for r in rows if r.status == STATUS_OK and r.f1 is not None]
    if not ok_rows:
        raise DataError("no successful cells to summarize")

    # An augmented cell whose baseline failed carries no gain; it is
    # reported, not silently dropped.
    augmented = [r for r in ok_rows if r.aug_pct > 0]
    gains = [r for r in augmented if r.gain is not None]
    unpaired = [r.key() for r in augmented if r.gain is None]
    untested = [
        r.key() for r in gains
        if r.gain > 0 and (r.chi2 is None or r.p_value is None)
    ]
    if untested:
        raise DataError(
            f"positive-gain cell(s) without chi2/p_value: {untested}"
        )
    significant = [r for r in gains if r.gain > 0 and r.p_value < ALPHA]

    mean_by_group = _mean_gains(out_dir, "mean_gain_by_group", gains)
    _mean_gains(out_dir, "mean_gain_by_group_size", gains, "subset_size")

    # best augmented model across rounds per combination; ties go to the
    # earliest round so the report is deterministic
    best_models: dict[tuple[str, str, int, float], ExperimentResult] = {}
    for r in gains:
        combo = (r.dataset, r.group, r.subset_size, r.aug_pct)
        cur = best_models.get(combo)
        if cur is None or (r.f1, -r.round) > (cur.f1, -cur.round):
            best_models[combo] = r

    _write_screen(out_dir, gains)
    _write_appendix_tables(out_dir, best_models)
    _write_text_summary(
        out_dir, rows, ok_rows, gains, significant, unpaired, mean_by_group
    )
    return gains, significant


def _mean_gains(out_dir: str, name: str, gains: list[ExperimentResult],
                *extra: str) -> dict:
    """(mean gain, models) per (dataset or ALL_DATASETS, group, *extra
    fields), in report order: by dataset, then group, then the extra fields.
    Writes them to ``<name>.csv``."""
    by_key: dict[tuple, list[float]] = {}
    for r in gains:
        tail = tuple(getattr(r, field) for field in extra)
        for ds in (r.dataset, ALL_DATASETS):
            by_key.setdefault((ds, r.group, *tail), []).append(r.gain)
    means = {
        k: (sum(v) / len(v), len(v)) for k, v in sorted(
            by_key.items(),
            key=lambda kv: (kv[0][0], _group_sort_key(kv[0][1]), *kv[0][2:]))
    }
    write_csv(
        os.path.join(out_dir, f"{name}.csv"),
        ["dataset", "group", *extra, "mean_gain", "n_models"],
        ([*map(str, key), repr(mean), str(n)] for key, (mean, n) in means.items()),
    )
    return means


def _write_screen(out_dir, gains: list[ExperimentResult]) -> None:
    """One pvalues.csv row per gain; only a positive gain has a test."""
    p_rows, log_rows = [], []
    for r in gains:
        cell = [r.dataset, r.group, str(r.subset_size), _fmt(r.aug_pct),
                str(r.round)]
        if r.gain <= 0:
            p_rows.append(cell + [repr(r.gain), "", "", ""])
            continue
        p_rows.append(cell + [
            repr(r.gain), repr(r.chi2), repr(r.p_value),
            "true" if r.p_value < ALPHA else "false",
        ])
        if r.p_value > 0:
            log_rows.append(cell + [repr(-math.log10(r.p_value))])
    write_csv(
        os.path.join(out_dir, "pvalues.csv"),
        ["dataset", "group", "subset_size", "aug_pct", "round", "gain",
         "chi2", "p_value", "significant"],
        p_rows,
    )
    write_csv(
        os.path.join(out_dir, "neg_log_p.csv"),
        ["dataset", "group", "subset_size", "aug_pct", "round", "neg_log10_p"],
        log_rows,
    )


def _write_appendix_tables(out_dir, best_models) -> None:
    datasets = sorted({combo[0] for combo in best_models})
    groups = sorted({combo[1] for combo in best_models}, key=_group_sort_key)
    pcts = sorted({combo[3] for combo in best_models})
    for ds in datasets:
        sizes = sorted({c[2] for c in best_models if c[0] == ds})
        header = ["subset_size"] + [
            f"{g}_{_fmt(p)}" for g in groups for p in pcts
        ]
        for table, field in (("baseline_table", "baseline_f1"),
                             ("pvalue_table", "p_value")):
            write_csv(os.path.join(out_dir, f"{table}_{ds}.csv"), header, (
                [str(size)] + [
                    _fmt(getattr(best_models.get((ds, g, size, p)), field, None))
                    for g in groups for p in pcts
                ]
                for size in sizes
            ))


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
    for (ds, group), (mean, n) in mean_by_group.items():
        lines.append(f"  {ds:>12} {group:<4} mean_gain={mean:+.4f} over {n} models")
    lines.append("")
    if significant:
        lines.append(f"significant models (p < {ALPHA}):")
        for r in significant:
            lines.append(
                f"  {r.dataset} {r.group} N={r.subset_size} p={r.aug_pct} "
                f"round={r.round}: gain={r.gain:+.4f}, p_value={r.p_value:.6f}"
            )
    else:
        lines.append("no significant models")
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
