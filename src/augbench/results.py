"""Result rows for one experiment grid cell, and their CSV round trip.

The CSV is the single results format; the writer is canonical (floats
via repr, missing values as empty fields) so parse -> re-emit is
byte-identical.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from .errors import DataError, open_input

GROUPS = ("EDA", "Syn", "BT")  # augmentation groups, in report order

CSV_COLUMNS = [
    "dataset", "group", "subset_size", "aug_pct", "round", "status",
    "f1", "baseline_f1", "gain", "b", "c", "chi2", "p_value",
]

STATUS_OK = "ok"
STATUS_AUG_FAILED = "aug_failed"
STATUS_TRAIN_FAILED = "train_failed"


@dataclass
class ExperimentResult:
    dataset: str
    group: str
    subset_size: int
    aug_pct: float
    round: int
    status: str = STATUS_OK
    f1: float | None = None
    baseline_f1: float | None = None
    gain: float | None = None
    b: int | None = None
    c: int | None = None
    chi2: float | None = None
    p_value: float | None = None

    def key(self) -> tuple[str, str, int, float, int]:
        return (self.dataset, self.group, self.subset_size, self.aug_pct, self.round)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse(text: str, kind):
    return None if text == "" else kind(text)


def write_csv(path: str, header: list[str], rows) -> None:
    """The package's one CSV writer: UTF-8, "\n" line ends, RFC 4180 quoting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_results_csv(path: str, rows: list[ExperimentResult]) -> None:
    write_csv(path, CSV_COLUMNS, (
        [r.dataset, r.group, str(r.subset_size), _fmt(r.aug_pct),
         str(r.round), r.status, _fmt(r.f1), _fmt(r.baseline_f1),
         _fmt(r.gain), _fmt(r.b), _fmt(r.c), _fmt(r.chi2), _fmt(r.p_value)]
        for r in rows
    ))


def read_results_csv(path: str) -> list[ExperimentResult]:
    """Parse a results CSV; DataError for an unreadable file, a wrong
    header or a field that does not parse."""
    try:
        with open_input(path, "results file", DataError, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != CSV_COLUMNS:
                raise DataError(
                    f"{path}: unexpected results header {reader.fieldnames}"
                )
            return [
                ExperimentResult(
                    dataset=rec["dataset"],
                    group=rec["group"],
                    subset_size=int(rec["subset_size"]),
                    aug_pct=float(rec["aug_pct"]),
                    round=int(rec["round"]),
                    status=rec["status"],
                    f1=_parse(rec["f1"], float),
                    baseline_f1=_parse(rec["baseline_f1"], float),
                    gain=_parse(rec["gain"], float),
                    b=_parse(rec["b"], int),
                    c=_parse(rec["c"], int),
                    chi2=_parse(rec["chi2"], float),
                    p_value=_parse(rec["p_value"], float),
                )
                for rec in reader
            ]
    except (csv.Error, TypeError, ValueError) as exc:
        raise DataError(f"{path}: unparseable results row: {exc!r}") from exc
