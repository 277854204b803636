"""Grid result rows, their CSV round trip, and the output directory.

The CSV is the single results format; the writer is canonical (floats
via repr, missing values as empty fields) so parse -> re-emit is
byte-identical.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, fields
from operator import attrgetter

from .errors import DataError, open_input

GROUPS = ("EDA", "Syn", "BT")  # augmentation groups, in report order

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


# The columns of a results CSV: ExperimentResult's fields, in order.
CSV_COLUMNS = [f.name for f in fields(ExperimentResult)]
_VALUES = attrgetter(*CSV_COLUMNS)


def _optional(kind):
    return lambda text: None if text == "" else kind(text)


# How a column's text is parsed, by its field's annotation; an empty
# field of an optional column is None.
_KINDS = {"str": str, "int": int, "float": float,
          "int | None": _optional(int), "float | None": _optional(float)}
_PARSERS = [_KINDS[f.type] for f in fields(ExperimentResult)]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def make_output_dir(path: str) -> None:
    """Make the directory ``path`` and its parents; DataError if it cannot be one."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot make output directory: {path}: {exc.strerror}") from exc


def write_csv(path: str, header: list[str], rows) -> None:
    """The package's one CSV writer: UTF-8, "\n" line ends, RFC 4180 quoting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_results_csv(path: str, rows: list[ExperimentResult]) -> None:
    write_csv(path, CSV_COLUMNS, (list(map(_fmt, _VALUES(r))) for r in rows))


def read_results_csv(path: str) -> list[ExperimentResult]:
    """Parse a results CSV; DataError for an unreadable file, a wrong
    header, a row of another field count than the header's or a field
    that does not parse. A blank line is no row."""
    try:
        with open_input(path, "results file", DataError, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != CSV_COLUMNS:
                raise DataError(f"{path}: unexpected results header {header}")
            rows = []
            for rec in filter(None, reader):  # a blank line is no row
                if len(rec) != len(CSV_COLUMNS):
                    raise DataError(
                        f"{path}: line {reader.line_num}: {len(rec)} fields, "
                        f"the header has {len(CSV_COLUMNS)}")
                rows.append(ExperimentResult(
                    *(parse(text) for parse, text in zip(_PARSERS, rec))))
            return rows
    except (csv.Error, ValueError) as exc:
        raise DataError(f"{path}: unparseable results row: {exc!r}") from exc
