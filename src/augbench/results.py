"""Grid result rows, their CSV round trip, and the output directory.

The CSV is the single results format; the writer is canonical (floats
via repr, missing values as empty fields) so parse -> re-emit is
byte-identical.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, fields
from itertools import chain, islice
from operator import attrgetter
from types import SimpleNamespace

from .errors import DataError, open_input

GROUPS = ("EDA", "Syn", "BT")  # augmentation groups, in report order
ALL_DATASETS = "ALL"  # the dataset of the report's rows over every dataset

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


def file_name_part(name: str, what: str, error: type[Exception]) -> str:
    """``name``; ``error`` naming it as ``what`` if it holds a path
    separator, since output file names are made from it, or is
    ALL_DATASETS, since the report's rows are keyed by it."""
    if "/" in name or "\\" in name:
        raise error(f"{what} {name!r} holds a path separator; "
                    "output file names are made from it")
    if name == ALL_DATASETS:
        raise error(f"{what} {name!r} names the report's rows over all datasets")
    return name


def make_output_dir(path: str) -> None:
    """Make the directory ``path`` and its parents; DataError if it cannot be one."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot make output directory: {path}: {exc.strerror}") from exc


_BLOCK = 4096  # rows per block of write_csv


def _plain(rows: list) -> bool:
    """Whether each row, joined by commas, is its CSV line: no field holds
    a comma, a quote, a carriage return or a line feed, and no row has
    fewer than two fields (csv.writer quotes a lone empty field)."""
    fields = "".join(chain.from_iterable(rows))
    return not ("," in fields or '"' in fields or "\r" in fields
                or "\n" in fields or min(map(len, rows)) < 2)


def _write_block(fh, writer, block: list) -> None:
    """Write ``block`` as write_csv does; see there."""
    # The first rows are tested alone first only so that a block of quoted
    # rows fails the test without running all of its fields together.
    if _plain(block[:64]) and _plain(block):
        fh.write("\n".join(map(",".join, block)) + "\n")
    else:
        writer.writerows(block)


def write_csv(path: str, header: list[str], rows) -> None:
    """The package's one CSV writer: UTF-8, "\n" line ends, RFC 4180 quoting.
    ``rows`` are sequences of str.

    The bytes are those of ``csv.writer(fh, lineterminator="\n")``, which
    scans each character of each field, except that a field holding "\r"
    is quoted: on Python 3.11 that writer quotes only the characters of
    its terminator, and such a field would read back as two rows. Rows
    go out in blocks: a block whose rows need no quoting is joined and
    written at once, the test being ``in`` on the block's fields run
    together; any other block goes whole to a csv.writer whose
    terminator is "\r\n", so that it quotes a field holding either
    character, and each of its lines has the "\r\n" cut to "\n" as it is
    written. For a row without a "\r" those are csv.writer's bytes.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        lf = SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n"))
        writer = csv.writer(lf, lineterminator="\r\n")
        rows = chain([header], rows)
        while block := list(islice(rows, _BLOCK)):
            _write_block(fh, writer, block)


def write_results_csv(path: str, rows: list[ExperimentResult]) -> None:
    write_csv(path, CSV_COLUMNS, (list(map(_fmt, _VALUES(r))) for r in rows))


def read_results_csv(path: str) -> list[ExperimentResult]:
    """Parse a results CSV; DataError for an unreadable file, a wrong
    header, a row of another field count than the header's, a dataset
    name that file_name_part rejects or a field that does not parse. A
    blank line is no row."""
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
                file_name_part(rec[0], f"{path}: line {reader.line_num}: "
                               "dataset", DataError)
                rows.append(ExperimentResult(
                    *(parse(text) for parse, text in zip(_PARSERS, rec))))
            return rows
    except (csv.Error, ValueError) as exc:
        raise DataError(f"{path}: unparseable results row: {exc!r}") from exc
