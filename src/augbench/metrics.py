"""Classification metrics and prediction persistence.

Weighted F1 follows the support-weighted convention: each class
contributes (support / total) * F1, with precision/recall/F1 defined as
0 whenever their denominator is 0.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from collections.abc import Sequence

from .errors import DataError, open_input


@dataclass(frozen=True)
class EvalReport:
    weighted_f1: float


def evaluate(y_true: Sequence[str], y_pred: Sequence[str]) -> EvalReport:
    """The support-weighted F1 of the predictions."""
    if len(y_true) != len(y_pred):
        raise ValueError(f"length mismatch: {len(y_true)} vs {len(y_pred)}")
    if not y_true:
        raise ValueError("empty evaluation input")
    support = Counter(y_true)
    predicted = Counter(y_pred)
    tp = Counter(t for t, p in zip(y_true, y_pred) if t == p)
    total = len(y_true)
    weighted = 0.0
    for c in sorted(support.keys() | predicted.keys()):
        prec = tp[c] / predicted[c] if predicted[c] else 0.0
        rec = tp[c] / support[c] if support[c] else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        weighted += (support[c] / total) * f1
    return EvalReport(weighted_f1=weighted)


def save_predictions(
    path: str, y_true: Sequence[str], y_pred: Sequence[str]
) -> None:
    """Persist paired predictions as JSON lines, one record per index."""
    if len(y_true) != len(y_pred):
        raise ValueError("true/predicted length mismatch")
    # The bytes of json.dumps({...}, ensure_ascii=False) per record, with
    # each distinct label encoded once.
    quoted = {s: json.dumps(s, ensure_ascii=False) for s in {*y_true, *y_pred}}
    lines = [
        f'{{"index": {i}, "true_label": {quoted[t]}, '
        f'"predicted_label": {quoted[p]}}}\n'
        for i, (t, p) in enumerate(zip(y_true, y_pred))
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


_FIELDS = ("index", "true_label", "predicted_label")


def load_predictions(path: str) -> tuple[list[str], list[str]]:
    """Read a predictions file back into (y_true, y_pred), index order.

    Each non-blank line must be a record as ``save_predictions`` writes
    it: exactly the keys of ``_FIELDS``, an int index (not a bool) and
    string labels. DataError for an unreadable file, any other line
    (naming it) and indices other than 0..n-1, each once.
    """
    records = []
    with open_input(path, "predictions file", DataError) as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                rec = None
            if not (isinstance(rec, dict) and rec.keys() == set(_FIELDS)
                    and [type(rec[k]) for k in _FIELDS] == [int, str, str]):
                raise DataError(
                    f"{path}: line {number}: not a prediction record of an "
                    f"int index and two string labels: {line.strip()[:80]}")
            records.append(tuple(rec[k] for k in _FIELDS))
    records.sort(key=lambda r: r[0])
    if [r[0] for r in records] != list(range(len(records))):
        raise DataError(f"{path}: prediction indices are not 0..{len(records) - 1}")
    return [r[1] for r in records], [r[2] for r in records]
