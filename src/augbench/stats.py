"""Paired-model comparison: contingency tables, the continuity-corrected
McNemar test, F1 gains and best-model filtering.

All operations are pure functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

from .errors import MissingBaselineError
from .results import ExperimentResult

ALPHA = 0.05


@dataclass(frozen=True)
class ContingencyTable:
    a: int  # both models correct
    b: int  # baseline-only correct
    c: int  # augmented-only correct
    d: int  # both wrong

    def __post_init__(self) -> None:
        if min(self.a, self.b, self.c, self.d) < 0:
            raise ValueError("contingency counts must be non-negative")

    @property
    def total(self) -> int:
        return self.a + self.b + self.c + self.d


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # not a pytest item, despite the name

    chi2: float
    p_value: float

    @property
    def significant(self) -> bool:
        return self.p_value < ALPHA


@dataclass(frozen=True)
class GainRecord:
    dataset: str
    group: str
    subset_size: int
    aug_pct: float
    round: int
    baseline_f1: float
    augmented_f1: float

    @property
    def gain(self) -> float:
        return self.augmented_f1 - self.baseline_f1

    def key(self) -> tuple[str, str, int, float, int]:
        return (self.dataset, self.group, self.subset_size, self.aug_pct, self.round)


@dataclass(frozen=True)
class ScreenRow:
    key: tuple[str, str, int, float, int]
    gain: float
    test: TestResult | None


def contingency(
    y_true: Sequence[str],
    pred_baseline: Sequence[str],
    pred_augmented: Sequence[str],
) -> ContingencyTable:
    """Classify each index by the correctness of the two paired models."""
    if not (len(y_true) == len(pred_baseline) == len(pred_augmented)):
        raise ValueError("prediction vectors must have equal lengths")
    if not y_true:
        raise ValueError("empty prediction vectors")
    a = b = c = d = 0
    for t, pb, pa in zip(y_true, pred_baseline, pred_augmented):
        base_ok = pb == t
        aug_ok = pa == t
        if base_ok and aug_ok:
            a += 1
        elif base_ok:
            b += 1
        elif aug_ok:
            c += 1
        else:
            d += 1
    return ContingencyTable(a=a, b=b, c=c, d=d)


def chi2_sf_1dof(x: float) -> float:
    """Survival function of chi-square with 1 dof: erfc(sqrt(x/2))."""
    if x < 0:
        raise ValueError("chi-square statistic must be non-negative")
    return math.erfc(math.sqrt(x / 2.0))


def mcnemar(table: ContingencyTable) -> TestResult:
    """Continuity-corrected McNemar statistic on the discordant counts.

    chi2 = max(|b - c| - 1, 0)^2 / (b + c); with no discordant pairs the
    test is undefined and reports no evidence of difference (p = 1).
    """
    b, c = table.b, table.c
    if b + c == 0:
        return TestResult(chi2=0.0, p_value=1.0)
    num = max(abs(b - c) - 1, 0)
    chi2 = (num * num) / (b + c)
    return TestResult(chi2=chi2, p_value=chi2_sf_1dof(chi2))


def compute_gains(rows: Sequence[ExperimentResult]) -> list[GainRecord]:
    """Pair every augmented (p > 0) cell with its p = 0 baseline.

    Cells whose f1 is missing (failed runs) are ignored; an augmented
    cell without a usable baseline raises MissingBaselineError.
    """
    baselines: dict[tuple, float] = {}
    for r in rows:
        if r.aug_pct == 0 and r.f1 is not None:
            baselines[r.pairing_key()] = r.f1
    gains: list[GainRecord] = []
    missing: list[tuple] = []
    for r in rows:
        if r.aug_pct == 0 or r.f1 is None:
            continue
        base = baselines.get(r.pairing_key())
        if base is None:
            missing.append(r.key())
            continue
        gains.append(
            GainRecord(
                dataset=r.dataset,
                group=r.group,
                subset_size=r.subset_size,
                aug_pct=r.aug_pct,
                round=r.round,
                baseline_f1=base,
                augmented_f1=r.f1,
            )
        )
    if missing:
        raise MissingBaselineError(
            f"{len(missing)} augmented cell(s) lack a p=0 baseline: "
            f"{missing[:5]}{'...' if len(missing) > 5 else ''}"
        )
    return gains


def filter_best(rows: Sequence[ExperimentResult]) -> list[ExperimentResult]:
    """Keep the best-F1 row per (round, dataset, group, size, percentage).

    Duplicate runs of one combination (retries) collapse to the max-F1
    row; rows without an F1 never win. Output order follows first
    appearance of each combination.
    """
    best: dict[tuple, ExperimentResult] = {}
    order: list[tuple] = []
    for r in rows:
        if r.f1 is None:
            continue
        k = (r.round, r.dataset, r.group, r.subset_size, r.aug_pct)
        cur = best.get(k)
        if cur is None:
            best[k] = r
            order.append(k)
        elif r.f1 > cur.f1:
            best[k] = r
    return [best[k] for k in order]


def significance_screen(
    gains: Sequence[GainRecord],
    tests: dict[tuple, TestResult],
) -> list[ScreenRow]:
    """Attach McNemar results to strictly positive gains only.

    Rows with gain <= 0 carry a null test; a positive-gain row without a
    matching test entry is a key mismatch and raises.
    """
    out: list[ScreenRow] = []
    for g in gains:
        if g.gain > 0:
            test = tests.get(g.key())
            if test is None:
                raise KeyError(f"no test result for positive-gain cell {g.key()}")
            out.append(ScreenRow(key=g.key(), gain=g.gain, test=test))
        else:
            out.append(ScreenRow(key=g.key(), gain=g.gain, test=None))
    return out
