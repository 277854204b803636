"""Paired-model comparison: contingency tables and the
continuity-corrected McNemar test.

All operations are pure functions of their inputs. The runner pairs
each augmented model with its baseline through ``contingency`` and
``mcnemar`` and stores the result on the row; the report reads it there.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from collections.abc import Sequence

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


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # not a pytest item, despite the name

    chi2: float
    p_value: float

    @property
    def significant(self) -> bool:
        return self.p_value < ALPHA


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
    pairs = Counter(
        (pb == t, pa == t)
        for t, pb, pa in zip(y_true, pred_baseline, pred_augmented)
    )
    return ContingencyTable(
        a=pairs[True, True], b=pairs[True, False],
        c=pairs[False, True], d=pairs[False, False],
    )


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
