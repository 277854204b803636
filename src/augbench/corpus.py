"""Dataset ingestion, tokenization, subset resampling and splitting.

Every sampling operation here is a pure function of (input, parameters,
seed); datasets are immutable after construction, so every grid cell
can share them.
"""

from __future__ import annotations

import csv
import json
import logging
import random
import re
from dataclasses import dataclass, field

from .errors import DataError

logger = logging.getLogger(__name__)

# Word = run of word characters, with single hyphens/apostrophes allowed
# inside (guarda-chuva, d'agua). Leading/trailing punctuation drops out.
_TOKEN_RE = re.compile(r"\w+(?:['’\-]\w+)*", re.UNICODE)

_MAX_RESAMPLE_RETRIES = 16


@dataclass(frozen=True)
class LabeledExample:
    """One (sentence, class) record."""

    text: str
    label: str


@dataclass(frozen=True)
class Dataset:
    name: str
    examples: tuple[LabeledExample, ...]
    skipped: int = 0
    label_set: frozenset[str] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "label_set", frozenset(ex.label for ex in self.examples)
        )

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)

    def __getitem__(self, i: int) -> LabeledExample:
        return self.examples[i]

    def labels(self) -> list[str]:
        return [ex.label for ex in self.examples]


@dataclass(frozen=True)
class SplitPair:
    train: Dataset
    test: Dataset
    train_indices: tuple[int, ...]
    test_indices: tuple[int, ...]


def tokenize(text: str) -> list[str]:
    """Lowercase and segment into word tokens.

    Punctuation separates tokens except hyphens and apostrophes inside a
    word, which stay attached ("guarda-chuva" is one token). Empty input
    yields an empty list.
    """
    return _TOKEN_RE.findall(text.lower())


def load_dataset(
    path: str,
    text_column: str = "text",
    label_column: str = "label",
    name: str | None = None,
) -> Dataset:
    """Load a UTF-8 CSV with a header into a Dataset.

    Rows whose text or label is empty after trimming are skipped and
    counted. Raises DataError for a missing or non-UTF-8 file, a header
    lacking the declared columns, or zero valid rows.
    """
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot open dataset file: {path}") from exc
    examples: list[LabeledExample] = []
    skipped = 0
    with fh:
        try:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            missing = [c for c in (text_column, label_column) if c not in header]
            if missing:
                raise DataError(
                    f"{path}: header {header} lacks column(s) {missing}"
                )
            for row in reader:
                text = (row.get(text_column) or "").strip()
                label = (row.get(label_column) or "").strip()
                if not text or not label:
                    skipped += 1
                    continue
                examples.append(LabeledExample(text=text, label=label))
        except UnicodeDecodeError as exc:
            raise DataError(f"dataset file is not UTF-8: {path}: {exc}") from exc
    if not examples:
        raise DataError(f"{path}: zero valid rows")
    ds = Dataset(name=name or path, examples=tuple(examples), skipped=skipped)
    hist: dict[str, int] = {}
    for ex in examples:
        hist[ex.label] = hist.get(ex.label, 0) + 1
    logger.info(
        json.dumps(
            {"event": "load_dataset", "name": ds.name, "rows": len(ds),
             "skipped": skipped, "label_histogram": hist},
            ensure_ascii=False, sort_keys=True,
        )
    )
    return ds


def _derive_seed(seed: int, salt: int) -> int:
    # splitmix-style integer mix; stable across processes, unlike hash().
    return (seed * 6364136223846793005 + 1442695040888963407 + salt) % (1 << 64)


def resample_subset(dataset: Dataset, n: int, seed: int) -> Dataset:
    """Uniform sample of n examples without replacement.

    Deterministic in (dataset order, n, seed). A subset with fewer than
    two distinct labels is rejected and redrawn with a derived seed, up
    to a bounded number of retries.
    """
    if not 1 <= n <= len(dataset):
        raise DataError(f"subset size {n} out of range 1..{len(dataset)}")
    if len(dataset.label_set) < 2:
        raise DataError(f"{dataset.name}: fewer than two labels; cannot subset")
    current = seed
    for _ in range(_MAX_RESAMPLE_RETRIES + 1):
        idx = random.Random(current).sample(range(len(dataset)), n)
        chosen = tuple(dataset.examples[i] for i in idx)
        if len({ex.label for ex in chosen}) >= 2:
            return Dataset(name=dataset.name, examples=chosen)
        current = _derive_seed(current, 1)
    raise DataError(
        f"{dataset.name}: could not draw a subset of {n} with >=2 labels "
        f"after {_MAX_RESAMPLE_RETRIES} retries"
    )


def _allocate_stratified(
    counts: list[int], target_train: int
) -> list[int]:
    """Per-label train counts summing to target_train.

    Every label with >=2 members keeps at least one example on each side
    of the split when capacity allows; remaining slots go to the largest
    fractional remainders, ties resolved by label position.
    """
    total = sum(counts)
    ratio = target_train / total
    lo = [1 if c >= 2 else 0 for c in counts]
    hi = [c - 1 if c >= 2 else c for c in counts]
    if sum(lo) > target_train:  # more labels than train slots
        lo = [0] * len(counts)
    if sum(hi) < target_train:  # test side cannot keep everything out
        hi = list(counts)
    alloc = [min(max(int(c * ratio), lo[i]), hi[i]) for i, c in enumerate(counts)]
    remainders = sorted(
        range(len(counts)),
        key=lambda i: (-(counts[i] * ratio - int(counts[i] * ratio)), i),
    )
    k = 0
    while sum(alloc) < target_train:
        i = remainders[k % len(counts)]
        if alloc[i] < hi[i]:
            alloc[i] += 1
        k += 1
        if k > 4 * len(counts) * (target_train + 1):  # pragma: no cover
            raise AssertionError("stratified allocation did not converge")
    while sum(alloc) > target_train:
        i = remainders[k % len(counts)]
        if alloc[i] > lo[i]:
            alloc[i] -= 1
        k += 1
    return alloc


def split(subset: Dataset, ratio: float = 0.75, seed: int = 0) -> SplitPair:
    """Stratified train/test split with |train| = round(ratio * N)."""
    if len(subset) < 4:
        raise DataError(f"subset of {len(subset)} is too small to split")
    if not 0.0 < ratio < 1.0:
        raise DataError(f"split ratio {ratio} outside (0, 1)")
    n = len(subset)
    target_train = int(ratio * n + 0.5)
    by_label: dict[str, list[int]] = {}
    for i, ex in enumerate(subset.examples):
        by_label.setdefault(ex.label, []).append(i)
    labels = list(by_label)
    alloc = _allocate_stratified([len(by_label[l]) for l in labels], target_train)
    rng = random.Random(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label, take in zip(labels, alloc):
        members = by_label[label][:]
        rng.shuffle(members)
        train_idx.extend(members[:take])
        test_idx.extend(members[take:])
    train_idx.sort()
    test_idx.sort()
    make = lambda idx: Dataset(
        name=subset.name, examples=tuple(subset.examples[i] for i in idx)
    )
    return SplitPair(
        train=make(train_idx),
        test=make(test_idx),
        train_indices=tuple(train_idx),
        test_indices=tuple(test_idx),
    )


def select_augmentation_targets(
    train: Dataset, p: float, seed: int
) -> list[int]:
    """Uniform sample of floor(p * |train|) source indices, ascending."""
    if not 0.0 <= p <= 1.0:
        raise DataError(f"augmentation percentage {p} outside [0, 1]")
    k = int(p * len(train))
    if k == 0:
        return []
    return sorted(random.Random(seed).sample(range(len(train)), k))
