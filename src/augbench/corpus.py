"""Dataset ingestion, tokenization, subset resampling and splitting.

Every sampling operation here is a pure function of (input, parameters,
seed); datasets are immutable after construction, so every grid cell
can share them.
"""

from __future__ import annotations

import csv
import random
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .errors import DataError, open_input

# Word = run of word characters, with single hyphens/apostrophes allowed
# inside (guarda-chuva, d'agua). Leading/trailing punctuation drops out.
_TOKEN_RE = re.compile(r"\w+(?:['’\-]\w+)*", re.UNICODE)

_MAX_RESAMPLE_RETRIES = 16


class LabeledExample(NamedTuple):
    """One (sentence, class) record: an immutable, hashable pair."""

    text: str
    label: str


_LABEL = itemgetter(1)


@dataclass(frozen=True)
class Dataset:
    name: str
    examples: tuple[LabeledExample, ...]
    skipped: int = 0

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)

    def __getitem__(self, i: int) -> LabeledExample:
        return self.examples[i]

    def labels(self) -> list[str]:
        return list(map(_LABEL, self.examples))


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
    """Load a UTF-8 CSV with a header into a Dataset; a leading byte
    order mark (U+FEFF) is dropped.

    Fields are read as csv.DictReader would: a repeated column name means
    its last column, a short row reads "" for what it lacks and a blank
    line is no row. Rows whose text or label is empty after trimming are
    skipped and counted. Raises DataError for a missing, non-UTF-8 or
    malformed file, a header lacking the declared columns, or zero valid
    rows.
    """
    examples: list[LabeledExample] = []
    skipped = 0
    # utf-8-sig drops a byte order mark at the start of the file only, and
    # reads forward, so a pipe is a dataset file too.
    with open_input(path, "dataset file", DataError, newline="",
                    encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            missing = [c for c in (text_column, label_column) if c not in header]
            if missing:
                raise DataError(
                    f"{path}: header {header} lacks column(s) {missing}"
                )
            column = {c: i for i, c in enumerate(header)}
            ti, li = column[text_column], column[label_column]
            width = max(ti, li) + 1
            for row in reader:
                if len(row) < width:
                    if not row:
                        continue
                    row += [""] * (width - len(row))
                text = row[ti].strip()
                label = row[li].strip()
                if text and label:
                    examples.append(LabeledExample(text, label))
                else:
                    skipped += 1
        except csv.Error as exc:
            raise DataError(
                f"{path}: malformed CSV at line {reader.line_num}: {exc}"
            ) from exc
    if not examples:
        raise DataError(f"{path}: zero valid rows")
    return Dataset(name=name or path, examples=tuple(examples), skipped=skipped)


def _derive_seed(seed: int, salt: int) -> int:
    # splitmix-style integer mix; stable across processes, unlike hash().
    return (seed * 6364136223846793005 + 1442695040888963407 + salt) % (1 << 64)


def _check_draw(dataset: Dataset, n: int) -> None:
    if not 1 <= n <= len(dataset):
        raise DataError(
            f"{dataset.name}: subset size {n} out of range 1..{len(dataset)}")


def _train_size(n: int, ratio: float) -> int:
    """|train| = round(ratio * n) of a split of n examples; DataError
    unless n >= 4 and each side gets at least one example."""
    if n < 4:
        raise DataError(f"subset of {n} is too small to split")
    if not 0.0 < ratio < 1.0:
        raise DataError(f"split ratio {ratio} outside (0, 1)")
    target_train = int(ratio * n + 0.5)
    if not 1 <= target_train <= n - 1:
        side = "test" if target_train else "train"
        raise DataError(f"split ratio {ratio} of a subset of {n} "
                        f"leaves the {side} side empty")
    return target_train


def check_subset(dataset: Dataset, n: int, ratio: float) -> None:
    """DataError unless a size-n subset of ``dataset`` can be drawn and
    split at ``ratio``: 4 <= n <= |dataset|, and both sides of the split
    get an example."""
    _check_draw(dataset, n)
    _train_size(n, ratio)


def resample_subset(dataset: Dataset, n: int, seed: int) -> Dataset:
    """Uniform sample of n examples without replacement.

    Deterministic in (dataset order, n, seed). A subset with fewer than
    two distinct labels is rejected and redrawn with a derived seed, up
    to a bounded number of retries.
    """
    _check_draw(dataset, n)
    if len(set(map(_LABEL, dataset.examples))) < 2:
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
    of the split when capacity allows. Each label starts at its clamped
    floor; the slots still short (or over) are then given (or taken) in
    rounds over the labels by largest fractional remainder, ties by label
    position: round p moves one slot of each label that still has more
    than p to spare, until the total is met.
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
    order = sorted(
        range(len(counts)),
        key=lambda i: (-(counts[i] * ratio - int(counts[i] * ratio)), i),
    )
    short = target_train - sum(alloc)
    spare = [hi[i] - a if short > 0 else a - lo[i] for i, a in enumerate(alloc)]
    rounds = [i for p in range(max(spare)) for i in order if spare[i] > p]
    for i in rounds[:abs(short)]:
        alloc[i] += 1 if short > 0 else -1
    return alloc


def split(subset: Dataset, ratio: float = 0.75, seed: int = 0) -> SplitPair:
    """Stratified train/test split with |train| = round(ratio * N)."""
    target_train = _train_size(len(subset), ratio)
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
    if k == len(train):  # the draw of every index, sorted, is all of them
        return list(range(k))
    return sorted(random.Random(seed).sample(range(len(train)), k))
