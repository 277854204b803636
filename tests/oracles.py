"""Reference implementations the vectorised and bulk code is checked
against: scalar formulas, the RBF kernels computed from features, and
the straightforward loaders and translator that the faster ones
replaced. Also the in-memory builders that only tests use, and a
reader of the report bundle's mean-gain tables."""

import csv
import json
import math
import random
from itertools import chain
from operator import itemgetter
from sys import intern

import numpy as np

from augbench.corpus import Dataset, LabeledExample
from augbench.errors import DataError, ResourceError
from augbench.kernels import Distances, sq_distances
from augbench.resources import SynonymMap, _mean_vectors
from augbench.stats import ContingencyTable


def rbf_kernel(x: np.ndarray, y: np.ndarray, gamma: float) -> float:
    """exp(-gamma * ||x - y||^2)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    d = x - y
    return math.exp(-gamma * float(np.dot(d, d)))


def rbf_gram(X: np.ndarray, gamma: float) -> np.ndarray:
    """Gram matrix exp(-gamma * ||x_i - x_j||^2); unit diagonal pinned exactly."""
    K = sq_distances(X, X)
    K *= -gamma
    np.exp(K, out=K)
    np.fill_diagonal(K, 1.0)
    return K


def rbf_cross_gram(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """Kernel values between the rows of A and the rows of B."""
    K = sq_distances(A, B)
    K *= -gamma
    return np.exp(K, out=K)


def one_block(A: np.ndarray, B: np.ndarray) -> Distances:
    """The squared distances from the rows of A to those of B as one
    block: what ``svm_train`` (B is A) and ``svm_predict`` read."""
    return Distances([sq_distances(A, B)])


def cosine_similarity(x: np.ndarray, y: np.ndarray) -> float:
    """cos(x, y); undefined (raises) for zero vectors."""
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx == 0.0 or ny == 0.0:
        raise ValueError("cosine similarity undefined for zero vectors")
    return float(np.dot(x, y) / (nx * ny))


def nearest_full_sort(word: str, k: int, store) -> tuple[tuple[str, float], ...]:
    """Top-k neighbours by one lexsort of every candidate: similarity
    descending, then word order. The reference for the partitioned query
    behind ``resources.nearest_neighbors``."""
    qi = store._index.get(word)
    if qi is None:
        return ()
    q = store.matrix[qi]
    qnorm = store._norms[qi]
    if qnorm == 0.0:
        return ()
    sims = store.matrix @ q
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = sims / (store._norms * qnorm)
    mask = (store._norms > 0.0) & (np.arange(len(store)) != qi)
    candidates = np.nonzero(mask)[0]
    if candidates.size == 0:
        return ()
    rank = np.empty(len(store.words), dtype=np.int64)
    rank[np.argsort(np.asarray(store.words))] = np.arange(len(store.words))
    order = np.lexsort((rank[candidates], -sims[candidates]))
    top = candidates[order[:k]]
    return tuple((store.words[i], float(sims[i])) for i in top)


def load_dataset_dictreader(path: str, text_column: str = "text",
                            label_column: str = "label") -> Dataset:
    """``corpus.load_dataset`` as one csv.DictReader dict per row."""
    examples: list[LabeledExample] = []
    skipped = 0
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in (text_column, label_column) if c not in header]
        if missing:
            raise DataError(f"{path}: header {header} lacks column(s) {missing}")
        for row in reader:
            text = (row.get(text_column) or "").strip()
            label = (row.get(label_column) or "").strip()
            if not text or not label:
                skipped += 1
                continue
            examples.append(LabeledExample(text=text, label=label))
    if not examples:
        raise DataError(f"{path}: zero valid rows")
    return Dataset(name=path, examples=tuple(examples), skipped=skipped)


def load_embeddings_per_element(path: str):
    """``resources.load_embeddings`` with one float() and one isfinite()
    per component, one row at a time into a list; rows keep their
    trailing whitespace. Returns (words, matrix, skipped), or raises the
    loader's ResourceError."""
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise ResourceError(f"cannot open embedding file: {path}") from exc
    words: list[str] = []
    rows: list[list[float]] = []
    seen: set[str] = set()
    skipped = 0
    with fh:
        try:
            header = fh.readline().split()
            if len(header) != 2:
                raise ResourceError(f"{path}: header must be '<count> <dim>'")
            try:
                _count, dim = int(header[0]), int(header[1])
            except ValueError as exc:
                raise ResourceError(
                    f"{path}: non-integer header {header}") from exc
            if dim < 1:
                raise ResourceError(f"{path}: dimension {dim} < 1")
            for line in fh:
                parts = line.rstrip("\n").split(" ")
                if len(parts) != dim + 1 or not parts[0]:
                    skipped += 1
                    continue
                try:
                    values = [float(v) for v in parts[1:]]
                except ValueError:
                    skipped += 1
                    continue
                if not all(math.isfinite(v) for v in values):
                    skipped += 1
                    continue
                if parts[0] in seen:
                    skipped += 1
                    continue
                seen.add(parts[0])
                words.append(parts[0])
                rows.append(values)
        except UnicodeDecodeError as exc:
            raise ResourceError(
                f"embedding file is not UTF-8: {path}: {exc}") from exc
    if not words:
        raise ResourceError(f"{path}: zero valid embedding rows")
    return tuple(words), np.asarray(rows, dtype=np.float64), skipped


def translate_per_token(provider, text: str, source: str) -> str:
    """``DictTranslationProvider.translate`` as a generator over tokens."""
    table = provider.forward if source == provider.source_lang else provider.inverse
    return " ".join(table.get(tok, tok) for tok in text.split(" "))


def load_translation_cache_per_line(path: str) -> dict:
    """``TranslationCache``'s file load as one json.loads per line; a bad
    record, or one with a field that is not a string, raises DataError
    naming the file and its 1-based line."""
    data = {}
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                key = (rec["provider"], rec["source"], rec["target"],
                       rec["text"])
                translated = rec["translated"]
                if not all(isinstance(f, str) for f in (*key, translated)):
                    raise TypeError("a field is not a string")
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(
                    f"{path}: line {number}: malformed cache record: {exc!r}"
                ) from exc
            data[key] = translated
    return data


def load_translation_cache_keyed(path: str) -> dict:
    """The cache load that one table per direction replaced, for a file of
    valid records: each block of about a million characters parsed as one
    JSON array into one dict keyed by (provider, source, target, text),
    with the first three interned."""
    data = {}
    record_key = itemgetter("provider", "source", "target", "text")
    with open(path, encoding="utf-8") as fh:
        while block := fh.readlines(1 << 20):
            lines = [line for line in map(str.strip, block) if line]
            records = json.loads("[" + ",\n".join(lines) + "]")
            keys = [(intern(p), intern(s), intern(t), text)
                    for p, s, t, text in map(record_key, records)]
            translations = [rec["translated"] for rec in records]
            if (len(records) != len(lines) or set(map(len, records)) - {5}
                    or set(map(type, chain(translations, *keys))) - {str}):
                raise DataError(f"{path}: malformed cache record")
            data.update(zip(keys, translations))
    return data


def back_translate_per_sentence(examples, provider, pivot: str, cache,
                                source_lang: str = "pt") -> list:
    """``pipeline.back_translate`` one sentence at a time: both hops of a
    sentence go through ``cache.get``, then on a miss the provider and
    ``cache.put``, before the next sentence; a blank text is skipped."""
    def hop(text, source, target):
        hit = cache.get(provider.name, source, target, text)
        if hit is None:
            hit = provider.translate(text, source, target)
            cache.put(provider.name, source, target, text, hit)
        return hit

    rows, skipped = [], []
    for position, ex in enumerate(examples):
        if ex.text.strip():
            rows.append(LabeledExample(
                hop(hop(ex.text, source_lang, pivot), pivot, source_lang), ex.label))
        else:
            skipped.append(position)
    return rows, skipped


def synonym_map_from_dict(mapping: dict[str, list[str]]) -> SynonymMap:
    """Build a SynonymMap in memory, applying the same hygiene as the parser."""
    entries: dict[str, tuple[str, ...]] = {}
    for word, cands in mapping.items():
        seen: list[str] = []
        for c in cands:
            if c != word and c not in seen and len(c.split()) == 1:
                seen.append(c)
        if seen:
            entries[word] = tuple(seen)
    return SynonymMap(entries=entries)


def sentence_vector(tokens, store) -> np.ndarray:
    """Component-wise mean of the embeddings of in-vocabulary tokens, as
    featurize computes it for one sentence.

    Out-of-vocabulary tokens are skipped; a sentence with no known token
    maps to the zero vector.
    """
    return _mean_vectors([store.token_ids(tokens)], store.matrix)[0]


def word_vector(store, word: str) -> np.ndarray | None:
    """The embedding row of ``word``, or None when it is out of vocabulary."""
    ids = store.token_ids([word])
    return store.matrix[ids[0]] if ids else None


def allocate_stratified_cursor(counts: list[int], target_train: int) -> list[int]:
    """Per-label train counts by a modular cursor over the remainder
    order: bounds and floor as ``corpus._allocate_stratified``, then one
    step per visited label that has room, until the total is met. The
    reference for the round-by-round selection."""
    total = sum(counts)
    ratio = target_train / total
    lo = [1 if c >= 2 else 0 for c in counts]
    hi = [c - 1 if c >= 2 else c for c in counts]
    if sum(lo) > target_train:
        lo = [0] * len(counts)
    if sum(hi) < target_train:
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
        if k > 4 * len(counts) * (target_train + 1):
            raise RuntimeError("stratified allocation did not converge")
    while sum(alloc) > target_train:
        i = remainders[k % len(counts)]
        if alloc[i] > lo[i]:
            alloc[i] -= 1
        k += 1
    return alloc


def select_targets_by_draw(train: Dataset, p: float, seed: int) -> list[int]:
    """``corpus.select_augmentation_targets`` as a sorted seeded draw of
    floor(p * |train|) indices for every p, all of them included."""
    k = int(p * len(train))
    return sorted(random.Random(seed).sample(range(len(train)), k)) if k else []


def evaluate_tallies(y_true, y_pred) -> float:
    """Weighted F1 from tp/fp/fn/support tallies kept in one pass: the
    reference for ``metrics.evaluate``."""
    labels = sorted(set(y_true) | set(y_pred))
    tp = {c: 0 for c in labels}
    fp = {c: 0 for c in labels}
    fn = {c: 0 for c in labels}
    support = {c: 0 for c in labels}
    for t, p in zip(y_true, y_pred):
        support[t] += 1
        if t == p:
            tp[t] += 1
        else:
            fp[p] += 1
            fn[t] += 1
    total = len(y_true)
    weighted = 0.0
    for c in labels:
        prec = tp[c] / (tp[c] + fp[c]) if tp[c] + fp[c] else 0.0
        rec = tp[c] / (tp[c] + fn[c]) if tp[c] + fn[c] else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        weighted += (support[c] / total) * f1
    return weighted


def contingency_branches(y_true, pred_baseline, pred_augmented) -> ContingencyTable:
    """McNemar table by one four-way branch per index: the reference for
    ``stats.contingency``."""
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


def read_mean_gains(path) -> dict:
    """{(dataset, group[, subset_size]): (mean_gain, n_models)} of a
    ``mean_gain_by_group*.csv`` of the report bundle."""
    with open(path, encoding="utf-8", newline="") as fh:
        _, *rows = csv.reader(fh)
    return {(ds, group, *map(int, extra)): (float(mean), int(n))
            for ds, group, *extra, mean, n in rows}
