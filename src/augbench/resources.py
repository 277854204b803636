"""Lexical resources: paraphrase map and word-embedding store.

Both structures are immutable once loaded and safe for concurrent
reads. Parsing is strict about shape (single-token pairs, fixed vector
arity) and counts what it skips.
"""

from __future__ import annotations

import json
import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceError

logger = logging.getLogger(__name__)

_PPDB_SEP = "|||"


@dataclass(frozen=True)
class SynonymMap:
    """word -> ordered list of distinct single-token paraphrase candidates."""

    entries: dict[str, tuple[str, ...]]
    skipped: int = 0

    def candidates(self, word: str) -> tuple[str, ...]:
        return self.entries.get(word, ())

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def __len__(self) -> int:
        return len(self.entries)


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


def parse_ppdb(path: str, symmetrize: bool = False) -> SynonymMap:
    """Parse a '|||'-separated paraphrase file into a SynonymMap.

    Field 2 is the source phrase, field 3 the target. Only pairs where
    both sides are single tokens after lowercasing are kept; duplicates
    are dropped preserving first-seen order; malformed lines are skipped
    and counted.
    """
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise ResourceError(f"cannot open paraphrase file: {path}") from exc
    entries: dict[str, list[str]] = {}
    skipped = 0

    def add(src: str, dst: str) -> None:
        bucket = entries.setdefault(src, [])
        if dst != src and dst not in bucket:
            bucket.append(dst)

    with fh:
        try:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                fields = [f.strip() for f in line.split(_PPDB_SEP)]
                if len(fields) < 3:
                    skipped += 1
                    continue
                src = fields[1].lower()
                dst = fields[2].lower()
                if (len(src.split()) != 1 or len(dst.split()) != 1
                        or not src or not dst):
                    skipped += 1
                    continue
                add(src, dst)
                if symmetrize:
                    add(dst, src)
        except UnicodeDecodeError as exc:
            raise ResourceError(
                f"paraphrase file is not UTF-8: {path}: {exc}") from exc
    entries = {w: c for w, c in entries.items() if c}
    if not entries:
        raise ResourceError(f"{path}: zero usable paraphrase records")
    logger.info(
        json.dumps({"event": "parse_ppdb", "path": path,
                    "entries": len(entries), "skipped": skipped})
    )
    return SynonymMap(
        entries={w: tuple(c) for w, c in entries.items()}, skipped=skipped
    )


@dataclass(frozen=True)
class EmbeddingStore:
    """Dense word vectors with O(1) lookup and a precomputed norm cache."""

    dim: int
    words: tuple[str, ...]
    matrix: np.ndarray  # (n_words, dim) float64
    skipped: int = 0
    _index: dict[str, int] = field(init=False, repr=False)
    _norms: np.ndarray = field(init=False, repr=False)
    _lex_rank: np.ndarray = field(init=False, repr=False)
    # (word, k) -> nearest_neighbors result; the store is read-only, so an
    # entry never goes stale.
    _neighbors: dict[tuple[str, int], tuple[tuple[str, float], ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_index", {w: i for i, w in enumerate(self.words)}
        )
        object.__setattr__(
            self, "_norms", np.linalg.norm(self.matrix, axis=1)
        )
        rank = np.empty(len(self.words), dtype=np.int64)
        rank[np.argsort(np.asarray(self.words))] = np.arange(len(self.words))
        object.__setattr__(self, "_lex_rank", rank)
        object.__setattr__(self, "_neighbors", {})

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def __len__(self) -> int:
        return len(self.words)

    def vector(self, word: str) -> np.ndarray | None:
        i = self._index.get(word)
        return None if i is None else self.matrix[i]

    def token_ids(self, tokens: Iterable[str]) -> list[int]:
        """Matrix rows of the in-vocabulary tokens, in order; OOV skipped."""
        return [i for i in map(self._index.get, tokens) if i is not None]


def load_embeddings(path: str) -> EmbeddingStore:
    """Load a text embedding file: header '<count> <dim>', then word rows.

    Rows with the wrong arity or non-finite components are skipped and
    counted; on duplicate words the first occurrence wins.
    """
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise ResourceError(f"cannot open embedding file: {path}") from exc
    try:
        with fh:
            header = fh.readline().split()
            if len(header) != 2:
                raise ResourceError(f"{path}: header must be '<count> <dim>'")
            try:
                _count, dim = int(header[0]), int(header[1])
            except ValueError as exc:
                raise ResourceError(f"{path}: non-integer header {header}") from exc
            if dim < 1:
                raise ResourceError(f"{path}: dimension {dim} < 1")
            words: list[str] = []
            rows: list[list[float]] = []
            seen: set[str] = set()
            skipped = 0
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
    logger.info(
        json.dumps({"event": "load_embeddings", "path": path, "dim": dim,
                    "words": len(words), "skipped": skipped})
    )
    return EmbeddingStore(
        dim=dim,
        words=tuple(words),
        matrix=np.asarray(rows, dtype=np.float64),
        skipped=skipped,
    )


def nearest_neighbors(
    word: str, k: int, store: EmbeddingStore
) -> list[tuple[str, float]]:
    """Top-k vocabulary words by cosine similarity to the query word.

    The query itself and zero-norm words are excluded; ties break by
    lexicographic word order; an unknown (or zero-vector) query yields
    an empty list. Results are memoised on the store; each call returns
    a fresh list.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    hit = store._neighbors.get((word, k))
    if hit is None:
        hit = store._neighbors[word, k] = _nearest(word, k, store)
    return list(hit)


def _nearest(
    word: str, k: int, store: EmbeddingStore
) -> tuple[tuple[str, float], ...]:
    """The query behind nearest_neighbors, computed afresh."""
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
    mask = store._norms > 0.0
    mask[qi] = False
    candidates = np.flatnonzero(mask)
    if candidates.size > k:
        # Keep what can reach the top k: everything not below the k-th
        # largest similarity, so ties at the boundary all stay (and a NaN,
        # which the sort puts last, is never the reason a word is dropped).
        neg = -sims[candidates]
        kth = np.partition(neg, k - 1)[k - 1]
        candidates = candidates[~(neg > kth)]
    order = np.lexsort((store._lex_rank[candidates], -sims[candidates]))
    top = candidates[order[:k]]
    return tuple((store.words[i], float(sims[i])) for i in top)
