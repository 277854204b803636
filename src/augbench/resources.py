"""Lexical resources: paraphrase map, word-embedding store and the
sentence features computed from it.

Both structures are read-only once loaded. Parsing is strict about
shape (single-token pairs, fixed vector arity) and counts what it skips.
Every embedding store fixes, as it is built, the grid its features are
rounded to; a matrix whose entries leave that grid's squared distances
outside float64 is a ResourceError then. ``featurize`` returns sentence
means already on that grid, so every squared distance among features is
exact.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .corpus import Dataset, tokenize
from .errors import ResourceError, open_input

_PPDB_SEP = "|||"
# Components squared at once when the row norms are computed.
_NORM_SLICE = 1 << 17
# A row whose largest |entry| is at least 2^(_TINY_EXP - 1) has a product
# with a scaled query's largest entry (at least 1/2) that stays 53 bits
# above the subnormal range.
_TINY_EXP = -1022 + 53 + 2
# With fewer bits, rounding would move a feature by more than 2^-17 of
# the power of two above the largest embedding entry.
_MIN_GRID_BITS = 16


@dataclass(frozen=True)
class SynonymMap:
    """word -> ordered list of distinct single-token paraphrase candidates."""

    entries: dict[str, tuple[str, ...]]
    skipped: int = 0

    def candidates(self, word: str) -> tuple[str, ...]:
        return self.entries.get(word, ())

    def __len__(self) -> int:
        return len(self.entries)


def parse_ppdb(path: str) -> SynonymMap:
    """Parse a '|||'-separated paraphrase file into a SynonymMap.

    Field 2 is the source phrase, field 3 the target. Only pairs where
    both sides are single tokens after lowercasing are kept; duplicates
    are dropped preserving first-seen order; malformed lines are skipped
    and counted.
    """
    entries: dict[str, list[str]] = {}
    skipped = 0
    with open_input(path, "paraphrase file", ResourceError) as fh:
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
            bucket = entries.setdefault(src, [])
            if dst != src and dst not in bucket:
                bucket.append(dst)
    entries = {w: c for w, c in entries.items() if c}
    if not entries:
        raise ResourceError(f"{path}: zero usable paraphrase records")
    return SynonymMap(
        entries={w: tuple(c) for w, c in entries.items()}, skipped=skipped
    )


def grid_bits(dim: int) -> int:
    """Bits b of the feature grid for ``dim`` components.

    A grid feature is k * s with an integer |k| <= 2^b. Every intermediate
    of sq_i + sq_j - 2 x_i.x_j is then an integer multiple of s^2, exact
    in float64 while it stays at most 2^53. The largest, the final
    subtraction, reaches 4 * dim * 2^(2b) * s^2 when x_j = -x_i, so
    b = floor((51 - ceil(log2 dim)) / 2). Raises ResourceError when that
    leaves fewer than 16 bits (dim above 2^19).
    """
    bits = (51 - (dim - 1).bit_length()) // 2
    if bits < _MIN_GRID_BITS:
        raise ResourceError(
            f"embedding dimension {dim} leaves {bits} grid bits, fewer than "
            f"{_MIN_GRID_BITS}: exact distances need dim <= "
            f"{2 ** (51 - 2 * _MIN_GRID_BITS)}")
    return bits


def grid_step(matrix: np.ndarray) -> float:
    """The grid step s = 2^(e - b) of an embedding matrix: 2^e is the
    least power of two above every |entry|, which bounds every mean
    vector too, and b is ``grid_bits`` of its dimension d. ResourceError
    unless 4 d 2^(2e), the bound on every squared distance on the grid,
    is finite and s^2 is at least 2^-1074, so that each is exact."""
    top = max(float(matrix.max(initial=0.0)), -float(matrix.min(initial=0.0)))
    e, b = math.frexp(top)[1], grid_bits(matrix.shape[1])
    room = 1024 - math.frexp(4.0 * matrix.shape[1])[1]  # finite iff 2e <= room
    if 2 * e > room or 2 * (e - b) < -1074:
        raise ResourceError(
            f"embedding entries up to {top:g} leave squared distances outside "
            f"float64: exact distances need the largest |entry| in "
            f"[2^{b - 538}, 2^{room // 2})")
    return math.ldexp(1.0, e - b)


class EmbeddingStore:
    """Dense word vectors with O(1) lookup, a precomputed norm cache and
    the grid their features are rounded to: ``grid_step`` of the matrix,
    computed first, so a matrix outside the grid's bounds is a
    ResourceError before anything else is computed from it."""

    def __init__(self, words: tuple[str, ...], matrix: np.ndarray,
                 skipped: int = 0):
        self.grid_step = grid_step(matrix)
        self.words = words
        self.matrix = matrix  # (n_words, dim) float64
        self.dim = matrix.shape[1]
        self.skipped = skipped
        self._index = {w: i for i, w in enumerate(words)}
        # Row norms a slice at a time: np.linalg.norm squares its whole
        # input first, and each row's norm is that of the row alone. Each
        # row is scaled by 2^-e first, e its exponent, so a row of tiny
        # entries does not square to zero; its norm is kept as the scaled
        # norm and e, and as their product, which in the normal range is
        # exact and equals the unscaled norm bit for bit.
        self._exps = np.empty(len(matrix), dtype=np.intp)
        self._scaled_norms = np.empty(len(matrix))
        step = max(1, _NORM_SLICE // max(1, self.dim))
        for start in range(0, len(matrix), step):
            rows = matrix[start:start + step]
            e = self._exps[start:start + step] = _exponents(rows)
            self._scaled_norms[start:start + step] = np.linalg.norm(
                np.ldexp(rows, -e[:, None]), axis=1)
        self._norms = np.ldexp(self._scaled_norms, self._exps)
        # Rows too small for their products with a scaled query to keep
        # every bit: their dot products are taken scaled, over the scaled
        # norm (see _nearest).
        self._tiny = np.flatnonzero(self._exps < _TINY_EXP)
        # (word, k) -> nearest_neighbors result; the store is read-only, so
        # an entry never goes stale.
        self._neighbors: dict[tuple[str, int], tuple[tuple[str, float], ...]] = {}

    def __len__(self) -> int:
        return len(self.words)

    def token_ids(self, tokens: Iterable[str]) -> list[int]:
        """Matrix rows of the in-vocabulary tokens, in order; OOV skipped."""
        return [i for i in map(self._index.get, tokens) if i is not None]


def _exponents(rows: np.ndarray) -> np.ndarray:
    """e of each row, with 2^e the least power of two above its largest
    |entry| (0 for a zero row): rows scaled by 2^-e have entries below 1."""
    return np.frexp(np.abs(rows).max(axis=1, initial=0.0))[1]


def featurize(dataset: Dataset, store: EmbeddingStore) -> np.ndarray:
    """(n, dim) features of a dataset: each sentence's mean vector,
    rounded to the store's grid, on which every squared distance among
    features is exact."""
    ids = [store.token_ids(tokenize(ex.text)) for ex in dataset]
    return to_grid(_mean_vectors(ids, store.matrix), store.grid_step)


def _mean_vectors(ids: list[list[int]], matrix: np.ndarray) -> np.ndarray:
    """(n, dim) means of the matrix rows each ids list names, from one
    gather per token position; a row with no ids is zero.

    Step t adds the t-th row of every list that has one, so each mean is
    summed from zero in order and then divided by its count: the same
    operations, in the same order, as np.mean over the stacked rows,
    which makes the means bitwise equal to it.
    """
    dim = matrix.shape[1]
    counts = np.fromiter(map(len, ids), dtype=np.intp, count=len(ids))
    X = np.zeros((len(ids), dim), dtype=np.float64)
    known = np.nonzero(counts)[0]
    if known.size:
        flat = np.fromiter(chain.from_iterable(ids), dtype=np.intp,
                           count=int(counts.sum()))
        starts = (np.cumsum(counts) - counts)[known]
        lengths = counts[known]
        sums = np.zeros((known.size, dim), dtype=np.float64)
        for t in range(int(lengths.max())):
            live = lengths > t
            sums[live] += matrix[flat[starts[live] + t]]
        X[known] = sums / lengths[:, None]
    return X


def to_grid(X: np.ndarray, step: float) -> np.ndarray:
    """X rounded to the nearest multiple of ``step`` (ties to even), as a
    new array. ``step`` is a power of two, so nothing else is rounded."""
    G = X / step
    np.rint(G, out=G)
    G *= step
    return G


# Characters of the embedding file read and parsed at once: with what is
# loaded, a bound on the memory a load needs.
_LOAD_BLOCK = 1 << 20


def load_embeddings(path: str) -> EmbeddingStore:
    """Load a text embedding file: header '<count> <dim>', then word rows.

    Trailing whitespace on a row (fastText's closing space, a CR) is
    ignored. Rows with the wrong arity or non-finite components are
    skipped and counted; on duplicate words the first occurrence wins.
    Components are read as Python's float() reads them. The header count
    is only a size hint for the matrix. The store checks the kept rows
    against its grid's bounds before it computes anything from them.
    """
    with open_input(path, "embedding file", ResourceError) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ResourceError(f"{path}: header must be '<count> <dim>'")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise ResourceError(f"{path}: non-integer header {header}") from exc
        if dim < 1:
            raise ResourceError(f"{path}: dimension {dim} < 1")
        # A row is a word and dim space-led components, so it takes at
        # least 2*dim bytes: the most rows the file can hold.
        most = os.fstat(fh.fileno()).st_size // (2 * dim)
        rows = _LoadedRows(dim, count, most)
        while block := fh.readlines(_LOAD_BLOCK):
            try:
                rows.add(*_parse_rows(block, dim))
            except ValueError:  # a component float() rejects
                for line in block:
                    try:
                        rows.add(*_parse_rows([line], dim))
                    except ValueError:
                        rows.skipped += 1
    if not rows.words:
        raise ResourceError(f"{path}: zero valid embedding rows")
    return EmbeddingStore(tuple(rows.words), rows.matrix(), rows.skipped)


def _parse_rows(
    lines: list[str], dim: int
) -> tuple[list[str], np.ndarray, int]:
    """(words, values, skipped) of the rows of the right arity in lines.

    values is (len(words), dim), converted in one call that applies
    float() to each component; ValueError if float() rejects any. The
    components are split one line at a time as the call reads them.
    """
    words: list[str] = []

    def components(line: str) -> list[str]:
        parts = line.rstrip().split(" ")
        if len(parts) != dim + 1 or not parts[0]:
            return []
        words.append(parts.pop(0))
        return parts

    values = np.fromiter(
        chain.from_iterable(map(components, lines)), dtype=np.float64)
    return words, values.reshape(len(words), dim), len(lines) - len(words)


class _LoadedRows:
    """The rows of a load, written into one preallocated float64 matrix.

    The matrix starts at the header's row count, capped at the most rows
    the file's size allows, grows in place when the file holds more and
    is trimmed in place to the rows kept.
    """

    def __init__(self, dim: int, count: int, most: int):
        self.words: list[str] = []
        self.skipped = 0
        self._seen: set[str] = set()
        self._most = most
        self._rows = np.empty((min(max(count, 0), most), dim), dtype=np.float64)

    def add(self, words: list[str], values: np.ndarray, skipped: int) -> None:
        """Keep the finite rows of words not seen before, in order."""
        finite = np.isfinite(values).all(axis=1).tolist()
        keep = []
        for i, word in enumerate(words):
            if finite[i] and word not in self._seen:
                self._seen.add(word)
                keep.append(i)
        self.skipped += skipped + len(words) - len(keep)
        n = len(self.words)
        if n + len(keep) > len(self._rows):
            size = max(n + len(keep), min(2 * len(self._rows), self._most))
            # No view of the matrix exists while it loads.
            self._rows.resize((size, values.shape[1]), refcheck=False)
        self._rows[n:n + len(keep)] = values[keep]
        self.words += [words[i] for i in keep]

    def matrix(self) -> np.ndarray:
        """The matrix of exactly the rows kept."""
        if len(self._rows) != len(self.words):
            self._rows.resize((len(self.words), self._rows.shape[1]), refcheck=False)
        return self._rows


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
    qnorm = store._scaled_norms[qi]
    if qnorm == 0.0:
        return ()
    # The query scaled as its norm was, so q.q does not underflow.
    q = np.ldexp(store.matrix[qi], -store._exps[qi])
    sims = store.matrix @ q
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = sims / (store._norms * qnorm)
    tiny = store._tiny
    if tiny.size:
        rows = np.ldexp(store.matrix[tiny], -store._exps[tiny, None])
        sims[tiny] = (rows @ q) / (store._scaled_norms[tiny] * qnorm)
    mask = store._scaled_norms > 0.0
    mask[qi] = False
    candidates = np.flatnonzero(mask)
    if candidates.size > k:
        # Keep what can reach the top k: everything not below the k-th
        # largest similarity, so ties at the boundary all stay (and a NaN,
        # which the sort puts last, is never the reason a word is dropped).
        neg = -sims[candidates]
        kth = np.partition(neg, k - 1)[k - 1]
        candidates = candidates[~(neg > kth)]
    # Ties break by numpy's order of the candidates' words: an array of
    # every word would take 4 bytes x the longest word, per word.
    words = np.asarray([store.words[i] for i in candidates])
    order = np.lexsort((words, -sims[candidates]))
    top = candidates[order[:k]]
    return tuple((store.words[i], float(sims[i])) for i in top)
