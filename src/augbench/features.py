"""Sentence featurization: mean of in-vocabulary word vectors, and the
fixed-point grid that makes every squared distance among features exact."""

from __future__ import annotations

import math
from collections.abc import Iterable
from itertools import chain

import numpy as np

from .corpus import Dataset, tokenize
from .errors import ResourceError
from .resources import EmbeddingStore

# With fewer bits, rounding would move a feature by more than 2^-17 of
# the power of two above the largest embedding entry.
_MIN_GRID_BITS = 16


def featurize(dataset: Dataset, store: EmbeddingStore) -> np.ndarray:
    """Stack sentence vectors for every example into an (n, dim) matrix."""
    return _mean_vectors([tokenize(ex.text) for ex in dataset], store)


def _mean_vectors(sentences: list[Iterable[str]], store: EmbeddingStore) -> np.ndarray:
    """(n, dim) matrix of sentence vectors from one gather per token position.

    Step t adds the t-th known token's vector of every sentence that has
    one, so each row is summed from zero in token order and then divided
    by its count: the same operations, in the same order, as np.mean over
    the stacked vectors, which makes the rows bitwise equal to it.
    """
    ids = [store.token_ids(tokens) for tokens in sentences]
    counts = np.fromiter(map(len, ids), dtype=np.intp, count=len(ids))
    X = np.zeros((len(ids), store.dim), dtype=np.float64)
    known = np.nonzero(counts)[0]
    if known.size:
        flat = np.fromiter(chain.from_iterable(ids), dtype=np.intp,
                           count=int(counts.sum()))
        starts = (np.cumsum(counts) - counts)[known]
        lengths = counts[known]
        sums = np.zeros((known.size, store.dim), dtype=np.float64)
        for t in range(int(lengths.max())):
            live = lengths > t
            sums[live] += store.matrix[flat[starts[live] + t]]
        X[known] = sums / lengths[:, None]
    return X


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


def to_grid(X: np.ndarray, step: float) -> np.ndarray:
    """X rounded to the nearest multiple of ``step`` (ties to even), as a
    new array. ``step`` is a power of two, so nothing else is rounded."""
    G = X / step
    np.rint(G, out=G)
    G *= step
    return G
