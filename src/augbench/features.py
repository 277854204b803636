"""Sentence featurization: mean of in-vocabulary word vectors, and the
rounding to the store's fixed-point grid (``resources.grid_step``) that
makes every squared distance among features exact."""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain

import numpy as np

from .corpus import Dataset, tokenize
from .resources import EmbeddingStore


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


def to_grid(X: np.ndarray, step: float) -> np.ndarray:
    """X rounded to the nearest multiple of ``step`` (ties to even), as a
    new array. ``step`` is a power of two, so nothing else is rounded."""
    G = X / step
    np.rint(G, out=G)
    G *= step
    return G
