"""Scalar reference formulas the vectorised code is checked against."""

import math

import numpy as np


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
    order = np.lexsort((store._lex_rank[candidates], -sims[candidates]))
    top = candidates[order[:k]]
    return tuple((store.words[i], float(sims[i])) for i in top)
