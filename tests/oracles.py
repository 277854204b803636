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
