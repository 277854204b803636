"""Hot numeric kernels: RBF Gram matrices and the SMO dual solver.

The solver is SMO with LIBSVM's second-order working-set selection
(WSS2: Fan, Chen & Lin, JMLR 6, 2005; Chang & Lin, ACM TIST 2011). It
keeps the gradient of the dual up to date, updates the maximal violator
in I_up together with the I_low partner that promises the largest
decrease of the objective, and stops when the maximal-violating-pair
gap is at most ``tol``. It draws no random numbers, so a solve is a
function of its inputs alone. Everything is plain NumPy; the curvature
row of each working-set index is computed once per solve, as LIBSVM
caches kernel rows.
"""

from __future__ import annotations

import numpy as np

from .errors import TrainingError

_TAU = 1e-12  # curvature floor for pairs of (near-)identical points


def rbf_gram(X: np.ndarray, gamma: float) -> np.ndarray:
    """Gram matrix exp(-gamma * ||x_i - x_j||^2); unit diagonal pinned exactly."""
    sq = np.einsum("ij,ij->i", X, X)
    K = _rbf(X, X, sq, sq, gamma)
    np.fill_diagonal(K, 1.0)
    return K


def rbf_cross_gram(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """Kernel values between the rows of A and the rows of B."""
    return _rbf(A, B, np.einsum("ij,ij->i", A, A), np.einsum("ij,ij->i", B, B),
                gamma)


def _rbf(
    A: np.ndarray, B: np.ndarray, sq_a: np.ndarray, sq_b: np.ndarray, gamma: float
) -> np.ndarray:
    """exp(-gamma * max(sq_a_i + sq_b_j - 2 a_i.b_j, 0)), built in place.

    The same operations in the same order as the plain expression, but
    only the result and A @ B.T are alive at the peak, not three arrays.
    """
    K = np.add.outer(sq_a, sq_b)
    inner = A @ B.T
    inner *= 2.0
    K -= inner
    del inner
    np.maximum(K, 0.0, out=K)
    K *= -gamma
    return np.exp(K, out=K)


def smo_solve(
    K: np.ndarray,
    y: np.ndarray,
    C: float,
    tol: float,
    *,
    max_iter: int | None = None,
) -> tuple[np.ndarray, float]:
    """Solve the soft-margin SVM dual on a precomputed Gram matrix.

    Minimises alpha'Q alpha / 2 - sum(alpha) with Q = yy' * K, subject to
    0 <= alpha <= C and y'alpha = 0, for labels y in {-1, +1}. Returns
    (alpha, bias); the decision function is K(x, X) @ (alpha * y) + bias.

    The stopping test is m(alpha) - M(alpha) <= tol with
    m = max(-y G) over I_up and M = min(-y G) over I_low, where
    G = Q alpha - e. It is checked once more on a gradient recomputed
    from scratch before returning, so rounding in the running updates
    cannot report a solve as converged when it is not.

    ``max_iter`` is a safety ceiling on pair updates, by default LIBSVM's
    max(10_000_000, 100 n). Reaching it raises TrainingError.
    """
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[0]
    if max_iter is None:
        max_iter = max(10_000_000, 100 * n)
    alpha = np.zeros(n)
    k_diag = np.ascontiguousarray(np.diag(K))
    labels = y.tolist()
    # score = -y * G; with alpha = 0 the gradient is -e, so score = y.
    score = y.copy()
    # Additive masks, 0 inside the set and -inf / +inf outside it, so that
    # a masked max or min is one add and one reduction. I_up holds the
    # points with alpha < C, y = +1 or alpha > 0, y = -1; I_low those with
    # alpha < C, y = -1 or alpha > 0, y = +1.
    masks = np.empty((2, n))
    up_mask, low_mask = masks
    up_mask[:] = np.where(y > 0, 0.0, -np.inf)
    low_mask[:] = np.where(y > 0, np.inf, 0.0)
    masked = np.empty((2, n))
    up, low = masked
    gain = np.empty(n)
    curves: dict[int, np.ndarray] = {}  # i -> max(K_ii + K_tt - 2 K_it, _TAU)
    row = np.empty(n)
    iterations = 0
    while True:
        np.add(score, masks, out=masked)
        i = int(up.argmax())
        g_max = up.item(i)
        g_min = low.item(int(low.argmin()))
        if g_max - g_min <= tol:
            # Confirm on a fresh gradient before stopping.
            score = y - K @ (alpha * y)
            np.add(score, masks, out=masked)
            if up.max() - low.min() <= tol:
                break
            continue
        if iterations >= max_iter:
            raise TrainingError(
                f"SMO did not reach tol {tol:g} in {max_iter} iterations "
                f"(gap {g_max - g_min:.3g})"
            )
        iterations += 1
        # Second-order partner: maximise b^2 / a over I_low with b > 0,
        # where b = g_max - score_t and a = K_ii + K_tt - 2 K_it.
        K_i = K[i]
        np.subtract(g_max, low, out=gain)  # -inf outside I_low
        np.maximum(gain, 0.0, out=gain)
        np.square(gain, out=gain)
        # a_it depends on i only; about one iteration in eight sees a new i.
        curve = curves.get(i)
        if curve is None:
            curve = K_i * -2.0
            curve += k_diag
            curve += k_diag.item(i)
            np.maximum(curve, _TAU, out=curve)
            curves[i] = curve
        gain /= curve
        j = int(gain.argmax())
        K_j = K[j]
        # LIBSVM's clipped pair update, as a step t >= 0 along the feasible
        # direction alpha_i += y_i t, alpha_j -= y_j t; a step stopped by a
        # bound lands on it exactly.
        y_i, y_j = labels[i], labels[j]
        a_i, a_j = alpha.item(i), alpha.item(j)
        room_i = C - a_i if y_i > 0 else a_i
        room_j = a_j if y_j > 0 else C - a_j
        step = min((g_max - score.item(j)) / curve.item(j), room_i, room_j)
        new_i = min(max(a_i + y_i * step, 0.0), C)
        new_j = min(max(a_j - y_j * step, 0.0), C)
        if step == room_i:
            new_i = C if y_i > 0 else 0.0
        if step == room_j:
            new_j = 0.0 if y_j > 0 else C
        alpha[i], alpha[j] = new_i, new_j
        # score -= y_i d_i K_i + y_j d_j K_j  (y^2 = 1 folds Q back into K)
        np.multiply(K_i, y_i * (new_i - a_i), out=row)
        score -= row
        np.multiply(K_j, y_j * (new_j - a_j), out=row)
        score -= row
        for t, a_t in ((i, new_i), (j, new_j)):
            below_c = 0.0 if a_t < C else -np.inf
            above_0 = 0.0 if a_t > 0.0 else -np.inf
            if labels[t] > 0:
                up_mask[t], low_mask[t] = below_c, -above_0
            else:
                up_mask[t], low_mask[t] = above_0, -below_c
    return alpha, _bias(alpha, y, score, C)


def _bias(alpha: np.ndarray, y: np.ndarray, score: np.ndarray, C: float) -> float:
    """-rho of LIBSVM: the mean of -y G over free points, else the midpoint.

    With no free point, rho lies between the bounds the KKT conditions
    put on it from the points at 0 and at C.
    """
    free = (alpha > 0.0) & (alpha < C)
    if free.any():
        return float(score[free].mean())
    # At a KKT point -y G <= bias on the points only in I_up and >= bias on
    # those only in I_low.
    at_upper = alpha >= C
    lo_side = np.where(at_upper, y < 0, y > 0)  # in I_up only
    hi_side = ~lo_side
    lower = score[lo_side].max() if lo_side.any() else -np.inf
    upper = score[hi_side].min() if hi_side.any() else np.inf
    return float(0.5 * (lower + upper))
