"""Hot numeric kernels: squared distances, RBF kernel values and the SMO
dual solver.

On features rounded to one grid (``features.to_grid``) every squared
distance is exact, so a distance computed once, in any block, serves
every training and prediction that uses it, with the same bits under
any BLAS thread count. Every kernel value is exp(-gamma D) gathered
from such distances: ``rbf_gram`` builds a training pair's Gram matrix
and ``rbf_cross_gram`` the values from test rows to support vectors;
none is computed from features. The two products whose operands are
not on the grid, the solver's stop-check gradient and
``svm.decision_values``, are summed in one fixed order by ``np.einsum``.

The solver is SMO with LIBSVM's second-order working-set selection
(WSS2: Fan, Chen & Lin, JMLR 6, 2005; Chang & Lin, ACM TIST 2011). It
keeps the gradient of the dual up to date, updates the maximal violator
in I_up together with the I_low partner that promises the largest
decrease of the objective, and stops when the maximal-violating-pair
gap is at most ``tol``. It draws no random numbers, so a solve is a
function of its inputs alone. Everything is plain NumPy, and at the
grid's sizes an iteration costs what its NumPy calls cost to enter, so
the loop makes few: a row of 1/sqrt(curvature) per working-set index,
cached as LIBSVM caches kernel rows, picks the partner in one multiply,
and the gap is tested only when the chosen pair's own gap is within
``tol`` (``smo_solve`` states both rules). On every solve the tests and
the demo grid make, its alphas and bias are bit-identical to the plain
loop that ``tests/test_kernels.py`` keeps as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TrainingError

_TAU = 1e-12  # curvature floor for pairs of (near-)identical points


def sq_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """max(sq_a_i + sq_b_j - 2 a_i.b_j, 0): squared distances, built in place.

    The same operations in the same order as the plain expression, but
    only the result and A @ B.T are alive at the peak, not three arrays.
    On rows of one ``features.to_grid`` grid every product and sum is
    exact, so the result does not depend on how the BLAS orders, blocks
    or threads the product, nor on which rows are computed together.
    """
    sq_a = np.einsum("ij,ij->i", A, A)
    sq_b = sq_a if B is A else np.einsum("ij,ij->i", B, B)
    D = np.add.outer(sq_a, sq_b)
    inner = A @ B.T
    inner *= 2.0
    D -= inner
    del inner
    return np.maximum(D, 0.0, out=D)


@dataclass(frozen=True)
class Distances:
    """Squared distances among the rows of [X; X_added], kept in blocks,
    so that X plus a few added rows costs only the added rows' distances.
    The blocks must come from ``sq_distances`` on one grid: only exact
    distances are the same whichever block computed them.
    """

    base: np.ndarray  # (n, n): among the rows of X
    cross: np.ndarray | None = None  # (g, n): from each added row to X
    added: np.ndarray | None = None  # (g, g): among the added rows

    @property
    def rows(self) -> int:
        return len(self.base) + (0 if self.added is None else len(self.added))


def rbf_gram(distances: Distances, idx: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma D) among the rows ``idx`` (ascending) of [X; X_added],
    unit diagonal pinned exactly.

    Each block of the pair is gathered with ``take`` from the block of
    ``distances`` that holds it, and a block the pair covers whole is not
    copied: nothing beyond the pair's own Gram is built.
    """
    n = len(distances.base)
    split = int(np.searchsorted(idx, n))
    old, new = idx[:split], idx[split:] - n
    base = _take(distances.base, old, old)
    if new.size:
        K = np.empty((idx.size, idx.size))
        K[:split, :split] = base
        K[split:, :split] = _take(distances.cross, new, old)
        K[:split, split:] = K[split:, :split].T
        K[split:, split:] = _take(distances.added, new, new)
        K *= -gamma
    elif base is distances.base:  # every row of X
        K = np.multiply(base, -gamma)
    else:
        K = base
        K *= -gamma
    np.exp(K, out=K)
    np.fill_diagonal(K, 1.0)
    return K


def rbf_cross_gram(blocks: tuple[np.ndarray, ...], cols: np.ndarray,
                   gamma: float) -> np.ndarray:
    """exp(-gamma D[:, cols]) for ascending ``cols`` of the squared
    distances D = [blocks[0] | blocks[1]].

    Each block's columns are taken into their slice of one (m, |cols|)
    array; D itself is never assembled.
    """
    first = blocks[0]
    n = first.shape[1]
    split = int(np.searchsorted(cols, n))
    if split == cols.size:
        K = first.take(cols, 1)
    else:
        K = np.empty((len(first), cols.size))
        first.take(cols[:split], 1, out=K[:, :split])
        blocks[1].take(cols[split:] - n, 1, out=K[:, split:])
    K *= -gamma
    return np.exp(K, out=K)


def _take(D: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """D[rows][:, cols] for ascending indices; an axis that keeps every
    index is not copied."""
    if rows.size < D.shape[0]:
        D = D.take(rows, 0)
    return D if cols.size == D.shape[1] else D.take(cols, 1)


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

    Each iteration picks i = argmax of -y G over I_up, then the partner
    j = argmax over I_low of b_t / sqrt(a_t), with b_t = m - (-y G)_t and
    a_t = K_ii + K_tt - 2 K_it floored at 1e-12, which in exact arithmetic
    is the t that maximises b_t^2 / a_t, LIBSVM's rule. Since
    M <= -y G_j, the gap m - M is at least b_j, so M is computed only when
    b_j <= tol; the stop decision is the one the full test makes.

    ``max_iter`` is a safety ceiling on pair updates, by default LIBSVM's
    max(10_000_000, 100 n). Reaching it raises TrainingError.
    """
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    C = float(C)  # so that alpha, kept as a list of floats, stays float
    n = y.shape[0]
    if max_iter is None:
        max_iter = max(10_000_000, 100 * n)
    alpha = [0.0] * n  # a list: its reads and writes are the loop's cheapest
    k_diag = np.ascontiguousarray(np.diag(K))
    diag = _shared_floats(k_diag)
    labels = _shared_floats(y)
    rows = list(K)  # row views, so a lookup builds no view
    # score = -y * G; with alpha = 0 the gradient is -e, so score = y.
    score = y.copy()
    # Additive masks, 0 inside the set and -inf / +inf outside it, so that
    # a masked max or min is one add and one reduction. I_up holds the
    # points with alpha < C, y = +1 or alpha > 0, y = -1; I_low those with
    # alpha < C, y = -1 or alpha > 0, y = +1.
    up_mask = np.where(y > 0, 0.0, -np.inf)
    low_mask = np.where(y > 0, np.inf, 0.0)
    up = np.empty(n)
    low = np.empty(n)
    gain = np.empty(n)
    row = np.empty(n)
    # Scalar operands live in 0-d arrays, and outputs are passed by
    # position where NumPy allows it: a ufunc call that converts a Python
    # float, or parses an out= keyword, costs about 0.5 us more.
    one = np.ones(())
    minus_two = np.full((), -2.0)
    tau = np.full((), _TAU)
    top = np.empty(())  # g_max
    coef = np.empty(())  # a row's coefficient in the score update
    add, subtract, multiply = np.add, np.subtract, np.multiply
    up_argmax, up_item = up.argmax, up.item
    low_argmin, low_item = low.argmin, low.item
    gain_argmax = gain.argmax
    # i -> 1 / sqrt(max(K_ii + K_tt - 2 K_it, _TAU)) for every t; about
    # one iteration in eight sees a new i.
    inverse_roots: dict[int, np.ndarray] = {}
    iterations = 0
    while True:
        add(score, up_mask, up)
        add(score, low_mask, low)
        i = int(up_argmax())
        g_max = up_item(i)
        K_i = rows[i]
        inverse_root = inverse_roots.get(i)
        if inverse_root is None:
            inverse_root = multiply(K_i, minus_two)
            add(inverse_root, k_diag, inverse_root)
            add(inverse_root, diag[i], inverse_root)
            np.maximum(inverse_root, tau, out=inverse_root)
            np.sqrt(inverse_root, inverse_root)
            np.divide(one, inverse_root, inverse_root)
            inverse_roots[i] = inverse_root
        top[()] = g_max
        subtract(top, low, gain)  # -inf outside I_low, where low is +inf
        multiply(gain, inverse_root, gain)
        j = int(gain_argmax())
        # Unless I_low is empty, j is in it, where low adds a zero to score:
        # b is g_max - score_j, and the gap is at least b.
        b = g_max - low_item(j)
        if b <= tol and g_max - low_item(low_argmin()) <= tol:
            # Confirm on a fresh gradient before stopping; alpha is not
            # on the grid, so the sum runs in einsum's fixed order.
            subtract(y, np.einsum("ij,j->i", K, np.array(alpha) * y), score)
            add(score, up_mask, up)
            add(score, low_mask, low)
            if up.max() - low.min() <= tol:
                break
            continue
        if iterations >= max_iter:
            raise TrainingError(
                f"SMO did not reach tol {tol:g} in {max_iter} iterations "
                f"(gap {g_max - low.min():.3g})"
            )
        iterations += 1
        # a_ij as the row above computes it, in Python floats.
        a = K_i.item(j) * -2.0 + diag[j] + diag[i]
        if a < _TAU:
            a = _TAU
        # LIBSVM's clipped pair update, as a step t >= 0 along the feasible
        # direction alpha_i += y_i t, alpha_j -= y_j t; a step stopped by a
        # bound lands on it exactly. The comparisons below pick what
        # min() and max() would, -0.0 and ties included.
        y_i = labels[i]
        y_j = labels[j]
        a_i = alpha[i]
        a_j = alpha[j]
        room_i = C - a_i if y_i > 0 else a_i
        room_j = a_j if y_j > 0 else C - a_j
        step = b / a
        if room_i < step:
            step = room_i
        if room_j < step:
            step = room_j
        if step == room_i:
            new_i = C if y_i > 0 else 0.0
        else:
            new_i = a_i + y_i * step
            if new_i < 0.0:
                new_i = 0.0
            if new_i > C:
                new_i = C
        if step == room_j:
            new_j = 0.0 if y_j > 0 else C
        else:
            new_j = a_j - y_j * step
            if new_j < 0.0:
                new_j = 0.0
            if new_j > C:
                new_j = C
        alpha[i] = new_i
        alpha[j] = new_j
        # score -= y_i d_i K_i + y_j d_j K_j  (y^2 = 1 folds Q back into K)
        coef[()] = y_i * (new_i - a_i)
        multiply(K_i, coef, row)
        subtract(score, row, score)
        coef[()] = y_j * (new_j - a_j)
        multiply(rows[j], coef, row)
        subtract(score, row, score)
        # Mask entries: -inf outside I_up, +inf outside I_low; inside, 0.0
        # for I_up and -0.0 for I_low.
        if y_i > 0:
            up_mask[i] = 0.0 if new_i < C else -np.inf
            low_mask[i] = -0.0 if new_i > 0.0 else np.inf
        else:
            up_mask[i] = 0.0 if new_i > 0.0 else -np.inf
            low_mask[i] = -0.0 if new_i < C else np.inf
        if y_j > 0:
            up_mask[j] = 0.0 if new_j < C else -np.inf
            low_mask[j] = -0.0 if new_j > 0.0 else np.inf
        else:
            up_mask[j] = 0.0 if new_j > 0.0 else -np.inf
            low_mask[j] = -0.0 if new_j < C else np.inf
    alpha = np.array(alpha)
    return alpha, _bias(alpha, y, score, C)


def _shared_floats(values: np.ndarray) -> list[float]:
    """values.tolist() with one float object per distinct nonzero value
    (equal nonzero floats have equal bits), so that the labels (+-1) and
    an RBF diagonal (all 1) cost the solver a pointer per entry. It reads
    one value at a time: a full tolist() would be the solve's peak at
    small n."""
    shared: dict[float, float] = {}
    return [shared.setdefault(v, v) if v else v for v in map(float, values)]


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
