"""Hot numeric kernels: squared distances, RBF kernel values and the SMO
dual solver.

On features rounded to one grid (as ``resources.featurize`` returns
them) every squared distance is exact, so a distance that
``runner.run_unit`` computes once, in any block, serves every training
and prediction of its unit, with the same bits under any BLAS thread
count; the SVM reads distances and computes none. Every kernel value is exp(-gamma D), built by one
function, ``Distances.kernel``, which scales each part of D as it
writes it and exponentiates the result in place: ``rbf_gram`` builds a
pair's Gram matrix and ``rbf_cross_gram`` the test rows' values to
support vectors. The two products whose operands are not on the grid,
the solver's stop-check gradient and ``svm.decision_values``, are
summed in one fixed order by ``np.einsum``.

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
``tol`` (``smo_solve`` states both rules). A solve starts from any
feasible alpha it is given, zeros by default: a training that holds
another's rows and more can start from that one's solution (alpha
seeding: DeCoste & Wagstaff, KDD 2000). On every solve the tests and
the demo grid make, its alphas and bias are bit-identical to those of
the plain loop that ``tests/test_kernels.py`` keeps as its oracle, from
the same start.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .errors import TrainingError

_TAU = 1e-12  # curvature floor for pairs of (near-)identical points


def sq_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """max(sq_a_i + sq_b_j - 2 a_i.b_j, 0): squared distances, built in place.

    The same operations in the same order as the plain expression, but
    only the result and A @ B.T are alive at the peak, not three arrays.
    On rows of one feature grid (``resources.to_grid``) every product
    and sum is exact, so the result does not depend on how the BLAS orders, blocks
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


class Distances:
    """Squared distances D held in blocks, so that X plus a few added rows
    costs only the added rows' distances. The blocks must come from
    ``sq_distances`` on one grid: only exact distances are the same
    whichever block computed them. ``Distances([D_XX], [D_AX, D_AA])``
    is the square D of [X; X_added], whose block above the diagonal, the
    mirror of D_AX, is not stored; ``Distances([D_TX, D_TA])`` is D from
    test rows to [X | X_added]; ``Distances([D])`` is either. Blocks that
    do not tile are a ValueError.
    """

    def __init__(self, *grid: list[np.ndarray]):
        self.blocks = tuple(tuple(row) for row in grid)
        shapes = [[np.shape(block) for block in row] for row in self.blocks]
        heights = [row[0][0] for row in shapes if row]
        widths = heights if len(shapes) == 2 else [
            shape[-1] for row in shapes[:1] for shape in row]
        tiling = [[(h, w) for w in widths[:len(row)]]
                  for h, row in zip(heights, shapes)]
        if [len(row) for row in shapes] not in ([1], [2], [1, 2]) or shapes != tiling:
            raise ValueError(f"distance blocks {shapes} do not tile")
        self._edges = [list(accumulate(s, initial=0)) for s in (heights, widths)]
        self.shape = (self._edges[0][-1], self._edges[1][-1])

    def kernel(self, rows: np.ndarray | None, cols: np.ndarray | None,
               gamma: float) -> np.ndarray:
        """exp(-gamma D[rows][:, cols]) for ascending indices (None: every
        index), as a new C-ordered array. Each part is scaled as it is
        written; a part above the diagonal is mirrored from the one below,
        with one transposed copy of the scaled part when rows is cols."""
        (m, row_parts), (n, col_parts) = map(_parts, (rows, cols), self._edges)
        if len(row_parts) == len(col_parts) == 1 and (
                col_parts[0][0] < len(self.blocks[row_parts[0][0]])):
            (i, _, r), (j, _, c) = row_parts[0], col_parts[0]
            D = self.blocks[i][j]
            K = _take(D, r, c)  # the only part: scaled in place, unless it is D
            K = np.multiply(K, -gamma, out=None if K is D else K)
        else:
            K = np.empty((m, n))
            for j, c_out, c in col_parts:  # column by column: below the diagonal first
                for i, r_out, r in row_parts:
                    part = K[r_out, c_out]
                    if j < len(self.blocks[i]):
                        np.multiply(_take(self.blocks[i][j], r, c), -gamma, out=part)
                    elif rows is cols:
                        part[...] = K[c_out, r_out].T
                    else:
                        np.multiply(_take(self.blocks[j][i], c, r).T, -gamma, out=part)
        return np.exp(K, out=K)


def _parts(index: np.ndarray | None, edges: list[int]) -> tuple[int, list]:
    """(length of the result axis, [(block, slice of the result, indices
    into the block or None for all)]) for the ascending ``index`` (None: all)."""
    cuts = edges if index is None else [
        0, *(index.searchsorted(edge) for edge in edges[1:-1]), len(index)]
    return cuts[-1], [(k, slice(a, b), None if b - a == hi - lo else index[a:b] - lo)
                      for k, (a, b, lo, hi) in enumerate(zip(cuts, cuts[1:], edges,
                                                              edges[1:])) if b > a]


def _take(D: np.ndarray, r: np.ndarray | None, c: np.ndarray | None) -> np.ndarray:
    """D[r][:, c]; None keeps every index of its axis, uncopied."""
    if r is not None:
        D = D.take(r, 0)
    return D if c is None else D.take(c, 1)


def rbf_gram(distances: Distances, idx: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma D[idx][:, idx]) for ascending ``idx``, unit diagonal pinned."""
    K = distances.kernel(idx, idx, gamma)
    np.fill_diagonal(K, 1.0)
    return K


def rbf_cross_gram(distances: Distances, cols: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma D[:, cols]) for ascending ``cols`` of ``distances``."""
    return distances.kernel(None, cols, gamma)


def smo_solve(
    K: np.ndarray,
    y: np.ndarray,
    C: float,
    tol: float,
    *,
    max_iter: int | None = None,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Solve the soft-margin SVM dual on a precomputed Gram matrix.

    Minimises alpha'Q alpha / 2 - sum(alpha) with Q = yy' * K, subject to
    0 <= alpha <= C and y'alpha = 0, for labels y in {-1, +1}. Returns
    (alpha, bias); the decision function is K(x, X) @ (alpha * y) + bias.

    The solve starts from ``start``, a feasible alpha (None: zeros, the
    start that is feasible for every problem), with -y G computed from it
    in the stop check's fixed order. A start of another length than y,
    or with an entry outside [0, C], is a ValueError; y'start = 0 is the
    caller's to keep.

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
    if start is None:
        start = np.zeros(n)
        score = y.copy()  # score = -y * G; at alpha = 0, G = -e
    else:
        start = np.asarray(start, dtype=np.float64)
        if start.shape != (n,) or not ((start >= 0.0) & (start <= C)).all():
            raise ValueError(f"start of shape {start.shape} is not {n} alphas "
                             f"in [0, {C:g}]")
        score = y - np.einsum("ij,j->i", K, start * y)
    alpha = start.tolist()  # a list: its reads and writes are the loop's cheapest
    k_diag = np.ascontiguousarray(np.diag(K))
    diag = k_diag.tolist()
    labels = y.tolist()
    rows = list(K)  # row views, so a lookup builds no view
    # Additive masks, 0 inside the set and -inf / +inf outside it, so that
    # a masked max or min is one add and one reduction. I_up holds the
    # points with alpha < C, y = +1 or alpha > 0, y = -1; I_low those with
    # alpha < C, y = -1 or alpha > 0, y = +1.
    below_c, above_0 = start < C, start > 0.0
    up_mask = np.where(np.where(y > 0, below_c, above_0), 0.0, -np.inf)
    low_mask = np.where(np.where(y > 0, above_0, below_c), 0.0, np.inf)
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
