import functools
import itertools
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from augbench import kernels, runner, synthdata
from augbench.corpus import load_dataset, resample_subset
from augbench.errors import TrainingError
from augbench.resources import (
    featurize, grid_bits, grid_step, load_embeddings, to_grid,
)
from augbench.svm import SvmConfig, gamma_scale, svm_train
from oracles import one_block, rbf_cross_gram, rbf_gram, rbf_kernel


@pytest.fixture
def random_problem():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(40, 6))
    y = np.where(rng.random(40) > 0.5, 1.0, -1.0)
    if abs(y.sum()) == len(y):  # force both classes
        y[0] = -y[0]
    return X, y


def make_problem(n, seed, dim=5, noise=0.7):
    """Noisy linearly labelled points: both classes, some overlap."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, dim))
    y = np.where(X @ rng.normal(size=dim) + noise * rng.normal(size=n) > 0,
                 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    return X, y


def kkt_gap(K, y, C, alpha):
    """m(alpha) - M(alpha) of Fan, Chen & Lin (2005), from scratch."""
    score = y - K @ (alpha * y)  # -y * (Q alpha - e)
    up = ((alpha < C) & (y > 0)) | ((alpha > 0) & (y < 0))
    low = ((alpha < C) & (y < 0)) | ((alpha > 0) & (y > 0))
    return score[up].max() - score[low].min()


def dual_objective(K, y, alpha):
    ay = alpha * y
    return alpha.sum() - 0.5 * ay @ K @ ay


def qp_oracle(K, y, C):
    """The same dual solved by a general-purpose constrained optimiser."""
    Q = np.outer(y, y) * K
    n = len(y)
    result = optimize.minimize(
        lambda a: 0.5 * a @ Q @ a - a.sum(),
        np.zeros(n),
        jac=lambda a: Q @ a - 1.0,
        bounds=[(0.0, C)] * n,
        constraints=[{"type": "eq", "fun": lambda a: a @ y, "jac": lambda a: y}],
        method="SLSQP",
        options={"ftol": 1e-13, "maxiter": 1000},
    )
    assert result.success, result.message
    alpha = np.clip(result.x, 0.0, C)
    score = y - K @ (alpha * y)
    free = (alpha > 1e-6 * C) & (alpha < C * (1 - 1e-6))
    if free.any():
        return alpha, float(score[free].mean())
    # every alpha at a bound: bias anywhere in the KKT interval; take its middle
    at_c = alpha > C / 2
    up = np.where(at_c, y < 0, y > 0)
    return alpha, float(0.5 * (score[up].max() + score[~up].min()))


def reference_smo(K, y, C, tol, start=None):
    """The solver loop before curvature rows were cached: a_it rebuilt on
    every iteration. The cached solver must give the same bytes, from the
    same start (None: zeros)."""
    n = y.shape[0]
    alpha = np.zeros(n) if start is None else np.array(start, dtype=np.float64)
    k_diag = np.ascontiguousarray(np.diag(K))
    labels = y.tolist()
    score = y - np.einsum("ij,j->i", K, alpha * y)
    masks = np.empty((2, n))
    up_mask, low_mask = masks
    for t, a_t in enumerate(alpha.tolist()):
        below_c = 0.0 if a_t < C else -np.inf
        above_0 = 0.0 if a_t > 0.0 else -np.inf
        if labels[t] > 0:
            up_mask[t], low_mask[t] = below_c, -above_0 + 0.0  # +0.0 inside
        else:
            up_mask[t], low_mask[t] = above_0, -below_c + 0.0
    masked = np.empty((2, n))
    up, low = masked
    gain = np.empty(n)
    curve = np.empty(n)
    row = np.empty(n)
    while True:
        np.add(score, masks, out=masked)
        i = int(up.argmax())
        g_max = up.item(i)
        g_min = low.item(int(low.argmin()))
        if g_max - g_min <= tol:
            score = y - np.einsum("ij,j->i", K, alpha * y)
            np.add(score, masks, out=masked)
            if up.max() - low.min() <= tol:
                break
            continue
        K_i = K[i]
        np.subtract(g_max, low, out=gain)
        np.maximum(gain, 0.0, out=gain)
        np.square(gain, out=gain)
        np.multiply(K_i, -2.0, out=curve)
        curve += k_diag
        curve += k_diag.item(i)
        np.maximum(curve, kernels._TAU, out=curve)
        gain /= curve
        j = int(gain.argmax())
        K_j = K[j]
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
    return alpha, kernels._bias(alpha, y, score, C)


def reference_gram(A, B, gamma):
    """The plain expression the in-place Gram build must reproduce."""
    d2 = (
        np.einsum("ij,ij->i", A, A)[:, None]
        + np.einsum("ij,ij->i", B, B)[None, :]
        - 2.0 * (A @ B.T)
    )
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-gamma * d2)


def with_duplicates(n, seed, copies):
    """make_problem with its first rows repeated: a_it hits the _TAU floor."""
    X, y = make_problem(n, seed)
    return np.vstack([X, X[:copies]]), np.concatenate([y, y[:copies]])


BYTE_PROBLEMS = [
    (*make_problem(12, 20), 10.0, 1e-3),
    (*make_problem(60, 21), 1.0, 1e-3),
    (*make_problem(150, 22), 10.0, 1e-3),
    (*make_problem(300, 23), 100.0, 1e-2),
    (*make_problem(300, 24), 10.0, 1e-5),
    (*make_problem(80, 25, noise=3.0), 1e-2, 1e-3),  # steps end on C
    (*make_problem(200, 26, noise=3.0), 0.05, 1e-4),
    (*with_duplicates(50, 27, 10), 10.0, 1e-3),
    (*with_duplicates(120, 28, 40), 1.0, 1e-4),
    (*with_duplicates(250, 29, 50), 100.0, 1e-3),
]
BYTE_IDS = ["n12", "n60", "n150", "n300-C100", "n300-tol1e-5", "n80-smallC",
            "n200-smallC", "dup60", "dup160", "dup300"]

TINY = [(n, seed, C) for n, seed in ((8, 0), (15, 1), (22, 2), (30, 3))
        for C in (0.5, 10.0)]


class TestGramAgreement:
    def test_gram_paths_agree(self, random_problem):
        # vectorised Gram against the scalar kernel, entry by entry
        X, _ = random_problem
        K = rbf_gram(X, 0.6)
        loop = np.array([[rbf_kernel(a, b, 0.6) for b in X] for a in X])
        assert np.allclose(K, loop, rtol=0.0, atol=1e-12)

    def test_cross_paths_agree(self, random_problem):
        X, _ = random_problem
        C = rbf_cross_gram(X[:7], X, 0.6)
        loop = np.array([[rbf_kernel(a, b, 0.6) for b in X] for a in X[:7]])
        assert np.allclose(C, loop, rtol=0.0, atol=1e-12)

    def test_gram_diagonal_is_one(self, random_problem):
        X, _ = random_problem
        assert np.all(np.diag(rbf_gram(X, 0.9)) == 1.0)

    def test_gram_symmetric(self, random_problem):
        X, _ = random_problem
        K = rbf_gram(X, 0.4)
        assert np.array_equal(K, K.T)

    def test_values_in_unit_interval(self, random_problem):
        X, _ = random_problem
        K = rbf_gram(X, 1.1)
        assert np.all(K > 0.0) and np.all(K <= 1.0)

    @pytest.mark.parametrize("n,m,dim,seed", [
        (1, 1, 4, 0), (1, 9, 3, 1), (9, 1, 3, 2), (40, 40, 6, 3),
        (145, 30, 50, 4), (300, 300, 50, 5),
    ])
    def test_byte_equal_to_plain_expression(self, n, m, dim, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, dim))
        B = rng.normal(size=(m, dim))
        gamma = 1.0 / (dim * A.var()) if n > 1 else 0.3
        expected = reference_gram(A, A, gamma)
        np.fill_diagonal(expected, 1.0)
        assert rbf_gram(A, gamma).tobytes() == expected.tobytes()
        assert (rbf_cross_gram(A, B, gamma).tobytes()
                == reference_gram(A, B, gamma).tobytes())

    def test_repeated_rows_byte_equal(self):
        rng = np.random.default_rng(6)
        base = rng.normal(size=(20, 5))
        X = np.vstack([base, base[:7], base[:3]])
        expected = reference_gram(X, X, 0.7)
        np.fill_diagonal(expected, 1.0)
        assert rbf_gram(X, 0.7).tobytes() == expected.tobytes()
        assert (rbf_cross_gram(X[:10], X, 0.7).tobytes()
                == reference_gram(X[:10], X, 0.7).tobytes())

    @pytest.mark.parametrize("build", [
        lambda X: rbf_gram(X, 0.1),
        lambda X: rbf_cross_gram(X, X, 0.1),
    ], ids=["gram", "cross"])
    def test_peak_memory_two_matrices(self, build):
        # the result and X @ X.T; the plain expression holds three n x n
        n = 400
        X = np.random.default_rng(7).normal(size=(n, 50))
        build(X)  # warm up: first-call allocations are not the kernel's
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            K = build(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert K.shape == (n, n)
        assert peak - base <= 2.25 * n * n * 8


def on_grid(n, dim, seed):
    """Normal rows rounded to the feature grid of their own matrix."""
    raw = np.random.default_rng(seed).normal(size=(n, dim))
    return to_grid(raw, grid_step(raw))


def int_sq_distances(A, B):
    """Squared distances among rows of Python integers, exactly."""
    return [[sum((a - b) ** 2 for a, b in zip(ra, rb)) for rb in B] for ra in A]


@st.composite
def grid_integers(draw):
    """(dim, bits, A, B): integer rows |k| <= 2^bits for a dim up to the
    largest its bits allow, with rows at the top of the grid and x_j = -x_i."""
    dim = draw(st.one_of(
        st.integers(1, 2048),
        # the largest dim for each of bits 18..25
        st.sampled_from([2 ** (51 - 2 * b) for b in range(18, 26)]),
    ))
    bits = grid_bits(dim)
    top = 2 ** bits
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.integers(-top, top, size=(draw(st.integers(1, 4)), dim), endpoint=True)
    B = rng.integers(-top, top, size=(draw(st.integers(1, 4)), dim), endpoint=True)
    if draw(st.booleans()):
        A[0] = rng.choice([-top, top], size=dim)
    if draw(st.booleans()):
        B[-1] = -A[0]
    return dim, bits, A, B


class TestSqDistancesExact:
    @given(problem=grid_integers(), e=st.integers(-4, 4))
    @settings(max_examples=60, deadline=None)
    def test_equal_to_integer_oracle(self, problem, e):
        # every product and sum is an integer multiple of s^2 below 2^53
        dim, bits, A, B = problem
        s = 2.0 ** (e - bits)
        for left, right in ((A, B), (A, A)):
            exact = np.array(int_sq_distances(left.tolist(), right.tolist()),
                             dtype=np.float64) * (s * s)
            X = left * s
            got = kernels.sq_distances(X, X if right is left else right * s)
            assert got.tobytes() == exact.tobytes()

    @pytest.mark.parametrize("bits", range(16, 26))
    def test_opposite_rows_at_the_top_of_the_grid(self, bits):
        # the largest distance a grid allows: 4 dim 2^(2b) s^2 = 2^53 s^2
        dim = 2 ** (51 - 2 * bits)
        assert grid_bits(dim) == bits
        s = 2.0 ** -bits
        X = np.full((1, dim), 2.0 ** bits * s)
        D = kernels.sq_distances(np.vstack([X, -X]), np.vstack([X, -X]))
        top = float(dim * (2 * 2 ** bits) ** 2) * s * s
        assert D.tolist() == [[0.0, top], [top, 0.0]]


def three_blocks(X, n):
    """Distances of the first n rows of X, extended by the others."""
    return kernels.Distances([kernels.sq_distances(X[:n], X[:n])],
                             [kernels.sq_distances(X[n:], X[:n]),
                              kernels.sq_distances(X[n:], X[n:])])


class TestKernel:
    """Distances.kernel against exp(-gamma D), D assembled whole with np.block."""

    GAMMA = 0.3

    @staticmethod
    def selections(edges, rng):
        """Ascending indices taking no, one, every or a random half of the
        indices of each block between ``edges``, in every combination,
        and None (every index)."""
        per_block = [
            [np.arange(0), np.array([rng.integers(lo, hi)]), np.arange(lo, hi),
             np.sort(rng.choice(np.arange(lo, hi), (hi - lo) // 2, replace=False))]
            for lo, hi in zip(edges, edges[1:])
        ]
        return [np.concatenate(c) for c in itertools.product(*per_block)] + [None]

    @pytest.mark.parametrize("layout", ["1x1", "1x2", "mirrored-2x2"])
    def test_byte_equal_to_assembled_matrix(self, layout):
        rng = np.random.default_rng(23)
        n, g, m = 9, 5, 6
        S = rng.normal(size=(n + g, n + g))
        S += S.T  # a symmetric D, so that the mirror of D_AX is its upper block
        T = rng.normal(size=(m, n + g))
        grid = {
            "1x1": [[S[:n, :n]]],
            "1x2": [[T[:, :n], T[:, n:]]],
            "mirrored-2x2": [[S[:n, :n]], [S[n:, :n], S[n:, n:]]],
        }[layout]
        grid = [[np.ascontiguousarray(b) for b in row] for row in grid]
        D = np.block([[grid[0][0], grid[1][0].T], grid[1]]
                     if layout == "mirrored-2x2" else grid)
        distances = kernels.Distances(*grid)
        assert distances.shape == D.shape
        before = [b.tobytes() for row in grid for b in row]
        row_edges = [0, *itertools.accumulate(len(row[0]) for row in grid)]
        col_edges = [0, *itertools.accumulate(b.shape[1] for b in grid[-1])]
        rows_list = self.selections(row_edges, rng)
        pairs = [(r, c) for r in rows_list for c in self.selections(col_edges, rng)]
        pairs += [(r, r) for r in rows_list]  # one array, as a Gram passes it
        for rows, cols in pairs:
            K = distances.kernel(rows, cols, self.GAMMA)
            whole = D if rows is None else D[rows]
            expected = np.exp(-self.GAMMA * (whole if cols is None else whole[:, cols]))
            assert K.flags.c_contiguous and K.shape == expected.shape
            assert K.tobytes() == expected.tobytes()
            assert not any(np.shares_memory(K, b) for row in grid for b in row)
        assert [b.tobytes() for row in grid for b in row] == before

    def test_index_past_the_end_rejected(self):
        X = on_grid(12, 4, 1)
        distances = three_blocks(X, 9)
        for rows, cols in [([0, 12], [0]), ([0], [3, 12]), ([0, 9], [1, 12])]:
            with pytest.raises(IndexError):
                distances.kernel(np.array(rows), np.array(cols), self.GAMMA)

    @pytest.mark.parametrize("grid", [
        [],
        [[]],
        [[(5, 5)], [(3, 6), (3, 3)]],  # D_AX one column too wide
        [[(5, 5)], [(3, 5), (2, 2)]],  # D_AA of other rows than D_AX
        [[(5, 4)], [(3, 4), (3, 3)]],  # D_XX not square
        [[(5, 5)], [(3, 5)]],  # no D_AA
        [[(5, 5), (5, 3)], [(3, 5), (3, 3)]],  # the mirror stored too
        [[(4, 5), (3, 2)]],  # a second block of other rows
        [[(4, 5), (4, 2), (4, 1)]],  # three blocks
        [[(4,)]],  # not a matrix
    ])
    def test_blocks_that_do_not_tile_rejected(self, grid):
        with pytest.raises(ValueError, match="do not tile"):
            kernels.Distances(*[[np.ones(shape) for shape in row] for row in grid])


class TestPairGram:
    @pytest.mark.parametrize("n,added,classes,seed", [
        (40, 8, 3, 0), (60, 12, 2, 1), (145, 30, 3, 2), (300, 60, 3, 3),
    ])
    def test_blocks_byte_equal_to_whole_gram(self, n, added, classes, seed):
        X = on_grid(n + added, 24, seed)
        labels = np.random.default_rng(seed).integers(0, classes, n + added)
        whole = rbf_gram(X, 0.3)
        distances = three_blocks(X, n)
        subsets = [np.arange(n + added), np.arange(n), np.arange(n, n + added)]
        subsets += [np.nonzero(labels != c)[0] for c in range(classes)]
        for idx in subsets:
            assert (kernels.rbf_gram(distances, idx, 0.3).tobytes()
                    == whole[np.ix_(idx, idx)].tobytes())

    def test_off_grid_rows_byte_equal_to_whole_gram(self):
        # with no added rows the one D is computed whole, as the oracle does
        X, _ = make_problem(90, 4, dim=7)
        whole = rbf_gram(X, 0.4)
        distances = one_block(X, X)
        for idx in (np.arange(90), np.arange(0, 90, 3), np.arange(5, 60)):
            assert (kernels.rbf_gram(distances, idx, 0.4).tobytes()
                    == whole[np.ix_(idx, idx)].tobytes())

    def test_every_row_scales_the_distances_without_changing_them(self):
        X = on_grid(50, 6, 5)
        D = kernels.sq_distances(X, X)
        before = D.tobytes()
        K = kernels.rbf_gram(kernels.Distances([D]), np.arange(50), 0.2)
        assert K is not D and D.tobytes() == before

    def test_svm_train_on_unit_distances_equals_its_own(self):
        X = on_grid(130, 24, 6)
        y = [("a", "b", "c")[k] for k in np.argmax(X[:, :3], axis=1)]
        own = svm_train(X, y, distances=one_block(X, X))
        unit = svm_train(X, y, distances=three_blocks(X, 110))
        assert own.gamma == unit.gamma
        for a, b in zip(own.machines, unit.machines, strict=True):
            assert a.dual_coef.tobytes() == b.dual_coef.tobytes()
            assert a.support_vectors.tobytes() == b.support_vectors.tobytes()
            assert a.bias == b.bias

    @pytest.mark.parametrize("others", [
        slice(0, 32),  # two columns too many, past the end
        [0, 1, *range(30)],  # two columns too many, in front: shifted
        slice(2, 30),  # two columns too few
    ], ids=["wide", "shifted", "narrow"])
    def test_cross_block_of_other_columns_rejected(self, others):
        X = on_grid(40, 4, 7)
        y = ["a"] * 20 + ["b"] * 20
        with pytest.raises(ValueError, match="do not tile"):
            svm_train(X, y, distances=kernels.Distances(
                [kernels.sq_distances(X[:30], X[:30])],
                [kernels.sq_distances(X[30:], X[others]),
                 kernels.sq_distances(X[30:], X[30:])]))

    def test_distances_of_other_rows_rejected(self):
        X = on_grid(30, 4, 7)
        y = ["a"] * 15 + ["b"] * 15
        with pytest.raises(ValueError, match=r"blocks \(25, 25\) for 30 rows"):
            svm_train(X, y, distances=kernels.Distances(
                [kernels.sq_distances(X[:25], X[:25])]))


class TestCrossGram:
    """The prediction gather against the kernel computed from features."""

    @pytest.mark.parametrize("cols", [
        np.array([0, 3, 17, 39, 40, 41, 47]),  # both blocks
        np.arange(0, 40, 3),  # the first block only
        np.array([40, 44, 47]),  # the second block only
    ], ids=["both", "first", "second"])
    def test_byte_equal_to_feature_oracle(self, cols):
        X = on_grid(48 + 20, 24, 8)
        X_all, X_test = X[:48], X[48:]
        distances = kernels.Distances([kernels.sq_distances(X_test, X_all[:40]),
                                       kernels.sq_distances(X_test, X_all[40:])])
        K = kernels.rbf_cross_gram(distances, cols, 0.3)
        assert K.flags.c_contiguous
        assert (K.tobytes()
                == rbf_cross_gram(X_test, X_all[cols], 0.3).tobytes())

    def test_distances_unchanged(self):
        X = on_grid(30, 6, 9)
        D = kernels.sq_distances(X[:10], X[10:])
        before = D.tobytes()
        K = kernels.rbf_cross_gram(kernels.Distances([D]), np.arange(20), 0.2)
        assert K is not D and D.tobytes() == before


# Hashes what the BLAS thread count could change, on grid-rounded
# features, as a grid unit computes it: the distance blocks of a training
# set with added rows and of the test rows to it, and every machine's
# decision values and votes from those blocks.
THREADS_SCRIPT = """
import hashlib
import numpy as np
from augbench import kernels
from augbench.resources import grid_step, to_grid
from augbench.svm import decision_values, svm_predict, svm_train
digest = hashlib.sha256()
for n in (145, 300):
    raw = np.random.default_rng(n).normal(size=(n + 90, 50))
    X = to_grid(raw, grid_step(raw))
    train, new, test = X[:n], X[n:n + 30], X[n + 30:]
    rows = X[:n + 30]
    labels = [("a", "b", "c")[k] for k in np.argmax(rows[:, :3], axis=1)]
    distances = kernels.Distances([kernels.sq_distances(train, train)],
                                  [kernels.sq_distances(new, train),
                                   kernels.sq_distances(new, new)])
    to_test = kernels.Distances([kernels.sq_distances(test, train),
                                 kernels.sq_distances(test, new)])
    for row in distances.blocks + to_test.blocks:
        for block in row:
            digest.update(block.tobytes())
    model = svm_train(rows, labels, distances=distances)
    for machine in model.machines:
        digest.update(decision_values(model, machine, to_test).tobytes())
    digest.update(" ".join(svm_predict(model, to_test)).encode())
print(digest.hexdigest())
"""


def test_grid_products_identical_under_one_and_two_blas_threads():
    src = os.path.dirname(os.path.dirname(kernels.__file__))
    digests = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items()
               if k not in {"GOTO_NUM_THREADS", "OMP_NUM_THREADS"}}
        env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        done = subprocess.run([sys.executable, "-c", THREADS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout)
    assert digests[0] == digests[1]


class TestSmoAgreement:
    def test_box_constraint(self, random_problem):
        X, y = random_problem
        K = rbf_gram(X, 0.5)
        alpha, _ = kernels.smo_solve(K, y, 10.0, 1e-3)
        assert np.all(alpha >= 0.0) and np.all(alpha <= 10.0)

    def test_equality_constraint(self, random_problem):
        # sum(alpha_i * y_i) stays 0: every update moves the pair together
        X, y = random_problem
        K = rbf_gram(X, 0.5)
        alpha, _ = kernels.smo_solve(K, y, 10.0, 1e-3)
        assert float(np.dot(alpha, y)) == pytest.approx(0.0, abs=1e-9)

    def test_deterministic(self, random_problem):
        X, y = random_problem
        K = rbf_gram(X, 0.5)
        a1, b1 = kernels.smo_solve(K, y, 10.0, 1e-3)
        a2, b2 = kernels.smo_solve(K, y, 10.0, 1e-3)
        assert np.array_equal(a1, a2) and b1 == b2

    @pytest.mark.parametrize("n,seed,C,tol", [
        (12, 4, 10.0, 1e-3), (60, 5, 1.0, 1e-3), (150, 6, 10.0, 1e-3),
        (300, 7, 100.0, 1e-2), (300, 8, 10.0, 1e-5),
    ])
    def test_kkt_gap_at_exit(self, n, seed, C, tol):
        X, y = make_problem(n, seed)
        K = rbf_gram(X, 1.0 / (X.shape[1] * X.var()))
        alpha, _ = kernels.smo_solve(K, y, C, tol)
        assert kkt_gap(K, y, C, alpha) <= tol
        assert np.all((alpha >= 0.0) & (alpha <= C))
        assert float(alpha @ y) == pytest.approx(0.0, abs=1e-9 * max(1.0, C))

    @pytest.mark.parametrize("X,y,C,tol", BYTE_PROBLEMS, ids=BYTE_IDS)
    def test_byte_equal_to_uncached_loop(self, X, y, C, tol):
        # cold, and from a solve on the first two thirds of the rows
        # padded with zeros
        K = rbf_gram(X, 1.0 / (X.shape[1] * X.var()))
        m = 2 * len(y) // 3
        small, _ = kernels.smo_solve(K[:m, :m], y[:m], C, tol)
        for start in (None, np.concatenate([small, np.zeros(len(y) - m)])):
            alpha, bias = kernels.smo_solve(K, y, C, tol, start=start)
            ref_alpha, ref_bias = reference_smo(K, y, C, tol, start)
            assert alpha.tobytes() == ref_alpha.tobytes()
            assert bias == ref_bias

    def test_matches_qp_oracle_on_tiny_problems(self):
        for n, seed, C in TINY:
            X, y = make_problem(n, seed, dim=3)
            K = rbf_gram(X, 0.4)
            alpha, _ = kernels.smo_solve(K, y, C, 1e-6)
            oracle, _ = qp_oracle(K, y, C)
            assert (dual_objective(K, y, alpha)
                    >= dual_objective(K, y, oracle) - 1e-7), (n, seed, C)
            assert np.allclose(alpha, oracle, atol=1e-4 * C), (n, seed, C)

    def test_decision_signs_match_qp_oracle(self):
        # at the default tol, on the training points and on fresh ones
        for n, seed, C in TINY:
            X, y = make_problem(n, seed, dim=3)
            probe = np.random.default_rng(seed + 100).normal(size=(50, 3))
            points = np.vstack([X, probe])
            K = rbf_gram(X, 0.4)
            K_points = rbf_cross_gram(points, X, 0.4)
            alpha, bias = kernels.smo_solve(K, y, C, 1e-3)
            oracle, oracle_bias = qp_oracle(K, y, C)
            f = K_points @ (alpha * y) + bias
            f_oracle = K_points @ (oracle * y) + oracle_bias
            decided = np.abs(f_oracle) > 1e-2  # the two may differ by about tol
            assert np.array_equal(np.sign(f[decided]),
                                  np.sign(f_oracle[decided])), (n, seed, C)
            assert decided.mean() > 0.9, (n, seed, C)

    def test_no_free_support_vector_bias(self):
        # C small enough that every alpha ends at a bound: the bias is the
        # midpoint of the interval the KKT conditions allow
        X, y = make_problem(40, 9, noise=3.0)
        K = rbf_gram(X, 0.2)
        alpha, bias = kernels.smo_solve(K, y, 1e-3, 1e-3)
        assert not np.any((alpha > 0) & (alpha < 1e-3))
        score = y - K @ (alpha * y)
        up = ((alpha < 1e-3) & (y > 0)) | ((alpha > 0) & (y < 0))
        low = ((alpha < 1e-3) & (y < 0)) | ((alpha > 0) & (y > 0))
        assert score[up].max() - 1e-3 <= bias <= score[low].min() + 1e-3

    def test_iteration_ceiling_raises_through_svm_train(self, monkeypatch):
        X, y = make_problem(40, 10)
        labels = ["pos" if v > 0 else "neg" for v in y]
        distances = one_block(X, X)
        svm_train(X, labels, SvmConfig(), distances=distances)  # converges
        monkeypatch.setattr(
            kernels, "smo_solve", functools.partial(kernels.smo_solve, max_iter=1)
        )
        with pytest.raises(TrainingError, match="did not reach tol"):
            svm_train(X, labels, SvmConfig(), distances=distances)

    def test_iteration_ceiling_message_states_the_gap(self, random_problem):
        # at alpha = 0, -y G = y: the gap is 1 - (-1)
        X, y = random_problem
        K = rbf_gram(X, 0.5)
        with pytest.raises(TrainingError, match=r"in 0 iterations \(gap 2\)"):
            kernels.smo_solve(K, y, 10.0, 1e-3, max_iter=0)


def random_start(y, C, seed):
    """A feasible alpha with entries at 0, at C and in between: the side
    of y whose alphas sum to more is scaled down until y'alpha = 0."""
    rng = np.random.default_rng(seed)
    kind = rng.choice(3, size=len(y), p=[0.4, 0.2, 0.4])  # at 0, at C, inside
    alpha = np.where(kind == 0, 0.0, np.where(kind == 1, C, rng.uniform(0.0, C, len(y))))
    pos, neg = alpha[y > 0].sum(), alpha[y < 0].sum()
    heavy = y > 0 if pos > neg else y < 0
    alpha[heavy] *= min(pos, neg) / max(pos, neg)
    return alpha


class TestSmoStart:
    @pytest.mark.parametrize("n,seed,C,tol", [
        (12, 40, 10.0, 1e-3), (60, 41, 1.0, 1e-3), (150, 42, 10.0, 1e-3),
        (300, 43, 100.0, 1e-2), (300, 44, 10.0, 1e-5), (80, 45, 0.05, 1e-4),
    ])
    def test_kkt_gap_at_exit_from_random_starts(self, n, seed, C, tol):
        X, y = make_problem(n, seed)
        K = rbf_gram(X, 1.0 / (X.shape[1] * X.var()))
        for draw in range(3):
            start = random_start(y, C, seed * 10 + draw)
            assert float(start @ y) == pytest.approx(0.0, abs=1e-9 * max(1.0, C))
            alpha, _ = kernels.smo_solve(K, y, C, tol, start=start)
            assert kkt_gap(K, y, C, alpha) <= tol
            assert np.all((alpha >= 0.0) & (alpha <= C))
            assert float(alpha @ y) == pytest.approx(0.0, abs=1e-9 * max(1.0, C))

    def test_zero_start_gives_the_bytes_of_no_start(self):
        for X, y, C, tol in BYTE_PROBLEMS:
            K = rbf_gram(X, 1.0 / (X.shape[1] * X.var()))
            alpha, bias = kernels.smo_solve(K, y, C, tol)
            zero, zero_bias = kernels.smo_solve(K, y, C, tol, start=np.zeros(len(y)))
            assert zero.tobytes() == alpha.tobytes() and zero_bias == bias

    def test_optimal_start_is_returned_without_an_iteration(self):
        for X, y, C, tol in BYTE_PROBLEMS:
            K = rbf_gram(X, 1.0 / (X.shape[1] * X.var()))
            alpha, bias = kernels.smo_solve(K, y, C, tol)
            again, again_bias = kernels.smo_solve(K, y, C, tol, max_iter=0,
                                                  start=alpha)
            assert again.tobytes() == alpha.tobytes() and again_bias == bias

    @pytest.mark.parametrize("start", [
        np.zeros(39), np.zeros(41), np.zeros((40, 1)),
        np.r_[-1e-300, np.zeros(39)], np.r_[np.nextafter(10.0, 11.0), np.zeros(39)],
        np.r_[np.nan, np.zeros(39)],
    ], ids=["short", "long", "column", "negative", "above-C", "nan"])
    def test_bad_start_rejected(self, random_problem, start):
        X, y = random_problem
        with pytest.raises(ValueError, match="start"):
            kernels.smo_solve(rbf_gram(X, 0.5), y, 10.0, 1e-3, start=start)


@pytest.fixture(scope="module")
def demo_trainings(tmp_path_factory):
    """The one-vs-one solves of make_demo(rows=2000) features, grid-sized,
    by (dataset, subset size, share, pair).

    Each subset of 300 or 600 rows is cut to a training set of 0.75 of it
    (a baseline cell) and of 0.9 (a cell with 20% augmentation), as in
    the demo grid; every pair of classes is one problem, n = 133-540.
    """
    cfg = synthdata.make_demo(str(tmp_path_factory.mktemp("demo")), rows=2000)
    store = load_embeddings(cfg["resources"]["embeddings"])
    svm = SvmConfig()
    problems = {}
    for spec, size in itertools.product(cfg["datasets"], (300, 600)):
        subset = resample_subset(load_dataset(spec["path"]), size, seed=size)
        X_all, labels_all = featurize(subset, store), np.array(subset.labels())
        for share in (0.75, 0.9):
            X, labels = X_all[:round(share * size)], labels_all[:round(share * size)]
            K = rbf_gram(X, gamma_scale(X))
            for a, b in itertools.combinations(sorted(set(labels)), 2):
                idx = np.nonzero((labels == a) | (labels == b))[0]
                y = np.where(labels[idx] == a, 1.0, -1.0)
                problems[spec["name"], size, share, (a, b)] = (
                    K[np.ix_(idx, idx)], y, svm.C, svm.tol)
    return problems


@pytest.fixture(scope="module")
def demo_problems(demo_trainings):
    return list(demo_trainings.values())


class TestSmoOnDemoProblems:
    def test_problem_sizes(self, demo_problems):
        sizes = [len(y) for _, y, _, _ in demo_problems]
        assert len(sizes) == 16 and min(sizes) > 100 and max(sizes) == 540

    def test_byte_equal_to_uncached_loop(self, demo_problems):
        different = []
        for number, (K, y, C, tol) in enumerate(demo_problems):
            alpha, bias = kernels.smo_solve(K, y, C, tol)
            ref_alpha, ref_bias = reference_smo(K, y, C, tol)
            if alpha.tobytes() != ref_alpha.tobytes() or bias != ref_bias:
                different.append((number, len(y)))
        assert different == []

    def test_inputs_unmodified(self, demo_problems):
        K, y, C, tol = demo_problems[-1]
        K_bytes, y_bytes = K.tobytes(), y.tobytes()
        kernels.smo_solve(K, y, C, tol)
        assert K.tobytes() == K_bytes and y.tobytes() == y_bytes

    def test_no_warning(self, demo_problems):
        # a NumPy deprecation (say, of a positional out) would fail here
        K, y, C, tol = demo_problems[-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernels.smo_solve(K, y, C, tol)

    def test_prefix_start_byte_equal_to_uncached_loop(self, demo_trainings):
        # the 0.75 training's rows are the first of the 0.9 training's, so
        # the smaller solve, padded with zeros, starts the larger one
        different = []
        for (name, size, share, pair), (K, y, C, tol) in demo_trainings.items():
            if share == 0.75:
                continue
            small, _ = kernels.smo_solve(*demo_trainings[name, size, 0.75, pair])
            start = np.concatenate([small, np.zeros(len(y) - len(small))])
            alpha, bias = kernels.smo_solve(K, y, C, tol, start=start)
            ref_alpha, ref_bias = reference_smo(K, y, C, tol, start)
            assert kkt_gap(K, y, C, alpha) <= tol
            if alpha.tobytes() != ref_alpha.tobytes() or bias != ref_bias:
                different.append((name, size, pair))
        assert different == []


def test_grid_unit_solves_byte_equal_to_uncached_loop(tmp_path, monkeypatch):
    """Every Gram one seed-7 demo unit solves, solved again by the plain
    loop. Its BT rows are exact copies of their sources, so these Grams
    hold repeated rows, and partner gains tie."""
    config = runner.config_from_dict(synthdata.make_demo(str(tmp_path)))
    cells = [c for c in runner.plan_grid(config)
             if c.unit_key() == ("synth3", 600, 0)]
    solve = kernels.smo_solve
    solved = []

    def checked(K, y, C, tol, **kwargs):
        alpha, bias = solve(K, y, C, tol, **kwargs)
        ref_alpha, ref_bias = reference_smo(K, y, C, tol, kwargs.get("start"))
        solved.append((len(y), len(np.unique(K, axis=0)),
                       alpha.tobytes() == ref_alpha.tobytes() and bias == ref_bias))
        return alpha, bias

    monkeypatch.setattr(kernels, "smo_solve", checked)
    resources = runner.load_resources(config)
    try:
        rows, _, _ = runner.run_unit(config, resources, cells)
    finally:
        resources.cache.close()
    assert [r.status for r in rows] == ["ok"] * len(cells)
    assert len(solved) == 3 * (1 + 3)  # three pairs: the baseline, EDA, Syn, BT
    assert any(distinct < n for n, distinct, _ in solved)
    assert [n for n, _, same in solved if not same] == []
