import functools

import numpy as np
import pytest
from scipy import optimize

from augbench import kernels
from augbench.errors import TrainingError
from augbench.svm import SvmConfig, rbf_kernel, svm_train


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


TINY = [(n, seed, C) for n, seed in ((8, 0), (15, 1), (22, 2), (30, 3))
        for C in (0.5, 10.0)]


class TestGramAgreement:
    def test_gram_paths_agree(self, random_problem):
        # vectorised Gram against the scalar kernel, entry by entry
        X, _ = random_problem
        K = kernels.rbf_gram(X, 0.6)
        loop = np.array([[rbf_kernel(a, b, 0.6) for b in X] for a in X])
        assert np.allclose(K, loop, rtol=0.0, atol=1e-12)

    def test_cross_paths_agree(self, random_problem):
        X, _ = random_problem
        C = kernels.rbf_cross_gram(X[:7], X, 0.6)
        loop = np.array([[rbf_kernel(a, b, 0.6) for b in X] for a in X[:7]])
        assert np.allclose(C, loop, rtol=0.0, atol=1e-12)

    def test_gram_diagonal_is_one(self, random_problem):
        X, _ = random_problem
        assert np.all(np.diag(kernels.rbf_gram(X, 0.9)) == 1.0)

    def test_gram_symmetric(self, random_problem):
        X, _ = random_problem
        K = kernels.rbf_gram(X, 0.4)
        assert np.array_equal(K, K.T)

    def test_values_in_unit_interval(self, random_problem):
        X, _ = random_problem
        K = kernels.rbf_gram(X, 1.1)
        assert np.all(K > 0.0) and np.all(K <= 1.0)


class TestSmoAgreement:
    def test_box_constraint(self, random_problem):
        X, y = random_problem
        K = kernels.rbf_gram(X, 0.5)
        alpha, _ = kernels.smo_solve(K, y, 10.0, 1e-3)
        assert np.all(alpha >= 0.0) and np.all(alpha <= 10.0)

    def test_equality_constraint(self, random_problem):
        # sum(alpha_i * y_i) stays 0: every update moves the pair together
        X, y = random_problem
        K = kernels.rbf_gram(X, 0.5)
        alpha, _ = kernels.smo_solve(K, y, 10.0, 1e-3)
        assert float(np.dot(alpha, y)) == pytest.approx(0.0, abs=1e-9)

    def test_deterministic(self, random_problem):
        X, y = random_problem
        K = kernels.rbf_gram(X, 0.5)
        a1, b1 = kernels.smo_solve(K, y, 10.0, 1e-3)
        a2, b2 = kernels.smo_solve(K, y, 10.0, 1e-3)
        assert np.array_equal(a1, a2) and b1 == b2

    @pytest.mark.parametrize("n,seed,C,tol", [
        (12, 4, 10.0, 1e-3), (60, 5, 1.0, 1e-3), (150, 6, 10.0, 1e-3),
        (300, 7, 100.0, 1e-2), (300, 8, 10.0, 1e-5),
    ])
    def test_kkt_gap_at_exit(self, n, seed, C, tol):
        X, y = make_problem(n, seed)
        K = kernels.rbf_gram(X, 1.0 / (X.shape[1] * X.var()))
        alpha, _ = kernels.smo_solve(K, y, C, tol)
        assert kkt_gap(K, y, C, alpha) <= tol
        assert np.all((alpha >= 0.0) & (alpha <= C))
        assert float(alpha @ y) == pytest.approx(0.0, abs=1e-9 * max(1.0, C))

    def test_matches_qp_oracle_on_tiny_problems(self):
        for n, seed, C in TINY:
            X, y = make_problem(n, seed, dim=3)
            K = kernels.rbf_gram(X, 0.4)
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
            K = kernels.rbf_gram(X, 0.4)
            K_points = kernels.rbf_cross_gram(points, X, 0.4)
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
        K = kernels.rbf_gram(X, 0.2)
        alpha, bias = kernels.smo_solve(K, y, 1e-3, 1e-3)
        assert not np.any((alpha > 0) & (alpha < 1e-3))
        score = y - K @ (alpha * y)
        up = ((alpha < 1e-3) & (y > 0)) | ((alpha > 0) & (y < 0))
        low = ((alpha < 1e-3) & (y < 0)) | ((alpha > 0) & (y > 0))
        assert score[up].max() - 1e-3 <= bias <= score[low].min() + 1e-3

    def test_iteration_ceiling_raises_through_svm_train(self, monkeypatch):
        X, y = make_problem(40, 10)
        labels = ["pos" if v > 0 else "neg" for v in y]
        svm_train(X, labels, SvmConfig())  # converges under the default ceiling
        monkeypatch.setattr(
            kernels, "smo_solve", functools.partial(kernels.smo_solve, max_iter=1)
        )
        with pytest.raises(TrainingError, match="did not reach tol"):
            svm_train(X, labels, SvmConfig())
