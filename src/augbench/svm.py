"""RBF-kernel SVM: one-vs-one training via SMO, and prediction.

Training is deterministic: the solver draws no random numbers. Both
read the squared distances of a ``kernels.Distances`` that their caller
computed: each pairwise machine solves on the Gram matrix of its rows,
and prediction sums kernel values from the test rows to its support
vectors, which it keeps as indices into the training rows, as LIBSVM's
precomputed-kernel models do: a model holds no feature matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import kernels
from .errors import DegenerateFeaturesError, TrainingError

_SUPPORT_EPS = 1e-8


@dataclass(frozen=True)
class SvmConfig:
    C: float = 10.0
    gamma: float | str = "scale"  # positive float, or "scale"
    tol: float = 1e-3  # SMO stops when the maximal-violating-pair gap is <= tol

    def __post_init__(self) -> None:
        # a NaN or an infinity would send SMO toward its iteration ceiling
        if not 0 < self.C < math.inf:
            raise ValueError(f"C must be positive and finite, not {self.C!r}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, not {self.tol!r}")
        if isinstance(self.gamma, str):
            if self.gamma != "scale":
                raise ValueError(f"unknown gamma mode {self.gamma!r}")
        elif not 0 < self.gamma < math.inf:
            raise ValueError(
                f"fixed gamma must be positive and finite, not {self.gamma!r}")


@dataclass(frozen=True)
class BinaryMachine:
    """One pairwise machine: class_pos beats class_neg when f(x) >= 0."""

    class_pos: str
    class_neg: str
    support_vectors: np.ndarray  # (n_sv,): ascending training-row indices
    dual_coef: np.ndarray  # alpha_i * y_i, |coef| <= C
    bias: float
    # alpha over the pair's training rows as the solve returned it, so that
    # it sums to zero against the labels and can start another solve
    alpha: np.ndarray


@dataclass(frozen=True)
class SvmModel:
    """The machines of one training on rows of ``labels``."""

    classes: tuple[str, ...]
    machines: tuple[BinaryMachine, ...]
    gamma: float
    labels: tuple[str, ...]  # of each training row

    @property
    def rows(self) -> int:
        """The width of the distances that prediction reads."""
        return len(self.labels)


def gamma_scale(X: np.ndarray) -> float:
    """gamma = 1 / (dim * population variance of all entries of X).

    DegenerateFeaturesError for an empty X, a zero variance, and a
    variance so small that gamma is not finite."""
    X = np.asarray(X, dtype=np.float64)
    if X.size == 0:
        raise DegenerateFeaturesError("empty feature matrix")
    var = float(X.var())
    if var == 0.0:
        raise DegenerateFeaturesError("zero feature variance; gamma undefined")
    gamma = 1.0 / (X.shape[1] * var)
    if not math.isfinite(gamma):  # exp(-inf * 0) would put NaN in the Gram
        raise DegenerateFeaturesError(
            f"gamma = 1 / ({X.shape[1]} * variance {var:.3g}) is not finite")
    return gamma


def svm_train(X: np.ndarray, y: list[str], cfg: SvmConfig = SvmConfig(), *,
              distances: kernels.Distances,
              start: SvmModel | None = None) -> SvmModel:
    """Train one-vs-one RBF machines with the SMO solver.

    ``distances`` holds the squared distances among the rows of X
    (ValueError for another shape); X is read only for its checks and
    gamma="scale". Raises TrainingError for single-class input,
    non-finite features and a solve that reaches the solver's iteration
    ceiling; gamma="scale" additionally requires non-degenerate features.

    ``start`` is a model trained on the first rows of this training,
    whose labels it must have (ValueError otherwise): each pair's solve
    starts from that model's alphas of the pair, then zeros for the
    appended rows, which is feasible whatever the rows' features."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != len(y):
        raise TrainingError(
            f"feature matrix {X.shape} does not match {len(y)} labels"
        )
    if not np.isfinite(X).all():
        raise TrainingError("non-finite values in feature matrix")
    classes = tuple(sorted(set(y)))
    if len(classes) < 2:
        raise TrainingError("training data has a single class")
    gamma = gamma_scale(X) if cfg.gamma == "scale" else float(cfg.gamma)
    if distances.shape != (len(y), len(y)):
        raise ValueError(f"distance blocks {distances.shape} for {len(y)} rows")
    starts = {}
    if start is not None:
        if tuple(y[:start.rows]) != start.labels:
            raise ValueError(f"start trained on {start.rows} rows whose labels "
                             f"are not the first of these {len(y)}")
        starts = {(m.class_pos, m.class_neg): m.alpha for m in start.machines}
    y_arr = np.asarray(y)
    machines: list[BinaryMachine] = []
    for a, bcls in combinations(classes, 2):
        idx = np.nonzero((y_arr == a) | (y_arr == bcls))[0]
        y_signed = np.where(y_arr[idx] == a, 1.0, -1.0)
        seed = starts.get((a, bcls))  # the pair's rows of the start come first
        alpha, bias = kernels.smo_solve(
            kernels.rbf_gram(distances, idx, gamma), y_signed, cfg.C, cfg.tol,
            start=None if seed is None else np.concatenate(
                [seed, np.zeros(len(idx) - len(seed))]))
        sv = np.nonzero(alpha > _SUPPORT_EPS)[0]
        if sv.size == 0:
            raise TrainingError(
                f"no support vectors for pair ({a}, {bcls}); degenerate kernel"
            )
        machines.append(
            BinaryMachine(
                class_pos=a,
                class_neg=bcls,
                support_vectors=idx[sv],
                dual_coef=alpha[sv] * y_signed[sv],
                bias=float(bias),
                alpha=alpha,
            )
        )
    return SvmModel(classes=classes, machines=tuple(machines), gamma=gamma,
                    labels=tuple(y))


def decision_values(model: SvmModel, machine: BinaryMachine,
                    distances: kernels.Distances) -> np.ndarray:
    """f(x) of one machine for the rows of ``distances``.

    The kernel values are not on the feature grid, so the sum runs in
    einsum's fixed order, not in the BLAS's thread-dependent one.
    """
    K = kernels.rbf_cross_gram(distances, machine.support_vectors, model.gamma)
    return np.einsum("ij,j->i", K, machine.dual_coef) + machine.bias


def svm_predict(model: SvmModel, distances: kernels.Distances) -> list[str]:
    """One-vs-one majority vote for each row of ``distances`` (test rows
    to the training rows); ties break toward earlier model.classes.
    ValueError for distances of another width and for a NaN decision
    value, which would give its row no vote and so the first class."""
    if distances.shape[1] != model.rows:
        raise ValueError(f"distance blocks {distances.shape} for "
                         f"{model.rows} training rows")
    column = {c: i for i, c in enumerate(model.classes)}
    votes = np.zeros((distances.shape[0], len(model.classes)), dtype=np.int64)
    for machine in model.machines:
        f = decision_values(model, machine, distances)
        if np.isnan(f).any():
            raise ValueError(f"NaN decision values of machine "
                             f"({machine.class_pos}, {machine.class_neg})")
        votes[f >= 0.0, column[machine.class_pos]] += 1
        votes[f < 0.0, column[machine.class_neg]] += 1
    winners = np.argmax(votes, axis=1)  # first max wins a tie
    return [model.classes[w] for w in winners]
