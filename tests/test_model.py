import json
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augbench import kernels
from augbench.errors import DegenerateFeaturesError, ResourceError, TrainingError
from augbench.corpus import Dataset, LabeledExample
from augbench.metrics import evaluate, load_predictions, save_predictions
from augbench.resources import (
    EmbeddingStore, _mean_vectors, featurize, grid_bits, grid_step, to_grid,
)
from augbench.svm import SvmConfig, gamma_scale, svm_predict, svm_train
from oracles import (
    evaluate_tallies, one_block, rbf_cross_gram, rbf_kernel, sentence_vector,
)


def make_store(vectors: dict[str, list[float]]) -> EmbeddingStore:
    words = tuple(vectors)
    matrix = np.array([vectors[w] for w in words], dtype=np.float64)
    return EmbeddingStore(words=words, matrix=matrix)


class TestSentenceVector:
    def test_mean_of_one(self):
        store = make_store({"a": [1, 2]})
        assert np.array_equal(sentence_vector(["a"], store), [1.0, 2.0])

    def test_component_wise_mean(self):
        store = make_store({"a": [1, 2], "b": [3, 4]})
        assert np.array_equal(sentence_vector(["a", "b"], store), [2.0, 3.0])

    def test_all_oov_gives_zero(self):
        store = make_store({"a": [1, 2]})
        assert np.array_equal(sentence_vector(["x", "y"], store), [0.0, 0.0])

    def test_oov_skipped(self):
        store = make_store({"a": [2, 2]})
        assert np.array_equal(sentence_vector(["a", "zzz"], store), [2.0, 2.0])

    def test_permutation_invariant(self):
        store = make_store({"a": [1, 0], "b": [0, 1], "c": [2, 2]})
        toks = ["a", "b", "c", "a"]
        v1 = sentence_vector(toks, store)
        for _ in range(5):
            random.Random(3).shuffle(toks)
            assert np.allclose(sentence_vector(toks, store), v1)

    def test_featurize_shape(self):
        store = make_store({"bom": [1, 0], "ruim": [0, 1]})
        ds = Dataset(name="d", examples=(
            LabeledExample("bom bom", "p"), LabeledExample("ruim", "n"),
        ))
        X = featurize(ds, store)
        assert X.shape == (2, 2)
        assert np.array_equal(X[0], [1.0, 0.0])


VOCAB = ("bom", "ruim", "filme", "nada")
OOV = ("zz", "qq")
finite = st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False)


def reference_vector(ids, matrix):
    """The per-sentence mean ``_mean_vectors`` computed before it was
    vectorised."""
    if not ids:
        return np.zeros(matrix.shape[1], dtype=np.float64)
    return np.mean(np.stack([matrix[i] for i in ids]), axis=0)


vocab_vectors = st.lists(st.lists(finite, min_size=3, max_size=3),
                         min_size=len(VOCAB), max_size=len(VOCAB))
# covers empty, OOV-only and repeated-token sentences and, with no
# sentences, an empty dataset
vocab_sentences = st.lists(
    st.lists(st.sampled_from(VOCAB + OOV), max_size=12), max_size=8)


class TestFeaturizeMatchesPerSentenceMean:
    @given(vectors=vocab_vectors, sentences=vocab_sentences)
    @settings(max_examples=300, deadline=None)
    def test_mean_vectors_bitwise_equal(self, vectors, sentences):
        matrix = np.array(vectors, dtype=np.float64)
        ids = [[VOCAB.index(t) for t in toks if t in VOCAB] for toks in sentences]
        X = _mean_vectors(ids, matrix)
        assert X.shape == (len(sentences), 3)
        for row, row_ids in zip(X, ids):
            expected = reference_vector(row_ids, matrix)
            assert np.array_equal(row, expected)
            assert row.tobytes() == expected.tobytes()  # signed zeros too
            one = _mean_vectors([row_ids], matrix)[0]
            assert one.tobytes() == expected.tobytes()

    @given(vectors=vocab_vectors, sentences=vocab_sentences)
    @settings(max_examples=300, deadline=None)
    def test_featurize_is_the_mean_on_the_grid(self, vectors, sentences):
        matrix = np.array(vectors, dtype=np.float64)
        if 0 < np.abs(matrix).max() < 2.0 ** (grid_bits(3) - 538):
            with pytest.raises(ResourceError, match="outside float64"):
                make_store(dict(zip(VOCAB, vectors)))  # see TestFeatureGrid
            return
        store = make_store(dict(zip(VOCAB, vectors)))
        assert store.grid_step == grid_step(matrix)
        ds = Dataset(name="d", examples=tuple(
            LabeledExample(" ".join(toks), "x") for toks in sentences
        ))
        ids = [store.token_ids(toks) for toks in sentences]
        expected = to_grid(_mean_vectors(ids, matrix), grid_step(matrix))
        X = featurize(ds, store)
        assert X.shape == expected.shape
        assert X.tobytes() == expected.tobytes()

    def test_oov_only_and_empty_rows_are_zero(self):
        store = make_store({"a": [1.0, -2.0]})
        ds = Dataset(name="d", examples=(
            LabeledExample("zz qq", "x"), LabeledExample("", "x"),
            LabeledExample("a a zz", "x"),
        ))
        X = featurize(ds, store)
        assert np.array_equal(X, [[0.0, 0.0], [0.0, 0.0], [1.0, -2.0]])

    def test_empty_dataset(self):
        store = make_store({"a": [1.0, 2.0]})
        X = featurize(Dataset(name="d", examples=()), store)
        assert X.shape == (0, 2) and X.dtype == np.float64


class TestFeatureGrid:
    @given(rows=st.lists(
        st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=3,
                 max_size=3),
        min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_rounding_is_idempotent_and_within_half_a_step(self, rows):
        X = np.array(rows)
        if 0 < np.abs(X).max() < 2.0 ** (grid_bits(3) - 538):
            with pytest.raises(ResourceError, match="outside float64"):
                grid_step(X)  # s^2 < 2^-1074: see the test below
            return
        step = grid_step(X)
        G = to_grid(X, step)
        assert to_grid(G, step).tobytes() == G.tobytes()
        assert np.all(np.abs(G - X) <= step / 2)
        k = G / step
        assert np.array_equal(k, np.rint(k))
        assert np.abs(k).max() <= 2 ** grid_bits(3)

    def test_input_unchanged(self):
        X = np.array([[0.3, -0.7]])
        to_grid(X, grid_step(X))
        assert X.tolist() == [[0.3, -0.7]]

    @pytest.mark.parametrize("top,exponent", [
        (3.0, 2), (4.0, 3), (0.75, 0), (1e-3, -9), (0.0, 0),
    ])
    def test_step_is_a_power_of_two_above_every_entry(self, top, exponent):
        # 2^e > every |entry|, and b = 25 bits for two components
        for matrix in ([[top, -top / 2]], [[top / 2, -top]]):
            assert grid_step(np.array(matrix)) == 2.0 ** (exponent - 25)

    @pytest.mark.parametrize("dim,bits", [
        (1, 25), (2, 25), (3, 24), (24, 23), (300, 21), (2048, 20),
        (2049, 19), (2 ** 19, 16),
    ])
    def test_bits_from_the_dimension(self, dim, bits):
        # b = floor((51 - ceil(log2 dim)) / 2), so 4 dim 2^(2b) <= 2^53
        assert grid_bits(dim) == bits
        assert 4 * dim * 2 ** (2 * bits) <= 2 ** 53

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 300, 2 ** 19])
    def test_entries_whose_distances_overflow_rejected(self, dim):
        # the largest entries whose bound 4 dim 2^(2e) is finite, then 2^e
        e = (1024 - math.frexp(4.0 * dim)[1]) // 2
        top = math.ldexp(1.0, e) * (1 - 2 ** -53)
        step = grid_step(np.array([[top] * dim]))
        X = to_grid(np.array([[top] * dim, [-top] * dim]), step)
        assert np.isfinite(kernels.sq_distances(X, X)).all()
        with pytest.raises(ResourceError, match=f"outside float64: .*, 2\\^{e}\\)$"):
            grid_step(np.array([[math.ldexp(1.0, e)] * dim]))

    @pytest.mark.parametrize("dim", [1, 2, 3, 300, 2 ** 19])
    def test_entries_whose_squared_step_underflows_rejected(self, dim):
        # s^2 = 2^(2(e - b)) is exactly 2^-1074 at the least entry allowed
        least = 2.0 ** (grid_bits(dim) - 538)
        step = grid_step(np.array([[least] + [0.0] * (dim - 1)]))
        assert step * step == 2.0 ** -1074
        X = np.zeros((2, dim))
        X[0, 0] = step
        assert kernels.sq_distances(X, X)[0, 1] == 2.0 ** -1074
        with pytest.raises(ResourceError, match=f"in \\[2\\^{grid_bits(dim) - 538},"):
            grid_step(np.array([[least * (1 - 2 ** -53)] + [0.0] * (dim - 1)]))

    def test_dimension_leaving_fewer_than_16_bits_rejected(self):
        with pytest.raises(ResourceError, match="dim <= 524288"):
            grid_bits(2 ** 19 + 1)
        with pytest.raises(ResourceError):
            grid_step(np.zeros((1, 2 ** 19 + 1)))


class TestGammaScale:
    def test_hand_case(self):
        assert gamma_scale(np.array([[0.0, 0.0], [2.0, 2.0]])) == 0.5

    def test_zero_variance(self):
        with pytest.raises(DegenerateFeaturesError):
            gamma_scale(np.full((3, 2), 7.0))

    def test_variance_too_small_for_a_finite_gamma(self):
        # entries near 2^-515 at d = 24 are within the feature grid's
        # bounds, yet 1 / (24 var) overflows
        X = tiny_features(2.0 ** -515)
        with pytest.raises(DegenerateFeaturesError, match="not finite"):
            gamma_scale(X)
        assert math.isfinite(gamma_scale(tiny_features(2.0 ** -514)))

    def test_infinite_gamma_fails_training_at_once(self):
        # exp(-inf * 0) on the repeated rows would put NaN in the Gram
        # matrix and send SMO to its iteration ceiling
        X = tiny_features(2.0 ** -515)
        y = ["a" if v > 0 else "b" for v in X[:, 0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError, match="not finite"):
                svm_train(X, y, SvmConfig(), distances=one_block(X, X))

    def test_scaling_law(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 4))
        for s in (0.5, 2.0, 10.0):
            assert gamma_scale(X * s) == pytest.approx(
                gamma_scale(X) / s**2, rel=1e-12
            )


class TestRbfKernel:
    def test_identical_points(self):
        x = np.array([1.0, 2.0, 3.0])
        assert rbf_kernel(x, x, 0.7) == 1.0

    def test_hand_value(self):
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        assert rbf_kernel(x, y, 0.5) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=2 * 3).reshape(2, 3)
        assert rbf_kernel(x, y, 1.3) == rbf_kernel(y, x, 1.3)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            rbf_kernel(np.zeros(2), np.zeros(3), 1.0)

    def test_gram_psd(self):
        # smallest eigenvalue of a random RBF Gram matrix stays >= -1e-8
        rng = np.random.default_rng(11)
        for _ in range(5):
            X = rng.normal(size=(15, 4))
            K = np.array([[rbf_kernel(a, b, 0.8) for b in X] for a in X])
            assert np.linalg.eigvalsh(K).min() >= -1e-8


def make_blobs(n_per=20, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([
        rng.normal(0, 0.3, (n_per, 2)) + [3.0, 3.0],
        rng.normal(0, 0.3, (n_per, 2)) - [3.0, 3.0],
    ])
    y = ["pos"] * n_per + ["neg"] * n_per
    return X, y


def tiny_features(scale):
    """50 rows of N(0, 1) * scale at d = 24, the first 5 repeated at the
    end, as EDA swaps and BT copies repeat rows."""
    X = np.random.default_rng(11).normal(size=(45, 24)) * scale
    return np.vstack([X, X[:5]])


def three_blobs(n=60, seed=1):
    """Three separated classes with interleaved labels."""
    rng = np.random.default_rng(seed)
    centers = {"a": [3, 0], "b": [-3, 0], "c": [0, 3]}
    y = [str(c) for c in rng.choice(list(centers), size=n)]
    X = np.array([centers[c] for c in y]) + rng.normal(0, 1.0, (n, 2))
    return X, y


XOR_X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
XOR_Y = ["a", "a", "b", "b"]


class TestSvm:
    def test_separable_blobs(self):
        X, y = make_blobs()
        model = svm_train(X, y, SvmConfig(), distances=one_block(X, X))
        acc = np.mean([p == t for p, t in
                       zip(svm_predict(model, one_block(X, X)), y)])
        assert acc >= 0.99

    def test_xor(self):
        distances = one_block(XOR_X, XOR_X)
        model = svm_train(XOR_X, XOR_Y, SvmConfig(gamma=1.0), distances=distances)
        assert svm_predict(model, distances) == XOR_Y

    def test_dual_coefficients_bounded(self):
        X, y = make_blobs()
        model = svm_train(X, y, SvmConfig(C=10.0), distances=one_block(X, X))
        for machine in model.machines:
            assert np.all(np.abs(machine.dual_coef) <= 10.0 + 1e-9)

    def test_kkt_conditions(self):
        # complementarity cases within solver tolerance plus slack
        X, y = make_blobs()
        cfg = SvmConfig(C=10.0)
        model = svm_train(X, y, cfg, distances=one_block(X, X))
        machine = model.machines[0]
        y_signed = np.array([1.0 if t == "neg" else -1.0 for t in y])
        support = X[machine.support_vectors]
        K = rbf_cross_gram(X, support, model.gamma)
        f = K @ machine.dual_coef + machine.bias
        sv_index = {tuple(v): c for v, c in
                    zip(map(tuple, support), machine.dual_coef)}
        for xi, yi, fi in zip(X, y_signed, f):
            coef = sv_index.get(tuple(xi), 0.0)
            alpha = abs(coef)
            margin = yi * fi
            if alpha < 1e-8:
                assert margin >= 1 - cfg.tol - 1e-6
            elif alpha > 10.0 - 1e-8:
                assert margin <= 1 + cfg.tol + 1e-6
            else:
                assert margin == pytest.approx(1.0, abs=cfg.tol + 1e-6)

    def test_deterministic(self):
        X, y = make_blobs(seed=7)
        m1 = svm_train(X, y, SvmConfig(), distances=one_block(X, X))
        m2 = svm_train(X, y, SvmConfig(), distances=one_block(X, X))
        assert np.array_equal(m1.machines[0].dual_coef, m2.machines[0].dual_coef)
        assert m1.machines[0].bias == m2.machines[0].bias

    def test_two_class_solves_on_the_gram_matrix_itself(self, monkeypatch):
        # one pair covers every row, so no n x n copy is made
        grams, solved = [], []
        gram, solve = kernels.rbf_gram, kernels.smo_solve
        monkeypatch.setattr(kernels, "rbf_gram",
                            lambda *a: grams.append(gram(*a)) or grams[-1])
        monkeypatch.setattr(kernels, "smo_solve",
                            lambda K, *a, **kw: solved.append(K) or solve(K, *a, **kw))
        X, y = make_blobs()
        svm_train(X, y, SvmConfig(), distances=one_block(X, X))
        assert len(grams) == len(solved) == 1 and solved[0] is grams[0]

    def test_multiclass_votes(self):
        rng = np.random.default_rng(5)
        centers = {"a": [4, 0], "b": [-4, 0], "c": [0, 4]}
        X = np.vstack([rng.normal(0, 0.3, (15, 2)) + c
                       for c in centers.values()])
        y = [lbl for lbl in centers for _ in range(15)]
        model = svm_train(X, y, SvmConfig(), distances=one_block(X, X))
        assert len(model.machines) == 3
        acc = np.mean([p == t for p, t in
                       zip(svm_predict(model, one_block(X, X)), y)])
        assert acc >= 0.95

    def test_point_deep_inside_class(self):
        X, y = make_blobs()
        model = svm_train(X, y, SvmConfig(), distances=one_block(X, X))
        point = np.array([[3.0, 3.0]])
        assert svm_predict(model, one_block(point, X)) == ["pos"]

    def test_empty_predict(self):
        X, y = make_blobs()
        model = svm_train(X, y, SvmConfig(), distances=one_block(X, X))
        assert svm_predict(model, one_block(np.empty((0, 2)), X)) == []

    def test_single_class_rejected(self):
        X = np.zeros((4, 2))
        with pytest.raises(TrainingError, match="single class"):
            svm_train(X, ["a"] * 4, distances=one_block(X, X))

    def test_non_finite_rejected(self):
        X = np.array([[0.0, np.nan], [1.0, 1.0]])
        with pytest.raises(TrainingError, match="non-finite"):
            svm_train(X, ["a", "b"], distances=one_block(X, X))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_predict_non_finite_rejected(self, value):
        # a NaN row would get no vote and go to the first class; a
        # non-finite feature row is at NaN distance from the blobs
        X, y = make_blobs()
        model = svm_train(X, y, SvmConfig(), distances=one_block(X, X))
        with np.errstate(invalid="ignore"):
            distances = one_block(np.array([[0.0, 0.0], [value, value]]), X)
        assert np.isnan(distances.blocks[0][0][1]).any()
        with pytest.raises(ValueError, match="NaN decision values"):
            svm_predict(model, distances)

    def test_predict_nan_distances_rejected(self):
        X, y = make_blobs()
        model = svm_train(X, y, SvmConfig(), distances=one_block(X, X))
        D = one_block(X[:3], X).blocks[0][0]
        D[1] = np.nan
        with pytest.raises(ValueError, match="NaN decision values"):
            svm_predict(model, kernels.Distances([D]))

    def test_machines_keep_the_solved_alphas(self, monkeypatch):
        solved, solve = [], kernels.smo_solve
        monkeypatch.setattr(kernels, "smo_solve", lambda *a, **kw:
                            solved.append(solve(*a, **kw)) or solved[-1])
        X, y = three_blobs()
        model = svm_train(X, y, SvmConfig(), distances=one_block(X, X))
        assert model.labels == tuple(y) and model.rows == len(y)
        assert len(solved) == len(model.machines) == 3
        for (alpha, _), machine in zip(solved, model.machines, strict=True):
            assert machine.alpha is alpha
            assert np.array_equal(np.abs(machine.dual_coef),
                                  alpha[alpha > 1e-8])

    def test_start_seeds_each_pair_with_its_alphas_then_zeros(self, monkeypatch):
        X, y = three_blobs()
        m = 40
        prefix = svm_train(X[:m], y[:m], SvmConfig(), distances=one_block(X[:m], X[:m]))
        starts, solve = [], kernels.smo_solve
        monkeypatch.setattr(kernels, "smo_solve", lambda K, yy, C, tol, **kw:
                            starts.append((yy, kw["start"])) or solve(K, yy, C, tol, **kw))
        model = svm_train(X, y, SvmConfig(), distances=one_block(X, X), start=prefix)
        assert len(starts) == 3
        for (y_signed, start), seed in zip(starts, prefix.machines, strict=True):
            k = len(seed.alpha)
            assert len(start) == len(y_signed) > k
            assert start[:k].tobytes() == seed.alpha.tobytes()
            assert not start[k:].any()
        assert svm_predict(model, one_block(X, X)) == svm_predict(
            svm_train(X, y, SvmConfig(), distances=one_block(X, X)), one_block(X, X))

    def test_start_trained_on_more_rows_rejected(self):
        X, y = three_blobs()
        model = svm_train(X, y, SvmConfig(), distances=one_block(X, X))
        with pytest.raises(ValueError, match="start trained on 60 rows"):
            svm_train(X[:50], y[:50], SvmConfig(), distances=one_block(X[:50], X[:50]),
                      start=model)

    @pytest.mark.parametrize("relabel", ["one-row", "swap"])
    def test_start_on_other_labels_rejected(self, relabel):
        # a swap of two rows' labels keeps every pair's row count
        X, y = three_blobs()
        other = list(y[:40])
        i, j = other.index("a"), other.index("b")
        other[i] = "b"
        if relabel == "swap":
            other[j] = "a"
        model = svm_train(X[:40], other, SvmConfig(),
                          distances=one_block(X[:40], X[:40]))
        with pytest.raises(ValueError, match="labels"):
            svm_train(X, y, SvmConfig(), distances=one_block(X, X), start=model)

    def test_support_vectors_are_training_row_indices(self):
        X, y = make_blobs()
        model = svm_train(X, y, SvmConfig(), distances=one_block(X, X))
        (machine,) = model.machines
        assert model.rows == len(X)
        assert machine.support_vectors.dtype.kind == "i"
        assert np.all(np.diff(machine.support_vectors) > 0)
        assert machine.support_vectors.size == machine.dual_coef.size

    def test_predict_from_given_distances_equals_its_own(self):
        X, y = make_blobs()
        model = svm_train(X, y, SvmConfig(), distances=one_block(X, X))
        probe = np.random.default_rng(3).normal(0, 3, (25, 2))
        distances = kernels.Distances([kernels.sq_distances(probe, X[:30]),
                                       kernels.sq_distances(probe, X[30:])])
        assert (svm_predict(model, distances)
                == svm_predict(model, one_block(probe, X)))

    @pytest.mark.parametrize("shapes", [
        [(3, 41)],  # one training row too many, in one block
        [(3, 39)],  # one training row short
        [(3, 30), (3, 11)],  # one training row too many
        [(3, 10), (4, 30)],  # a second block of other rows
        [(3, 10), (3, 10), (3, 20)],  # three blocks
        [],
    ], ids=["wide", "short", "long", "second-rows", "three", "none"])
    def test_predict_distances_of_other_rows_rejected(self, shapes):
        X, y = make_blobs()
        model = svm_train(X, y, SvmConfig(), distances=one_block(X, X))
        with pytest.raises(ValueError, match="distance blocks"):
            svm_predict(model, kernels.Distances(
                [np.ones(shape) for shape in shapes]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["C", "tol", "gamma"])
    def test_non_finite_config_rejected(self, field, value):
        # SMO on a NaN Gram matrix runs toward its iteration ceiling
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            SvmConfig(**{field: value})


def brute_force_weighted_f1(y_true, y_pred):
    """Independent recount: confusion tallies via pair loops per class."""
    labels = sorted(set(y_true) | set(y_pred))
    total = len(y_true)
    weighted = 0.0
    for c in labels:
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        support = sum(1 for t in y_true if t == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        weighted += (support / total) * f1
    return weighted


class TestEvaluate:
    def test_perfect(self):
        assert evaluate(["a", "b"], ["a", "b"]).weighted_f1 == 1.0

    def test_hand_case(self):
        # A and B each score F1 = 2/3
        report = evaluate(["A", "A", "B"], ["A", "B", "B"])
        assert report.weighted_f1 == pytest.approx(2 / 3)

    def test_all_wrong(self):
        assert evaluate(["a", "b"], ["b", "a"]).weighted_f1 == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(["a"], ["a", "b"])

    def test_matches_brute_force_exactly(self):
        rng = random.Random(123)
        for _ in range(300):
            n = rng.randint(1, 50)
            k = rng.randint(1, 5)
            labels = [f"c{i}" for i in range(k)]
            y_true = [rng.choice(labels) for _ in range(n)]
            y_pred = [rng.choice(labels) for _ in range(n)]
            assert evaluate(y_true, y_pred).weighted_f1 == brute_force_weighted_f1(
                y_true, y_pred
            )

    @given(
        pairs=st.lists(st.tuples(st.sampled_from("abcde"), st.sampled_from("abcdef")),
                       min_size=1, max_size=80),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_tallies_bit_for_bit(self, pairs):
        y_true = [t for t, _ in pairs]
        y_pred = [p for _, p in pairs]
        assert evaluate(y_true, y_pred).weighted_f1.hex() == evaluate_tallies(
            y_true, y_pred).hex()


def reference_save_predictions(path, y_true, y_pred):
    """The writer before labels were encoded once: one json.dumps per record."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (t, p) in enumerate(zip(y_true, y_pred)):
            fh.write(
                json.dumps(
                    {"index": i, "true_label": t, "predicted_label": p},
                    ensure_ascii=False,
                )
                + "\n"
            )


class TestPredictionsFile:
    def test_bytes_match_per_record_writer(self, tmp_path):
        labels = ["pos", 'say "hi"', "back\\slash", "não", "日本",
                  "tab\tbell\x07", "", "line\nbreak", "\u2028"]
        rng = random.Random(4)
        for n in (0, 1, 7, 200):
            y_true = [rng.choice(labels) for _ in range(n)]
            y_pred = [rng.choice(labels) for _ in range(n)]
            got, want = tmp_path / f"got{n}.jsonl", tmp_path / f"want{n}.jsonl"
            save_predictions(str(got), y_true, y_pred)
            reference_save_predictions(str(want), y_true, y_pred)
            assert got.read_bytes() == want.read_bytes()
            assert load_predictions(str(got)) == (y_true, y_pred)

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "preds.jsonl")
        y_true = ["a", "b", "a"]
        y_pred = ["a", "a", "b"]
        save_predictions(path, y_true, y_pred)
        assert load_predictions(path) == (y_true, y_pred)

    def test_sorted_by_index(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text(
            '{"index": 1, "true_label": "b", "predicted_label": "b"}\n'
            '{"index": 0, "true_label": "a", "predicted_label": "x"}\n'
        )
        assert load_predictions(str(path)) == (["a", "b"], ["x", "b"])
