import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from augbench.errors import ResourceError
from augbench.resources import (
    EmbeddingStore, load_embeddings, nearest_neighbors, parse_ppdb,
)
from oracles import cosine_similarity, nearest_full_sort


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestParsePpdb:
    def test_basic_record(self, tmp_path):
        path = write_lines(tmp_path / "p.txt",
                           ["[NN] ||| carro ||| automóvel ||| f=1 ||| x"])
        m = parse_ppdb(path)
        assert m.candidates("carro") == ("automóvel",)

    def test_multiword_target_skipped(self, tmp_path):
        path = write_lines(tmp_path / "p.txt", [
            "[X] ||| bom ||| muito bom ||| f ||| x",
            "[X] ||| bom ||| otimo ||| f ||| x",
        ])
        m = parse_ppdb(path)
        assert m.candidates("bom") == ("otimo",)
        assert m.skipped == 1

    def test_duplicates_removed(self, tmp_path):
        path = write_lines(tmp_path / "p.txt", [
            "[X] ||| carro ||| automovel ||| a ||| x",
            "[X] ||| carro ||| automovel ||| b ||| x",
        ])
        assert parse_ppdb(path).candidates("carro") == ("automovel",)

    def test_self_mapping_dropped(self, tmp_path):
        path = write_lines(tmp_path / "p.txt", [
            "[X] ||| bom ||| bom ||| a ||| x",
            "[X] ||| bom ||| otimo ||| a ||| x",
        ])
        m = parse_ppdb(path)
        assert "bom" not in m.candidates("bom")

    def test_lowercased(self, tmp_path):
        path = write_lines(tmp_path / "p.txt", ["[X] ||| Carro ||| AUTO ||| a ||| x"])
        assert parse_ppdb(path).candidates("carro") == ("auto",)

    def test_malformed_counted(self, tmp_path):
        path = write_lines(tmp_path / "p.txt", [
            "not a record",
            "[X] ||| bom ||| otimo ||| a ||| x",
        ])
        assert parse_ppdb(path).skipped == 1

    def test_zero_records_error(self, tmp_path):
        path = write_lines(tmp_path / "p.txt", ["junk", "more junk"])
        with pytest.raises(ResourceError, match="zero usable"):
            parse_ppdb(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ResourceError, match="cannot open"):
            parse_ppdb(str(tmp_path / "absent.txt"))

    def test_symmetrize(self, tmp_path):
        path = write_lines(tmp_path / "p.txt", ["[X] ||| a ||| b ||| s ||| x"])
        m = parse_ppdb(path, symmetrize=True)
        assert m.candidates("b") == ("a",)

    def test_idempotent(self, tmp_path):
        path = write_lines(tmp_path / "p.txt", [
            "[X] ||| carro ||| automovel ||| a ||| x",
            "[X] ||| bom ||| otimo ||| a ||| x",
        ])
        assert parse_ppdb(path).entries == parse_ppdb(path).entries


class TestLoadEmbeddings:
    def test_basic(self, tmp_path):
        path = write_lines(tmp_path / "e.vec", ["2 3", "a 1 2 3", "b 4 5 6"])
        store = load_embeddings(path)
        assert store.dim == 3
        assert len(store) == 2
        assert np.array_equal(store.vector("a"), [1.0, 2.0, 3.0])

    def test_wrong_arity_skipped(self, tmp_path):
        path = write_lines(tmp_path / "e.vec", ["2 3", "a 1 2", "b 4 5 6"])
        store = load_embeddings(path)
        assert len(store) == 1
        assert store.skipped == 1

    def test_non_finite_skipped(self, tmp_path):
        path = write_lines(tmp_path / "e.vec", ["2 2", "a nan 1", "b 1 2"])
        store = load_embeddings(path)
        assert len(store) == 1

    def test_duplicate_first_wins(self, tmp_path):
        path = write_lines(tmp_path / "e.vec", ["2 2", "a 1 1", "a 9 9"])
        store = load_embeddings(path)
        assert np.array_equal(store.vector("a"), [1.0, 1.0])

    def test_bad_header(self, tmp_path):
        with pytest.raises(ResourceError, match="header"):
            load_embeddings(write_lines(tmp_path / "e.vec", ["banana"]))

    def test_zero_rows(self, tmp_path):
        with pytest.raises(ResourceError, match="zero valid"):
            load_embeddings(write_lines(tmp_path / "e.vec", ["1 3", "a 1 2"]))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ResourceError, match="cannot open"):
            load_embeddings(str(tmp_path / "absent.vec"))

    def test_exact_float_parse(self, tmp_path):
        path = write_lines(tmp_path / "e.vec", ["1 2", "a 0.1234567 -9e-3"])
        store = load_embeddings(path)
        assert store.vector("a")[0] == 0.1234567
        assert store.vector("a")[1] == -9e-3


class TestCosine:
    def test_self_similarity_is_one(self):
        x = np.array([1.2, -3.4, 0.5])
        assert cosine_similarity(x, x) == pytest.approx(1.0)

    def test_symmetric(self):
        x = np.array([1.0, 2.0])
        y = np.array([-2.0, 0.5])
        assert cosine_similarity(x, y) == cosine_similarity(y, x)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.zeros(2), np.ones(2))

    @given(hnp.arrays(np.float64, 4,
                      elements=st.floats(-10, 10, allow_nan=False)))
    @settings(max_examples=100, deadline=None)
    def test_self_similarity_property(self, x):
        if np.linalg.norm(x) == 0:
            return
        assert math.isclose(cosine_similarity(x, x), 1.0, rel_tol=1e-9)


class TestNearestNeighbors:
    def test_forced_top1(self, tiny_store):
        # brute-force oracle over the 2 candidates: b at cos=1, c at cos=0
        assert nearest_neighbors("a", 1, tiny_store) == [("b", 1.0)]

    def test_unknown_word(self, tiny_store):
        assert nearest_neighbors("zzz", 3, tiny_store) == []

    def test_exhaustive_k(self, tiny_store):
        out = nearest_neighbors("a", 10, tiny_store)
        assert [w for w, _ in out] == ["b", "c"]
        sims = [s for _, s in out]
        assert sims == sorted(sims, reverse=True)

    def test_query_excluded(self, tiny_store):
        assert all(w != "a" for w, _ in nearest_neighbors("a", 5, tiny_store))

    def test_ties_lexicographic(self):
        words = ("q", "zz", "aa", "mm")
        matrix = np.array([[1.0, 0.0]] * 4)
        store = EmbeddingStore(dim=2, words=words, matrix=matrix)
        out = nearest_neighbors("q", 3, store)
        assert [w for w, _ in out] == ["aa", "mm", "zz"]

    def test_zero_vector_words_excluded(self):
        words = ("q", "z", "ok")
        matrix = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        store = EmbeddingStore(dim=2, words=words, matrix=matrix)
        assert all(w != "z" for w, _ in nearest_neighbors("q", 5, store))

    def test_zero_vector_query(self):
        words = ("q", "a")
        matrix = np.array([[0.0, 0.0], [1.0, 0.0]])
        store = EmbeddingStore(dim=2, words=words, matrix=matrix)
        assert nearest_neighbors("q", 2, store) == []

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        words = tuple(f"w{i}" for i in range(40))
        matrix = rng.normal(size=(40, 6))
        store = EmbeddingStore(dim=6, words=words, matrix=matrix)
        for k in (5, 5, 39, 5):  # repeats are served from the store's memo
            got = nearest_neighbors("w0", k, store)
            expected = sorted(
                (
                    (w, cosine_similarity(matrix[0], matrix[i]))
                    for i, w in enumerate(words) if w != "w0"
                ),
                key=lambda ws: (-ws[1], ws[0]),
            )[:k]
            assert [w for w, _ in got] == [w for w, _ in expected]
            for (_, s1), (_, s2) in zip(got, expected):
                assert s1 == pytest.approx(s2, rel=1e-12)

    def test_repeated_call_returns_equal_independent_list(self, tiny_store):
        first = nearest_neighbors("a", 2, tiny_store)
        expected = list(first)
        first.append(("zzz", 9.0))
        first[0] = ("c", -1.0)
        second = nearest_neighbors("a", 2, tiny_store)
        assert second == expected
        assert second is not first


@st.composite
def grid_stores(draw):
    """A store whose vectors sit on a small integer grid, so that many
    similarities tie (at the k-th place too) and some vectors are zero."""
    words = draw(st.lists(st.text("abc", min_size=1, max_size=3),
                          min_size=1, max_size=14, unique=True))
    dim = draw(st.integers(1, 3))
    matrix = draw(hnp.arrays(np.float64, (len(words), dim),
                             elements=st.integers(-2, 2).map(float)))
    return EmbeddingStore(dim=dim, words=tuple(words), matrix=matrix)


class TestNearestNeighborsOracle:
    @given(grid_stores(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_full_sort(self, store, data):
        word = data.draw(st.sampled_from(store.words))
        k = data.draw(st.integers(1, len(store) + 2))
        assert nearest_neighbors(word, k, store) == list(
            nearest_full_sort(word, k, store))
