import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from augbench import resources
from augbench.errors import ResourceError
from augbench.resources import (
    EmbeddingStore, grid_step, load_embeddings, nearest_neighbors, parse_ppdb,
)
from oracles import (
    cosine_similarity, load_embeddings_per_element, nearest_full_sort,
    word_vector,
)


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
        assert np.array_equal(word_vector(store, "a"), [1.0, 2.0, 3.0])

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
        assert np.array_equal(word_vector(store, "a"), [1.0, 1.0])

    def test_bad_header(self, tmp_path):
        with pytest.raises(ResourceError, match="header"):
            load_embeddings(write_lines(tmp_path / "e.vec", ["banana"]))

    @pytest.mark.parametrize("header, message", [
        ("2 x", "non-integer header ['2', 'x']"),
        ("2.0 3", "non-integer header ['2.0', '3']"),
        ("2 0", "dimension 0 < 1"),
        ("2 -3", "dimension -3 < 1"),
    ])
    def test_unusable_header(self, tmp_path, header, message):
        path = write_lines(tmp_path / "e.vec", [header, "a 1 2 3"])
        with pytest.raises(ResourceError) as info:
            load_embeddings(path)
        assert str(info.value) == f"{path}: {message}"

    def test_zero_rows(self, tmp_path):
        with pytest.raises(ResourceError, match="zero valid"):
            load_embeddings(write_lines(tmp_path / "e.vec", ["1 3", "a 1 2"]))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ResourceError, match="cannot open"):
            load_embeddings(str(tmp_path / "absent.vec"))

    def test_exact_float_parse(self, tmp_path):
        path = write_lines(tmp_path / "e.vec", ["1 2", "a 0.1234567 -9e-3"])
        store = load_embeddings(path)
        assert word_vector(store, "a")[0] == 0.1234567
        assert word_vector(store, "a")[1] == -9e-3


PLAIN_VEC = ["3 2", "foo 0.1 0.2", "bar 0.3", "baz -1e-3 4", "foo 5 6"]


class TestEmbeddingFileVariants:
    def load(self, path):
        store = load_embeddings(path)
        return store.words, store.matrix.tobytes(), store.skipped

    def test_fasttext_trailing_space(self, tmp_path):
        plain = write_lines(tmp_path / "plain.vec", PLAIN_VEC)
        spaced = write_lines(tmp_path / "spaced.vec",
                             PLAIN_VEC[:1] + [r + " " for r in PLAIN_VEC[1:]])
        assert self.load(spaced) == self.load(plain)
        assert load_embeddings(spaced).words == ("foo", "baz")

    def test_crlf(self, tmp_path):
        plain = write_lines(tmp_path / "plain.vec", PLAIN_VEC)
        crlf = tmp_path / "crlf.vec"
        crlf.write_bytes("\r\n".join(PLAIN_VEC + [""]).encode("utf-8"))
        assert self.load(str(crlf)) == self.load(plain)


# Half finite numbers; the rest non-finite, not numbers, or empty.
_components = st.sampled_from(
    ["0.5", "-2", "1e-3", "0", "7.25", "-0.0", "nan", "inf", "-inf", "1e999",
     "x", "", "1,5"] + ["1"] * 7
)


@st.composite
def embedding_rows(draw):
    """(dim, lines): rows of wrong arity, non-finite or non-number
    components, duplicate words and empty words; no trailing whitespace."""
    dim = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        word = draw(st.sampled_from(["a", "b", "ç", "d", ""]))
        arity = draw(st.sampled_from([dim] * 4 + [dim - 1, dim + 1]))
        parts = draw(st.lists(_components, min_size=arity, max_size=arity))
        if parts and parts[-1] == "":
            parts[-1] = "1"
        lines.append(" ".join([word] + parts))
    return dim, lines


def _loaded(path):
    """load_embeddings as (words, matrix bytes, skipped), or its error."""
    try:
        store = load_embeddings(path)
    except ResourceError as exc:
        return "error", str(exc)
    assert store.matrix.flags.c_contiguous and store.matrix.base is None
    assert store.matrix.shape == (len(store.words), store.dim)
    return store.words, store.matrix.tobytes(), store.skipped


def _oracle(path):
    """load_embeddings_per_element in the form of _loaded."""
    try:
        words, matrix, skipped = load_embeddings_per_element(path)
    except ResourceError as exc:
        return "error", str(exc)
    return words, matrix.tobytes(), skipped


class TestLoadEmbeddingsOracle:
    @given(embedding_rows())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_element_loop(self, spec):
        dim, lines = spec
        with tempfile.TemporaryDirectory() as tmp:
            path = write_lines(Path(tmp) / "e.vec",
                               [f"{len(lines)} {dim}"] + lines)
            assert _loaded(path) == _oracle(path)

    @given(embedding_rows(), st.integers(1, 48),
           st.sampled_from([0, -2, 1, 2, 10**9]))
    @settings(max_examples=200, deadline=None)
    def test_matches_with_small_blocks_and_any_count(self, spec, block, count):
        # blocks of a line or a few, so every kind of bad row and every
        # duplicate lands in some block alone and straddles a boundary in
        # another; the header count is wrong in most draws
        dim, lines = spec
        with tempfile.TemporaryDirectory() as tmp:
            path = write_lines(Path(tmp) / "e.vec",
                               [f"{len(lines) * count} {dim}"] + lines)
            with mock.patch.object(resources, "_LOAD_BLOCK", block):
                assert _loaded(path) == _oracle(path)

    def test_duplicate_after_non_finite_first_copy(self, tmp_path):
        path = write_lines(tmp_path / "e.vec",
                           ["3 2", "a nan 1", "a 1 2", "a 3 4"])
        store = load_embeddings(path)
        words, matrix, skipped = load_embeddings_per_element(path)
        assert store.words == words == ("a",)
        assert store.matrix.tobytes() == matrix.tobytes()
        assert store.skipped == skipped == 2


# One row of each kind the loader skips, around the rows it keeps: a
# duplicate, a non-finite row, a wrong arity, a non-number, an overflow
# to inf, a blank line, a late duplicate; the last row holds digits that
# float() reads (Arabic-Indic one, an underscore).
MIXED_VEC = ["a 1 2", "b 3 4", "a 5 6", "c nan 1", "d 1", "e x 2",
             "f 1e999 0", "", "g 7 8", "b 9 9", "h \u0661 1_0"]


def _traced_load(path):
    """(store, peak traced bytes) of load_embeddings(path)."""
    tracemalloc.start()
    try:
        store = load_embeddings(path)
        return store, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLoadEmbeddingsInBulk:
    @pytest.mark.parametrize("count", [0, -3, 2, 11, 40, 10**12],
                             ids=["zero", "negative", "too-small", "exact",
                                  "too-large", "beyond-file-size"])
    def test_header_count_is_only_a_hint(self, tmp_path, count):
        path = write_lines(tmp_path / "e.vec", [f"{count} 2"] + MIXED_VEC)
        assert _loaded(path) == _oracle(path)
        store = load_embeddings(path)
        assert store.words == ("a", "b", "g", "h")
        assert store.skipped == 7
        assert word_vector(store, "h").tolist() == [1.0, 10.0]

    def test_count_beyond_file_size_allocates_no_such_matrix(self, tmp_path):
        path = write_lines(tmp_path / "e.vec",
                           ["1000000 8", "w " + " ".join(["0.5"] * 8)])
        store, peak = _traced_load(path)
        assert store.matrix.shape == (1, 8)
        assert peak < 1_000_000 * 8 * 8 / 100

    @pytest.mark.parametrize("block", [1, 6, 13, 20, 1 << 20])
    def test_skipped_rows_straddle_blocks(self, tmp_path, block):
        path = write_lines(tmp_path / "e.vec", ["11 2"] + MIXED_VEC)
        with mock.patch.object(resources, "_LOAD_BLOCK", block):
            assert _loaded(path) == _oracle(path)
            store = load_embeddings(path)
        assert store.words == ("a", "b", "g", "h")
        assert store.skipped == 7

    @pytest.mark.parametrize("block", [1024, None], ids=["small", "default"])
    def test_non_utf8_after_the_first_block(self, tmp_path, block):
        rows = [f"w{i} {i} {i}.5" for i in range(80_000)]  # about 1.3M chars
        path = tmp_path / "e.vec"
        path.write_bytes(("80001 2\n" + "\n".join(rows) + "\n").encode()
                         + b"bad \xff 1\n")
        with mock.patch.object(resources, "_LOAD_BLOCK",
                               block or resources._LOAD_BLOCK):
            got = _loaded(str(path))
        assert got == _oracle(str(path))
        assert got[0] == "error" and "not UTF-8" in got[1]

    def test_memory_is_the_matrix_and_one_block(self, tmp_path):
        # the list-of-lists load peaked at about 6x the matrix here
        rng = np.random.default_rng(5)
        values = np.round(rng.normal(0.0, 0.7, (2000, 300)), 6)
        path = write_lines(tmp_path / "e.vec", ["2000 300"] + [
            f"w{i} " + " ".join(map(repr, row))
            for i, row in enumerate(values.tolist())])
        store, peak = _traced_load(path)
        assert store.matrix.tobytes() == values.tobytes()
        assert peak <= 2 * store.matrix.nbytes + resources._LOAD_BLOCK


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


class TestEmbeddingStore:
    def test_dimension_and_grid_from_the_matrix(self):
        matrix = np.array([[0.5, -3.0, 1.0], [2.0, 0.0, 0.25]])
        store = EmbeddingStore(words=("a", "b"), matrix=matrix)
        assert store.dim == 3
        assert store.grid_step == grid_step(matrix) == 2.0 ** (2 - 24)

    @pytest.mark.parametrize("top", [1e160, 1e-170])
    def test_matrix_outside_the_grid_bounds_rejected(self, top):
        with pytest.raises(ResourceError, match="outside float64"):
            EmbeddingStore(words=("a", "b"), matrix=np.array([[top, 0.0], [0.0, top]]))

    def test_scaled_norms_and_similarities_change_no_bit_in_the_normal_range(self):
        rng = np.random.default_rng(8)
        matrix = rng.normal(size=(2_000, 24)) * 2.0 ** rng.integers(-200, 200, (2_000, 1))
        words = tuple(f"w{i}" for i in range(2_000))
        store = EmbeddingStore(words=words, matrix=matrix)
        norms = np.linalg.norm(matrix, axis=1)
        assert store._norms.tobytes() == norms.tobytes()
        for qi in (0, 1, 1_999):
            sims = (matrix @ matrix[qi]) / (norms * norms[qi])
            for word, sim in nearest_neighbors(words[qi], 50, store):
                assert sim == sims[words.index(word)]

    def test_row_of_tiny_entries_has_neighbours(self, tmp_path):
        path = write_lines(tmp_path / "e.vec", [
            "4 2", "a 1.0 0.5", "b 0.5 1.0", "c 1e-170 2e-170", "d -1.0 0.2"])
        store = load_embeddings(path)
        assert [w for w, _ in nearest_neighbors("c", 3, store)] == ["b", "a", "d"]
        near_a = dict(nearest_neighbors("a", 3, store))
        assert near_a["c"] == pytest.approx(0.8, rel=1e-12)
        assert near_a["c"] == nearest_neighbors("c", 3, store)[1][1]

    def test_row_of_subnormal_entries_keeps_every_cosine_within_one(self):
        # c is b scaled into the subnormal range, exactly: c = 2^-1074 x
        # (6072, 12144) and b = (0.5, 1.0), so each cosine of c is b's
        store = EmbeddingStore(words=("a", "b", "c", "d"), matrix=np.array(
            [[1.0, 0.5], [0.5, 1.0], [3e-320, 6e-320], [-1.0, 0.2]]))
        for word in "abcd":
            for _, sim in nearest_neighbors(word, 3, store):
                assert abs(sim) <= 1.0 + 4e-16
        near_c = dict(nearest_neighbors("c", 3, store))
        near_b = dict(nearest_neighbors("b", 3, store))
        assert near_c["b"] == pytest.approx(1.0, abs=4e-16)
        assert near_c["a"] == pytest.approx(near_b["a"], abs=4e-16)
        assert near_c["d"] == pytest.approx(near_b["d"], abs=4e-16)
        assert dict(nearest_neighbors("d", 3, store))["c"] == pytest.approx(
            near_b["d"], abs=4e-16)


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
        store = EmbeddingStore(words=words, matrix=matrix)
        out = nearest_neighbors("q", 3, store)
        assert [w for w, _ in out] == ["aa", "mm", "zz"]

    def test_zero_vector_words_excluded(self):
        words = ("q", "z", "ok")
        matrix = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        store = EmbeddingStore(words=words, matrix=matrix)
        assert all(w != "z" for w, _ in nearest_neighbors("q", 5, store))

    def test_zero_vector_query(self):
        words = ("q", "a")
        matrix = np.array([[0.0, 0.0], [1.0, 0.0]])
        store = EmbeddingStore(words=words, matrix=matrix)
        assert nearest_neighbors("q", 2, store) == []

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        words = tuple(f"w{i}" for i in range(40))
        matrix = rng.normal(size=(40, 6))
        store = EmbeddingStore(words=words, matrix=matrix)
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

    def test_one_long_word_costs_no_array_as_wide_as_it(self):
        # An array of every word is 4 bytes x the longest word per word:
        # about 320 MB here, against a 2.6 MB matrix.
        words = tuple(f"w{i}" for i in range(40_000)) + ("x" * 2_000,)
        matrix = np.random.default_rng(3).normal(size=(len(words), 8))
        tracemalloc.start()
        try:
            store = EmbeddingStore(words=words, matrix=matrix)
            out = nearest_neighbors("w0", 5, store)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == 5
        assert peak < 16 * 2**20


@st.composite
def grid_stores(draw):
    """A store whose vectors sit on a small integer grid, so that many
    similarities tie (at the k-th place too) and some vectors are zero."""
    words = draw(st.lists(st.text("abc", min_size=1, max_size=3),
                          min_size=1, max_size=14, unique=True))
    dim = draw(st.integers(1, 3))
    matrix = draw(hnp.arrays(np.float64, (len(words), dim),
                             elements=st.integers(-2, 2).map(float)))
    return EmbeddingStore(words=tuple(words), matrix=matrix)


class TestNearestNeighborsOracle:
    @given(grid_stores(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_full_sort(self, store, data):
        word = data.draw(st.sampled_from(store.words))
        k = data.draw(st.integers(1, len(store) + 2))
        assert nearest_neighbors(word, k, store) == list(
            nearest_full_sort(word, k, store))
