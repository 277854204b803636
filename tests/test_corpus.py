import csv
import os
import random
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augbench.corpus import (
    Dataset, LabeledExample, _allocate_stratified, load_dataset, resample_subset,
    select_augmentation_targets, split, tokenize,
)
from augbench.errors import DataError

from conftest import write_csv
from oracles import (
    allocate_stratified_cursor, load_dataset_dictreader, select_targets_by_draw,
)


def make_dataset(labels):
    return Dataset(
        name="t",
        examples=tuple(
            LabeledExample(text=f"frase {i}", label=l) for i, l in enumerate(labels)
        ),
    )


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("Bom produto!") == ["bom", "produto"]

    def test_empty(self):
        assert tokenize("") == []

    def test_internal_hyphen_kept(self):
        assert tokenize("guarda-chuva  ótimo") == ["guarda-chuva", "ótimo"]

    def test_apostrophe_kept(self):
        assert tokenize("copo d'água") == ["copo", "d'água"]

    def test_no_empty_tokens(self):
        assert all(tokenize("... -- ,,, a")) and tokenize("... -- ,,,") == []


class TestLoadDataset:
    def test_basic(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["oi,a", "tchau,b", "bom,a"])
        ds = load_dataset(path)
        assert len(ds) == 3
        assert set(ds.labels()) == {"a", "b"}
        assert [ex.text for ex in ds] == ["oi", "tchau", "bom"]

    def test_blank_text_skipped_and_counted(self, tmp_path):
        rows = ["um,a", ",b", "dois,a", "tres,b", "quatro,a"]
        ds = load_dataset(write_csv(tmp_path / "d.csv", rows))
        assert len(ds) == 4
        assert ds.skipped == 1

    def test_header_only_is_error(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [])
        with pytest.raises(DataError, match="zero valid rows"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_dataset(str(tmp_path / "absent.csv"))

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x,1"], header="frase,classe")
        with pytest.raises(DataError, match="lacks column"):
            load_dataset(path)

    def test_column_mapping(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x,1"], header="frase,classe")
        ds = load_dataset(path, text_column="frase", label_column="classe")
        assert ds[0] == LabeledExample("x", "1")

    def test_quoted_fields(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ['"bom, barato",a', "ruim,b"])
        ds = load_dataset(path)
        assert ds[0].text == "bom, barato"

    def test_order_stable_across_loads(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [f"t{i},{i % 2}" for i in range(20)])
        assert load_dataset(path).examples == load_dataset(path).examples

    def test_repeated_column_last_wins(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a,x,b", "c,y"],
                         header="text,label,text")
        ds = load_dataset(path)
        assert ds.examples == (LabeledExample("b", "x"),)
        assert ds.skipped == 1  # the short row lacks the last text column

    @pytest.mark.parametrize("header", ["text,label", '"text",label'])
    def test_byte_order_mark_dropped(self, tmp_path, header):
        path = tmp_path / "bom.csv"
        path.write_text(f"\ufeff{header}\n\ufeffoi,a\n", encoding="utf-8")
        assert load_dataset(str(path)).examples == (
            LabeledExample("\ufeffoi", "a"),)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["no-bom", "bom"])
    def test_pipe_is_read_forward(self, tmp_path, bom):
        # A pipe cannot seek: the byte order mark is dropped as it is read.
        path = tmp_path / "pipe.csv"
        os.mkfifo(path)

        def feed():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"{bom}text,label\noi,a\ntchau,b\n")

        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        ds = load_dataset(str(path))
        feeder.join(timeout=10)
        assert ds.examples == (LabeledExample("oi", "a"),
                               LabeledExample("tchau", "b"))

    def test_blank_lines_are_no_rows(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["", "oi,a", "", "", "tchau,b"])
        ds = load_dataset(path)
        assert len(ds) == 2 and ds.skipped == 0


# Cells are drawn from pieces that exercise the csv dialect: separators,
# quotes, line breaks and whitespace-only values.
_cells = st.lists(
    st.sampled_from(["a", "b", "ç d", ",", '"', "\n", "\r\n", " ", "\t", ""]),
    min_size=1, max_size=4,
).map("".join)
_columns = st.sampled_from(["text", "label", "x", "", " text"])


@st.composite
def csv_files(draw):
    """(header, rows, terminator) with repeated and missing columns, short
    and long rows and blank lines (an empty row writes a blank line)."""
    header = draw(st.lists(_columns, min_size=1, max_size=5))
    if draw(st.integers(0, 4)):
        header += ["text", "label"]
        draw(st.randoms()).shuffle(header)
    rows = draw(st.lists(
        st.lists(_cells, max_size=len(header) + 2), max_size=12,
    ))
    return header, rows, draw(st.sampled_from(["\n", "\r\n"]))


def _outcome(load, path, errors):
    try:
        return load(path)
    except errors:
        return "error"


class TestLoadDatasetOracle:
    @given(csv_files())
    @settings(max_examples=300, deadline=None)
    def test_matches_dictreader(self, spec):
        header, rows, terminator = spec
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator=terminator)
                writer.writerow(header)
                writer.writerows(rows)
            got = _outcome(load_dataset, path, DataError)
            want = _outcome(load_dataset_dictreader, path, (DataError, csv.Error))
        assert got == want


class TestResampleSubset:
    def test_full_size_is_permutation(self):
        ds = make_dataset(["a", "b"] * 10)
        sub = resample_subset(ds, len(ds), seed=5)
        assert sorted(ex.text for ex in sub) == sorted(ex.text for ex in ds)

    def test_deterministic(self):
        ds = make_dataset(["a", "b", "c"] * 30)
        assert (
            resample_subset(ds, 10, seed=9).examples
            == resample_subset(ds, 10, seed=9).examples
        )

    def test_different_seeds_differ(self):
        # derived oracle: draw twice and compare directly
        ds = make_dataset(["a", "b"] * 5000)
        s1 = resample_subset(ds, 500, seed=1)
        s2 = resample_subset(ds, 500, seed=2)
        assert s1.examples != s2.examples

    def test_size_out_of_range(self):
        ds = make_dataset(["a", "b", "a", "b"])
        with pytest.raises(DataError):
            resample_subset(ds, 0, seed=1)
        with pytest.raises(DataError):
            resample_subset(ds, 5, seed=1)

    def test_label_diversity_enforced(self):
        # size-2 draws from a balanced pool are same-label half the time,
        # so the retry path must kick in for some seeds
        ds = make_dataset(["a", "b"] * 20)
        for seed in range(30):
            sub = resample_subset(ds, 2, seed=seed)
            assert len({ex.label for ex in sub}) == 2

    def test_single_label_rejected(self):
        with pytest.raises(DataError, match="fewer than two labels"):
            resample_subset(make_dataset(["a"] * 10), 2, seed=1)

    def test_retry_budget_exhausted(self):
        # 400:1 skew makes a size-2 two-label draw overwhelmingly unlikely
        ds = make_dataset(["a"] * 400 + ["b"])
        exhausted = 0
        for seed in range(8):
            try:
                resample_subset(ds, 2, seed=seed)
            except DataError:
                exhausted += 1
        assert exhausted > 0

    def test_no_duplicates(self):
        ds = make_dataset(["a", "b"] * 50)
        sub = resample_subset(ds, 30, seed=3)
        assert len({ex.text for ex in sub}) == 30


class TestSplit:
    def test_sizes_500(self):
        ds = make_dataset(["a", "b"] * 250)
        pair = split(ds, ratio=0.75, seed=1)
        assert len(pair.train) == 375
        assert len(pair.test) == 125

    def test_partition(self):
        ds = make_dataset(["a", "b", "c"] * 20)
        pair = split(ds, seed=2)
        train, test = set(pair.train_indices), set(pair.test_indices)
        assert train | test == set(range(len(ds)))
        assert not train & test

    def test_stratification_floor_small(self):
        # N=4, ratio 0.75 -> |test| = 1, so only train can hold both labels
        ds = make_dataset(["a", "a", "b", "b"])
        pair = split(ds, seed=0)
        assert set(pair.train.labels()) == {"a", "b"}
        assert len(pair.test) == 1

    def test_both_sides_covered_when_capacity_allows(self):
        ds = make_dataset(["a", "b"] * 4)
        for seed in range(8):
            pair = split(ds, seed=seed)
            assert set(pair.train.labels()) == {"a", "b"}
            assert set(pair.test.labels()) == {"a", "b"}

    def test_deterministic(self):
        ds = make_dataset(["a", "b", "c"] * 10)
        p1, p2 = split(ds, seed=7), split(ds, seed=7)
        assert p1.train_indices == p2.train_indices
        assert p1.test_indices == p2.test_indices

    def test_too_small(self):
        with pytest.raises(DataError):
            split(make_dataset(["a", "b", "a"]))

    @given(
        n_per_label=st.integers(min_value=2, max_value=40),
        n_labels=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_invariants(self, n_per_label, n_labels, seed):
        labels = [f"l{i}" for i in range(n_labels)] * n_per_label
        rng = random.Random(seed)
        rng.shuffle(labels)
        ds = make_dataset(labels)
        pair = split(ds, ratio=0.75, seed=seed)
        n = len(ds)
        assert len(pair.train) == int(0.75 * n + 0.5)
        assert len(pair.train) + len(pair.test) == n
        assert set(pair.train_indices) | set(pair.test_indices) == set(range(n))
        # every label with >=2 members keeps a foothold in train
        assert set(pair.train.labels()) == set(ds.labels())

    @given(
        counts=st.lists(st.integers(min_value=1, max_value=60),
                        min_size=1, max_size=8),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_allocation_matches_cursor(self, counts, data):
        target = data.draw(st.integers(min_value=0, max_value=sum(counts)))
        alloc = _allocate_stratified(counts, target)
        assert alloc == allocate_stratified_cursor(counts, target)
        assert sum(alloc) == target


class TestSelectTargets:
    def test_counts(self):
        ds = make_dataset(["a", "b"])
        big = make_dataset(["a", "b"] * 188)  # 376 rows
        train = Dataset(name="t", examples=big.examples[:375])
        targets = select_augmentation_targets(train, 0.2, seed=3)
        assert len(targets) == 75
        assert select_augmentation_targets(ds, 0.0, seed=3) == []

    def test_full_coverage(self):
        ds = make_dataset(["a", "b"] * 10)
        targets = select_augmentation_targets(ds, 1.0, seed=4)
        assert targets == list(range(20))

    @pytest.mark.parametrize("seed", [0, 3, 20240101, 2**63 + 5])
    def test_every_row_is_the_sorted_draw(self, seed):
        for n in range(1, 201):
            train = make_dataset(["a", "b"] * (n // 2) + ["a"] * (n % 2))
            assert (select_augmentation_targets(train, 1.0, seed)
                    == select_targets_by_draw(train, 1.0, seed))

    def test_deterministic_and_in_range(self):
        ds = make_dataset(["a", "b"] * 25)
        t1 = select_augmentation_targets(ds, 0.3, seed=5)
        t2 = select_augmentation_targets(ds, 0.3, seed=5)
        assert t1 == t2
        assert all(0 <= i < len(ds) for i in t1)
        assert len(set(t1)) == len(t1)

    @given(
        p1=st.floats(min_value=0, max_value=1),
        p2=st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_count(self, p1, p2):
        ds = make_dataset(["a", "b"] * 40)
        lo, hi = sorted([p1, p2])
        assert len(select_augmentation_targets(ds, lo, 1)) <= len(
            select_augmentation_targets(ds, hi, 1)
        )
