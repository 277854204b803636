import collections
import hashlib
import json
import os
import random
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augbench import providers, runner
from augbench.corpus import Dataset, LabeledExample
from augbench.eda import EdaConfig, eda_augment
from augbench.errors import (
    ConfigError, DataError, EmptySentenceError, TransportError,
)
from augbench.pipeline import (
    augment_training_set, back_translate, is_degenerate,
    per_sentence, sequential_augment,
)
from augbench.providers import (
    DictTranslationProvider, HttpTranslationProvider,
    IdentityTranslationProvider, ProviderSpec, TranslationCache,
    contextual_request, make_contextual_provider, make_translation_provider,
    neighbor_stage, parse_contextual_response,
)
from augbench.runner import provider_spec

from oracles import (
    back_translate_per_sentence, load_translation_cache_keyed,
    load_translation_cache_per_line, synonym_map_from_dict, translate_per_token,
)


def back_translate_one(ex, provider, pivot, cache):
    """The one row back_translate generates for ``ex`` alone."""
    [row], skipped = back_translate([ex], provider, pivot, cache)
    assert skipped == []
    return row


def list_stage(table):
    """Test double: a Syn stage from a fixed word -> candidates table."""
    return lambda tokens, i: [c for c in table.get(tokens[i], [])
                              if c != tokens[i]]


class TestSequentialAugment:
    def test_no_candidates_leaves_text(self):
        ex = LabeledExample("bom produto", "pos")
        out = sequential_augment(ex, [list_stage({})], 0.5, random.Random(1))
        assert out.text == "bom produto"
        assert out.label == "pos"

    def test_single_eligible_position(self):
        ex = LabeledExample("bom produto", "pos")
        stage = list_stage({"bom": ["otimo"]})
        out = sequential_augment(ex, [stage], 0.5, random.Random(1))
        assert out.text == "otimo produto"

    def test_two_stage_composition(self):
        ex = LabeledExample("a", "x")
        p1 = list_stage({"a": ["b"]})
        p2 = list_stage({"b": ["c"]})
        out = sequential_augment(ex, [p1, p2], 1.0, random.Random(1))
        assert out.text == "c"

    def test_stage_order_matters(self):
        ex = LabeledExample("a", "x")
        p1 = list_stage({"a": ["b"]})
        p2 = list_stage({"b": ["c"]})
        out = sequential_augment(ex, [p2, p1], 1.0, random.Random(1))
        assert out.text == "b"

    def test_budget_caps_replacements(self):
        ex = LabeledExample("a a a a a a a a a a", "x")
        stage = list_stage({"a": ["z"]})
        out = sequential_augment(ex, [stage], 0.2, random.Random(3))
        assert out.text.split().count("z") == 2

    def test_empty_sentence_rejected(self):
        with pytest.raises(EmptySentenceError):
            sequential_augment(
                LabeledExample("!!!", "x"), [list_stage({})], 0.5,
                random.Random(1),
            )

    def test_validation(self):
        ex = LabeledExample("oi", "x")
        with pytest.raises(ValueError):
            sequential_augment(ex, [], 0.5, random.Random(1))
        with pytest.raises(ValueError):
            sequential_augment(ex, [list_stage({})], 0.0, random.Random(1))

    def test_deterministic(self):
        ex = LabeledExample("bom carro bom barco", "x")
        stage = list_stage({"bom": ["otimo", "legal"]})
        outs = {
            sequential_augment(ex, [stage], 0.5, random.Random(8)).text
            for _ in range(5)
        }
        assert len(outs) == 1

    def test_ppdb_and_embedding_stages(self, synmap, tiny_store):
        ex = LabeledExample("bom a", "x")
        stages = [
            lambda tokens, i: synmap.candidates(tokens[i]),
            neighbor_stage(tiny_store, 1),
        ]
        out = sequential_augment(ex, stages, 1.0, random.Random(1))
        assert out.label == "x"
        assert out.text != ""


class TestBackTranslate:
    def test_identity_mock_degenerate(self):
        provider = IdentityTranslationProvider()
        cache = TranslationCache()
        ex = LabeledExample("bom produto", "pos")
        out = back_translate_one(ex, provider, "en", cache)
        assert out.text == ex.text
        assert is_degenerate(ex.text, out.text)

    def test_reversible_dictionary_round_trip(self):
        mapping = {"bom": "good", "produto": "product"}
        provider = DictTranslationProvider(mapping, source_lang="pt")
        out = back_translate_one(
            LabeledExample("bom produto", "pos"), provider, "en",
            TranslationCache(),
        )
        assert out.text == "bom produto"

    def test_lossy_dictionary_canonicalizes(self):
        # both words hit "good"; the inverse keeps the first source seen
        mapping = {"bom": "good", "otimo": "good"}
        provider = DictTranslationProvider(mapping, source_lang="pt")
        out = back_translate_one(
            LabeledExample("otimo produto", "pos"), provider, "en",
            TranslationCache(),
        )
        assert out.text == "bom produto"

    @given(st.lists(st.sampled_from(
        ["bom", "otimo", "good", "produto", "product", "novo", "", "\t", "é"]),
        max_size=8), st.sampled_from(["pt", "en"]))
    @settings(max_examples=200, deadline=None)
    def test_dictionary_translate_matches_per_token_oracle(self, tokens, source):
        provider = DictTranslationProvider(
            {"bom": "good", "otimo": "good", "produto": "product"},
            source_lang="pt",
        )
        text = " ".join(tokens)
        assert provider.translate(text, source, "x") == translate_per_token(
            provider, text, source)

    def test_label_unchanged(self):
        out = back_translate_one(
            LabeledExample("oi", "neg"), IdentityTranslationProvider(), "en",
            TranslationCache(),
        )
        assert out.label == "neg"

    def test_blank_text_is_skipped_without_a_request(self):
        provider = IdentityTranslationProvider()
        assert back_translate(
            [LabeledExample("  ", "x")], provider, "en", TranslationCache(),
        ) == ([], [0])
        assert provider.request_count == 0

    def test_cache_round_trip_zero_requests(self):
        provider = IdentityTranslationProvider()
        cache = TranslationCache()
        ex = LabeledExample("bom produto barato", "pos")
        back_translate_one(ex, provider, "en", cache)
        first = provider.request_count
        assert first == 2  # two hops
        back_translate_one(ex, provider, "en", cache)
        assert provider.request_count == first

    def test_cache_persists_to_file(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        provider = IdentityTranslationProvider()
        ex = LabeledExample("bom", "x")
        cache = TranslationCache(path)
        back_translate_one(ex, provider, "en", cache)
        cache.close()
        # a fresh cache instance reloads the file and serves hits
        provider2 = IdentityTranslationProvider()
        cache2 = TranslationCache(path)
        back_translate_one(ex, provider2, "en", cache2)
        cache2.close()
        assert provider2.request_count == 0

    def test_truncated_cache_line_is_data_error(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = TranslationCache(str(path))
        cache.put("p", "pt", "en", "bom", "good")
        cache.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"provider": "p", "sour')
        with pytest.raises(DataError, match="malformed cache record"):
            TranslationCache(str(path))

    @pytest.mark.parametrize("shared", ["one cache", "one file"])
    def test_cache_keeps_each_dictionarys_answers(self, tmp_path, shared):
        # bom -> good -> bom through d1, and bom -> good -> otimo through d2,
        # whose inverse keeps its first source for good
        d1 = DictTranslationProvider({"bom": "good"})
        d2 = DictTranslationProvider({"otimo": "good", "bom": "good"})
        ex = LabeledExample("bom", "pos")
        assert back_translate_one(ex, d2, "en", TranslationCache()).text == "otimo"
        path = str(tmp_path / "cache.jsonl")
        first = TranslationCache(path)
        assert back_translate_one(ex, d1, "en", first).text == "bom"
        second = first if shared == "one cache" else TranslationCache(path)
        assert back_translate_one(ex, d2, "en", second).text == "otimo"
        first.close()
        second.close()

    def test_records_of_the_kind_only_name_are_refilled(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        old = TranslationCache(str(path))
        old.put("dict", "pt", "en", "bom", "good")
        old.put("dict", "en", "pt", "good", "bom")
        old.close()
        provider = DictTranslationProvider({"otimo": "good", "bom": "good"})
        cache = TranslationCache(str(path))
        out = back_translate_one(LabeledExample("bom", "x"), provider, "en", cache)
        cache.close()
        assert out.text == "otimo" and provider.request_count == 2

    def test_dictionary_name_is_the_digest_of_its_entries(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("bom\tgood\nsem tab\nbom\tfine\notimo\tgood\n",
                        encoding="utf-8")
        digest = hashlib.sha256(b"bom\tgood\notimo\tgood\n").hexdigest()[:16]
        loaded = DictTranslationProvider.from_file(str(path))
        built = DictTranslationProvider({"bom": "good", "otimo": "good"})
        assert loaded.name == built.name == f"dict:{digest}"
        assert DictTranslationProvider({"otimo": "good", "bom": "good"}).name \
            != built.name  # the order of the entries is part of the inverse

    def test_http_name_is_the_url_without_the_key(self, monkeypatch):
        monkeypatch.setenv("FAKE_KEY_ENV", "super-secret")
        provider = http_translator("http://127.0.0.1:9/t",
                                   key_env="FAKE_KEY_ENV")
        assert isinstance(provider, HttpTranslationProvider)
        assert provider.name == "http:http://127.0.0.1:9/t"
        assert IdentityTranslationProvider().name == "identity"

    def test_cache_hits_byte_identical(self):
        cache = TranslationCache()
        cache.put("p", "pt", "en", "bom", "good")
        assert cache.get("p", "pt", "en", "bom") == "good"


class CountingProvider(DictTranslationProvider):
    """A dictionary provider that counts its calls by (source, target, text)."""

    def __init__(self, mapping, fail_at=None):
        super().__init__(mapping)
        self.calls = collections.Counter()
        self.fail_at = fail_at  # the 1-based call that raises TransportError

    def translate(self, text, source, target):
        if self.request_count + 1 == self.fail_at:
            raise TransportError("translator down")
        self.calls[source, target, text] += 1
        return super().translate(text, source, target)


# Sentences of a few words with repeats, blanks and a non-ASCII word; the
# two dictionaries share "good", so their round trips differ.
_bt_texts = st.lists(st.sampled_from(["bom", "otimo", "produto", "novo", "é",
                                      "good", " "]), max_size=3).map(" ".join)
_D1 = {"bom": "good", "produto": "product"}
_D2 = {"otimo": "good", "bom": "good", "novo": "new"}


class TestBackTranslateInHops:
    """back_translate's two hops per cell against the per-sentence loop."""

    @given(texts=st.lists(_bt_texts, min_size=1, max_size=16),
           warm=st.integers(0, 16), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_per_sentence_loop(self, texts, warm, data):
        train = Dataset("t", tuple(
            LabeledExample(text, f"l{i % 3}") for i, text in enumerate(texts)))
        targets = data.draw(st.permutations(range(len(texts))))[:data.draw(
            st.integers(0, len(texts)))]
        outcomes = []
        with tempfile.TemporaryDirectory() as tmp:
            for name, translate in [("hops", back_translate),
                                    ("per-sentence", back_translate_per_sentence)]:
                path = os.path.join(tmp, name + ".jsonl")
                open(path, "w").close()  # a cell with no miss writes nothing
                cache = TranslationCache(path)
                made = []
                # a first cell warms the cache, then two dictionaries share it
                for mapping, cell in [(_D1, targets[:warm]), (_D1, targets),
                                      (_D2, targets)]:
                    provider = DictTranslationProvider(mapping)
                    made.append(augment_training_set(train, cell, lambda exs: (
                        translate(exs, provider, "en", cache))))
                cache.close()
                with open(path, encoding="utf-8") as fh:
                    outcomes.append((made, sorted(fh)))
        assert outcomes[0] == outcomes[1]

    def test_each_distinct_text_goes_out_once_per_direction(self):
        provider = CountingProvider({"bom": "good", "otimo": "good"})
        texts = ["bom dia", "otimo dia", "bom dia", "  ", "dia", "otimo dia"]
        rows, skipped = back_translate([LabeledExample(t, "x") for t in texts],
                                       provider, "en", TranslationCache())
        assert [row.text for row in rows] == [
            "bom dia", "bom dia", "bom dia", "dia", "bom dia"]
        assert skipped == [3]
        # once each, the first seen first
        assert list(provider.calls.items()) == [
            (("pt", "en", "bom dia"), 1), (("pt", "en", "otimo dia"), 1),
            (("pt", "en", "dia"), 1), (("en", "pt", "good dia"), 1),
            (("en", "pt", "dia"), 1)]

    @pytest.mark.parametrize("k", range(1, 7))
    def test_outage_at_call_k_leaves_the_records_before_it(self, tmp_path, k):
        path = str(tmp_path / "cache.jsonl")
        provider = CountingProvider({"bom": "good"}, fail_at=k)
        cache = TranslationCache(path)
        texts = ["bom dia", "otimo", "dia bom", "bom dia"]  # six distinct calls
        with pytest.raises(TransportError):
            back_translate([LabeledExample(t, "x") for t in texts],
                           provider, "en", cache)
        fresh = TranslationCache(path)  # before close
        cache.close()
        assert len(fresh) == k - 1 == sum(provider.calls.values())
        for source, target, text in provider.calls:
            assert fresh.get(provider.name, source, target, text) is not None


def test_alternating_file_loads_the_keyed_tables(tmp_path):
    # 40,000 sentences, each a record to the pivot and one back, as every
    # cache file written one sentence at a time holds them
    path = str(tmp_path / "cache.jsonl")
    rng = random.Random(5)
    words = [f"palavra{i}" for i in range(2_000)]
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(40_000):
            text = " ".join(rng.choices(words, k=12)) + f" {i}"
            for source, target, a, b in [("pt", "en", text, text.upper()),
                                         ("en", "pt", text.upper(), text)]:
                fh.write(_line({"provider": "dict:0123456789abcdef",
                                "source": source, "target": target,
                                "text": a, "translated": b}) + "\n")
    assert _load_cache(path) == load_translation_cache_keyed(path)


def reference_put(path, provider, source, target, text, translated):
    """The cache writer that opened the file for every record; the held
    append handle must write the same bytes."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(
            json.dumps(
                {"provider": provider, "source": source, "target": target,
                 "text": text, "translated": translated},
                ensure_ascii=False,
            )
            + "\n"
        )


AWKWARD_TEXTS = ['diz "oi"', "barra\\invertida", "ação à côté 日本", "com\ttab",
                 "duas\nlinhas", "sep\u2028arador", ""]


class TestTranslationCacheFile:
    def test_bytes_equal_open_per_put_writer(self, tmp_path):
        ref, got = tmp_path / "ref.jsonl", tmp_path / "got.jsonl"
        cache = TranslationCache(str(got))
        for text, translated in zip(AWKWARD_TEXTS, reversed(AWKWARD_TEXTS)):
            cache.put("p", "pt", "en", text, translated)
            reference_put(str(ref), "p", "pt", "en", text, translated)
        cache.close()
        assert got.read_bytes() == ref.read_bytes()

    def test_fresh_cache_sees_records_before_close(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = TranslationCache(path)
        for text in AWKWARD_TEXTS:
            cache.put("p", "pt", "en", text, text + "!")
        fresh = TranslationCache(path)
        cache.close()
        assert len(fresh) == len(AWKWARD_TEXTS)
        for text in AWKWARD_TEXTS:
            assert fresh.get("p", "pt", "en", text) == text + "!"

    def test_put_after_close_appends(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = TranslationCache(str(path))
        cache.put("p", "pt", "en", "um", "one")
        cache.close()
        cache.put("p", "pt", "en", "dois", "two")
        cache.close()
        assert len(path.read_bytes().splitlines()) == 2
        reloaded = TranslationCache(str(path))
        assert reloaded.get("p", "pt", "en", "um") == "one"
        assert reloaded.get("p", "pt", "en", "dois") == "two"


def _record(text, translated="t", **extra):
    return {"provider": "p", "source": "pt", "target": "en", "text": text,
            "translated": translated, **extra}


def _line(rec, ensure_ascii=False):
    return json.dumps(rec, ensure_ascii=ensure_ascii)


def _cache_outcome(load, path):
    try:
        return "ok", load(path)
    except DataError as exc:
        return "error", str(exc)


def _load_cache(path):
    """A loaded cache's tables as one (provider, source, target, text) dict."""
    return {(*direction, text): translated for direction, table
            in TranslationCache(path)._tables.items()
            for text, translated in table.items()}


_texts = st.sampled_from(AWKWARD_TEXTS + ["bom", "x\u2028y", "fim\r"])
_valid = st.builds(
    _line,
    st.builds(_record, _texts, st.one_of(
        _texts, st.just([{}, {}]), st.just({"a": [1]}), st.integers())),
    st.booleans(),
)
_cache_lines = st.one_of(
    _valid,
    st.sampled_from(["", "  \t", " \u2028 "]),  # blank after strip()
    st.builds(lambda a, b: a + ", " + b, _valid, _valid),  # two on one line
    st.sampled_from([  # not an object, or not a usable record
        "[1, 2]", '"text"', "5", "null", '{"provider": "p"}',
        _line(_record(["a"])), _line(_record("x", extra=[1])),
        "{} {}", "\ufeff" + _line(_record("bom")),
    ]),
)


@st.composite
def _cache_files(draw):
    """Cache file bytes with blank, duplicate, split, two-record, non-object
    and malformed lines, LF or CRLF line ends, and maybe a truncated end."""
    lines = []
    for line in draw(st.lists(_cache_lines, max_size=25)):
        split = draw(st.integers(0, 5))
        if split == 0 and len(line) > 1:  # in two, anywhere
            cut = draw(st.integers(1, len(line) - 1))
            lines += [line[:cut], line[cut:]]
        elif split == 1 and ", " in line:  # in two, between fields
            cut = draw(st.sampled_from(
                [i for i in range(len(line)) if line.startswith(", ", i)]))
            lines += [line[:cut], line[cut + 2:]]
        else:
            lines.append(line)
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"]))
                   for line in lines)
    if draw(st.booleans()):
        text += draw(_valid)[:draw(st.integers(1, 30))]  # truncated last line
    return text.encode("utf-8")


class TestTranslationCacheLoad:
    """The block-wise load against one json.loads per line."""

    @given(data=_cache_files(), block=st.integers(1, 400))
    @settings(max_examples=400, deadline=None)
    def test_matches_per_line_load(self, data, block):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cache.jsonl")
            with open(path, "wb") as fh:
                fh.write(data)
            with mock.patch.object(providers, "_CACHE_BLOCK", block):
                got = _cache_outcome(_load_cache, path)
            assert got == _cache_outcome(load_translation_cache_per_line, path)

    # Each case opens with a line holding two records. The lines that
    # follow hold one record between them, so the block has one record
    # per line on the count alone; a check of the bulk load must see it.
    _PAIR = _line(_record("a")) + ", " + _line(_record("b"))
    _HEAD = '{"provider": "p", "source": "pt", "target": "en", "text": "c"'

    @pytest.mark.parametrize("rest", [
        [],  # no compensation: the count differs
        [_HEAD, '"translated": "y"}'],  # split between two fields
        [_HEAD + ', "translated": "ab', '{cd"}'],  # split inside a string
        [_HEAD + ', "translated": [{}', '{}]}'],  # inside an array
        [_HEAD + ', "translated": "y", "more": [{}', '{}]}'],
    ], ids=["count", "fields", "string", "array", "extra-field-array"])
    def test_one_record_per_line_is_checked(self, tmp_path, rest):
        path = tmp_path / "cache.jsonl"
        path.write_text("\n".join([self._PAIR, *rest]) + "\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=r"line 1: malformed cache record"):
            TranslationCache(str(path))

    def _records_file(self, tmp_path, bad_line, bad):
        lines = [_line(_record(f"w{i}")) for i in range(1, 61)]
        lines[bad_line - 1] = bad
        path = tmp_path / "cache.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_error_names_line_in_middle_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(providers, "_CACHE_BLOCK", 500)  # about 6 lines
        path = self._records_file(tmp_path, 37, '{"provider": "p", "sour')
        with pytest.raises(DataError) as caught:
            TranslationCache(path)
        assert str(caught.value).startswith(
            f"{path}: line 37: malformed cache record: JSONDecodeError(")

    def test_error_names_truncated_last_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(providers, "_CACHE_BLOCK", 500)
        path = tmp_path / "cache.jsonl"
        lines = [_line(_record(f"w{i}")) for i in range(1, 61)]
        path.write_text("\n".join(lines) + "\n" + lines[0][:25],
                        encoding="utf-8")
        with pytest.raises(DataError, match=f"{path}: line 61: malformed"):
            TranslationCache(str(path))

    def test_blank_lines_count_in_line_numbers(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(_line(_record("a")) + "\n\n  \r\n[1]\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match="line 4: malformed cache record: "
                                            "TypeError"):
            TranslationCache(str(path))

    def test_non_utf8_is_data_error(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_bytes(_line(_record("a")).encode() + b"\n\xff\xfe\n")
        with pytest.raises(DataError, match="cache file is not UTF-8"):
            TranslationCache(str(path))

    def test_last_record_wins_across_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(providers, "_CACHE_BLOCK", 100)
        path = tmp_path / "cache.jsonl"
        path.write_text("".join(
            _line(_record("a", translated=str(i))) + "\n" for i in range(20)
        ), encoding="utf-8")
        cache = TranslationCache(str(path))
        assert len(cache) == 1 and cache.get("p", "pt", "en", "a") == "19"

    @pytest.mark.parametrize("extra", [{}, {"more": "x"}],
                             ids=["block", "per-line"])
    def test_one_table_per_direction(self, tmp_path, extra):
        # a sixth field sends the block to the line-by-line load
        path = tmp_path / "cache.jsonl"
        path.write_text("".join(_line({
            **_record(f"w{i}"), "provider": ("dict:ab", "http:cd")[i % 2],
            "source": ("pt", "en")[i % 3 > 0], "target": ("en", "pt")[i % 3 > 0],
            **(extra if i == 4 else {}),
        }) + "\n" for i in range(12)), encoding="utf-8")
        tables = TranslationCache(str(path))._tables
        assert sorted(tables) == [
            ("dict:ab", "en", "pt"), ("dict:ab", "pt", "en"),
            ("http:cd", "en", "pt"), ("http:cd", "pt", "en")]
        assert sorted(map(len, tables.values())) == [2, 2, 4, 4]

    @pytest.mark.parametrize("field, value", [
        ("translated", 5), ("text", 7), ("provider", 5), ("target", None)])
    def test_field_not_a_string_is_data_error(self, tmp_path, field, value):
        path = tmp_path / "cache.jsonl"
        path.write_text(
            _line(_record("a")) + "\n"
            + _line({**_record("b"), field: value}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError) as caught:
            TranslationCache(str(path))
        assert str(caught.value) == (
            f"{path}: line 2: malformed cache record: "
            "TypeError('a field is not a string')")


class TestAugmentTrainingSet:
    def make_train(self, n=6):
        return Dataset(
            name="t",
            examples=tuple(
                LabeledExample(f"frase numero {i}", "a" if i % 2 else "b")
                for i in range(n)
            ),
        )

    def test_empty_targets(self):
        train = self.make_train()
        out, failures = augment_training_set(
            train, [], per_sentence(lambda ex: [ex]))
        assert out.examples == train.examples
        assert failures == []

    def test_count_law(self):
        train = self.make_train(8)
        out, _ = augment_training_set(
            train, [0, 2, 4],
            per_sentence(lambda ex: [LabeledExample(ex.text + " novo", ex.label)]),
        )
        assert len(out) == 11

    def test_originals_first_and_verbatim(self):
        train = self.make_train()
        out, _ = augment_training_set(
            train, [1], per_sentence(lambda ex: [LabeledExample("gerado", ex.label)])
        )
        assert out.examples[: len(train)] == train.examples
        assert out.examples[-1].text == "gerado"

    def test_generated_in_target_order(self):
        train = self.make_train()
        out, _ = augment_training_set(
            train, [3, 0],
            per_sentence(lambda ex: [LabeledExample("de " + ex.text, ex.label)]),
        )
        assert [e.text for e in out.examples[-2:]] == [
            "de frase numero 3", "de frase numero 0",
        ]

    def test_per_target_failure_isolated(self):
        train = self.make_train()

        def flaky(ex):
            if ex.text.endswith("2"):
                raise EmptySentenceError("nothing to augment")
            return [LabeledExample("ok", ex.label)]

        out, failures = augment_training_set(
            train, [0, 2, 4], per_sentence(flaky))
        assert failures == [2]
        assert len(out) == len(train) + 2

    @pytest.mark.parametrize("error", [TransportError("down"),
                                       ValueError("a bug")])
    def test_other_errors_propagate(self, error):
        train = self.make_train()

        def failing(ex):
            raise error

        with pytest.raises(type(error)):
            augment_training_set(train, [0, 2], per_sentence(failing))

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            augment_training_set(
                self.make_train(), [99], per_sentence(lambda ex: [ex]))

    def test_augment_cell_pairs_each_row_with_its_source(self, synmap):
        # two rows per target, and one target that fails: sources must
        # pair each generated row with its own source
        config = runner.config_from_dict({
            "datasets": [{"name": "t", "path": "unread.csv"}],
            "groups": ["EDA"], "subset_sizes": [7],
            "aug_percentages": [0, 1.0], "rounds": 1, "master_seed": 3,
            "resources": {"embeddings": "unread.vec", "ppdb": "unread.txt"},
            "eda": {"n_aug": 2},
        })
        resources = runner.Resources(
            datasets={}, embeddings=None, synmap=synmap, syn_stages=[],
            translation=None, cache=TranslationCache())
        train = Dataset(name="t", examples=tuple(
            LabeledExample(text, f"c{i}") for i, text in enumerate([
                "bom produto", "xyz", "!!! ???", "carro novo", "otimo",
                "produto bom carro", "abc",
            ])))
        cell = runner.GridCell("t", "EDA", 7, 1.0, 0)
        aug = runner.augment_cell(config, resources, cell, train)
        assert aug.targets == list(range(7)) and aug.failures == [2]
        replay = random.Random(
            runner.derive_seed(config.master_seed, "augment", *cell.key()))
        pairs = []
        for i in aug.targets:
            try:
                pairs += [(i, row) for row in
                          eda_augment(train[i], config.eda, synmap, replay)]
            except EmptySentenceError:
                continue
        assert list(zip(aug.sources, aug.added)) == pairs
        assert len(aug.added) == len(aug.sources) == 12
        assert [train[s].label for s in aug.sources] == aug.added.labels()
        direct = sum(is_degenerate(train[i].text, row.text) for i, row in pairs)
        assert 0 < direct < 12
        assert sum(is_degenerate(train[s].text, ex.text)
                   for s, ex in zip(aug.sources, aug.added)) == direct

    def test_labels_copied(self):
        train = self.make_train()
        out, _ = augment_training_set(
            train, list(range(len(train))),
            per_sentence(lambda ex: [LabeledExample("x", ex.label)]),
        )
        for src, gen in zip(train.examples, out.examples[len(train):]):
            assert gen.label == src.label


class TestContextualContract:
    def test_wire_format_shapes(self):
        req = contextual_request(["bom", "produto"], 0)
        assert req == {"tokens": ["bom", "produto"], "position": 0}
        cands = parse_contextual_response({"candidates": ["otimo", "bom"]}, "bom")
        assert cands == ["otimo"]

    @pytest.mark.parametrize("cands", ["nope", [None, 5], ["otimo", ""]])
    def test_bad_response_rejected(self, cands):
        with pytest.raises(TransportError):
            parse_contextual_response({"candidates": cands}, "x")

    def test_stub_table(self, tmp_path):
        path = tmp_path / "ctx.tsv"
        path.write_text("bom\totimo,excelente\n", encoding="utf-8")
        stub = make_contextual_provider(ProviderSpec("stub", str(path)))
        assert stub(["bom", "produto"], 0) == ("otimo", "excelente")
        assert stub(["zz"], 0) == ()

    def test_stub_filters_query_word(self, tmp_path):
        path = tmp_path / "ctx.tsv"
        path.write_text("bom\tbom,otimo\n", encoding="utf-8")
        stub = make_contextual_provider(ProviderSpec("stub", str(path)))
        assert stub(["bom"], 0) == ("otimo",)

    def test_stub_repeated_word_keeps_its_first_line(self, tmp_path):
        # as the dictionary file and the embedding file do
        path = tmp_path / "ctx.tsv"
        path.write_text("bom\totimo\nbom\tlegal\n", encoding="utf-8")
        stub = make_contextual_provider(ProviderSpec("stub", str(path)))
        assert stub(["bom"], 0) == ("otimo",)


class TestRateLimiter:
    def test_enforces_cap(self):
        import time

        from augbench.providers import RateLimiter

        limiter = RateLimiter(max_per_second=50)
        t0 = time.monotonic()
        for _ in range(6):
            limiter.wait()
        # 6 calls at 50/s need at least 5 spacing intervals
        assert time.monotonic() - t0 >= 5 / 50 * 0.9

    def test_rejects_non_positive_rate(self):
        from augbench.providers import RateLimiter

        with pytest.raises(ValueError):
            RateLimiter(0)


class _JsonHandler(BaseHTTPRequestHandler):
    """Translation and contextual services, plus test paths: /auth echoes
    the Authorization header back in both wire formats, /flaky answers
    503 to its first request, /malformed sends a bad candidates field,
    /non-string a candidates list of a null and a number, /garbage a
    status line that is not HTTP and /short a body cut short of its
    Content-Length."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        request = json.loads(self.rfile.read(length).decode("utf-8"))
        self.server.hits[self.path] += 1
        if self.path == "/flaky" and self.server.hits[self.path] == 1:
            self.send_error(503)
            return
        if self.path == "/garbage":
            self.wfile.write(b"GARBAGE\r\n\r\n")
            return
        if self.path == "/short":
            self.send_response(200)
            self.send_header("Content-Length", "100")
            self.end_headers()
            self.wfile.write(b'{"translated":')
            return
        if self.path == "/auth":
            auth = self.headers.get("Authorization", "")
            body = {"translated": auth, "candidates": [auth]}
        elif self.path == "/malformed":
            body = {"candidates": "nope"}
        elif self.path == "/non-string":
            body = {"candidates": [None, 5]}
        elif self.path == "/translate":
            word_map = {"bom": "good", "good": "bom"}
            translated = " ".join(
                word_map.get(t, t) for t in request["text"].split()
            )
            body = {"translated": translated}
        else:
            tokens = request["tokens"]
            pos = request["position"]
            table = {"bom": ["otimo"]}
            body = {"candidates": table.get(tokens[pos], [])}
        payload = json.dumps(body).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def http_spec(family, url, **options):
    """The parsed spec of an http section of ``url`` and ``options``; the
    other options take the config table's defaults."""
    return provider_spec({"http": {"url": url, **options}},
                         f"providers.{family}")


def http_translator(url, **options):
    """The HTTP translation provider of a url and JSON-client options."""
    return make_translation_provider(http_spec("translation", url, **options))


def contextual_stage(url, **options):
    """The HTTP contextual Syn stage of a url and JSON-client options."""
    return make_contextual_provider(http_spec("contextual", url, **options))


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _JsonHandler)
    server.hits = collections.Counter()
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


class TestHttpProviders:
    def test_translation_round_trip(self, http_server):
        provider = http_translator(
            f"{http_server}/translate", max_retries=0
        )
        assert provider.translate("bom produto", "pt", "en") == "good produto"
        assert provider.request_count == 1

    def test_translation_bad_endpoint_raises_transport(self):
        provider = http_translator(
            "http://127.0.0.1:1/translate", max_retries=1,
            backoff_base=0.0,
        )
        with pytest.raises(TransportError, match="after 2 attempts"):
            provider.translate("oi", "pt", "en")

    @pytest.mark.parametrize("path, error", [("/garbage", "BadStatusLine"),
                                             ("/short", "IncompleteRead")])
    def test_malformed_response_is_transport_error(self, http_server, path,
                                                   error):
        provider = http_translator(
            f"{http_server}{path}", max_retries=1, backoff_base=0.0,
        )
        with pytest.raises(TransportError, match=f"after 2 attempts: {error}$"):
            provider.translate("oi", "pt", "en")
        assert provider.request_count == 2

    def test_contextual_client(self, http_server):
        stage = contextual_stage(f"{http_server}/contextual")
        assert stage(["bom", "produto"], 0) == ["otimo"]
        assert stage(["zzz"], 0) == []

    def test_credentials_from_env_not_in_errors(self, http_server, monkeypatch):
        monkeypatch.setenv("FAKE_KEY_ENV", "super-secret")
        provider = http_translator(
            f"{http_server}/auth", key_env="FAKE_KEY_ENV", max_retries=0,
        )
        assert provider.translate("oi", "pt", "en") == "Bearer super-secret"
        provider = http_translator(
            "http://127.0.0.1:1/t", key_env="FAKE_KEY_ENV",
            max_retries=0, backoff_base=0.0,
        )
        with pytest.raises(TransportError) as err:
            provider.translate("oi", "pt", "en")
        assert "super-secret" not in str(err.value)

    def test_contextual_retries_after_503(self, http_server):
        stage = contextual_stage(
            f"{http_server}/flaky", max_retries=1, backoff_base=0.0
        )
        assert stage(["bom", "produto"], 0) == ["otimo"]

    def test_contextual_bearer_key_not_in_errors(self, http_server, monkeypatch):
        monkeypatch.setenv("FAKE_KEY_ENV", "super-secret")
        stage = contextual_stage(
            f"{http_server}/auth", key_env="FAKE_KEY_ENV", max_retries=0
        )
        assert stage(["x"], 0) == ["Bearer super-secret"]
        stage = contextual_stage(
            f"{http_server}/malformed", key_env="FAKE_KEY_ENV",
            max_retries=0,
        )
        with pytest.raises(TransportError) as err:
            stage(["x"], 0)
        assert "super-secret" not in str(err.value)

    @pytest.mark.parametrize("path", ["/malformed", "/non-string"])
    def test_contextual_malformed_payload_retried(self, http_server, path):
        stage = contextual_stage(
            f"{http_server}{path}", max_retries=2, backoff_base=0.0
        )
        with pytest.raises(TransportError, match="after 3 attempts"):
            stage(["x"], 0)

    def test_one_spec_parser_for_both_providers(self, http_server):
        spec = {"http": {"url": f"{http_server}/flaky", "max_retries": 1,
                         "backoff_base": 0.0, "timeout": 5,
                         "max_in_flight": 4}}
        contextual = make_contextual_provider(provider_spec(spec, "contextual"))
        assert contextual(["bom"], 0) == ["otimo"]
        spec["http"]["url"] = f"{http_server}/malformed"
        translation = make_translation_provider(
            provider_spec(spec, "translation"))
        with pytest.raises(TransportError, match="after 2 attempts"):
            translation.translate("oi", "pt", "en")
        assert translation.request_count == 2

    @pytest.mark.parametrize("http", [
        {},
        {"url": "http://127.0.0.1:1/t", "timeout": "soon"},
        {"url": "http://127.0.0.1:1/t", "timeout": 0},
        {"url": "http://127.0.0.1:1/t", "max_retries": -1},
        {"url": "http://127.0.0.1:1/t", "rate_per_second": -5},
    ])
    def test_bad_http_section_is_config_error(self, http):
        with pytest.raises(ConfigError):
            provider_spec({"http": http}, "translation")

    def test_back_translate_through_http(self, http_server):
        provider = http_translator(f"{http_server}/translate")
        out = back_translate_one(
            LabeledExample("bom produto", "pos"), provider, "en",
            TranslationCache(),
        )
        assert out.text == "bom produto"
