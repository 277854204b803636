import collections
import json
import random
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from augbench import runner
from augbench.corpus import Dataset, LabeledExample
from augbench.errors import (
    ConfigError, DataError, EmptySentenceError, TransportError,
)
from augbench.pipeline import (
    augment_training_set, back_translate, is_degenerate, sequential_augment,
)
from augbench.providers import (
    DictTranslationProvider, EmbeddingNeighborProvider,
    HttpContextualProvider, HttpTranslationProvider,
    IdentityTranslationProvider, StubContextualProvider, SynonymMapProvider,
    TranslationCache, contextual_request, http_options,
    make_translation_provider, parse_contextual_response,
)
from augbench.resources import synonym_map_from_dict


class ListProvider:
    """Test double: fixed word -> candidates table."""

    def __init__(self, table, name="list"):
        self.table = table
        self.name = name

    def candidates(self, word, context, position):
        return [c for c in self.table.get(word, []) if c != word]


class TestSequentialAugment:
    def test_no_candidates_leaves_text(self):
        ex = LabeledExample("bom produto", "pos")
        out = sequential_augment(ex, [ListProvider({})], 0.5, random.Random(1))
        assert out.text == "bom produto"
        assert out.label == "pos"

    def test_single_eligible_position(self):
        ex = LabeledExample("bom produto", "pos")
        provider = ListProvider({"bom": ["otimo"]})
        out = sequential_augment(ex, [provider], 0.5, random.Random(1))
        assert out.text == "otimo produto"

    def test_two_stage_composition(self):
        ex = LabeledExample("a", "x")
        p1 = ListProvider({"a": ["b"]})
        p2 = ListProvider({"b": ["c"]})
        out = sequential_augment(ex, [p1, p2], 1.0, random.Random(1))
        assert out.text == "c"

    def test_stage_order_matters(self):
        ex = LabeledExample("a", "x")
        p1 = ListProvider({"a": ["b"]})
        p2 = ListProvider({"b": ["c"]})
        out = sequential_augment(ex, [p2, p1], 1.0, random.Random(1))
        assert out.text == "b"

    def test_budget_caps_replacements(self):
        ex = LabeledExample("a a a a a a a a a a", "x")
        provider = ListProvider({"a": ["z"]})
        out = sequential_augment(ex, [provider], 0.2, random.Random(3))
        assert out.text.split().count("z") == 2

    def test_empty_sentence_rejected(self):
        with pytest.raises(EmptySentenceError):
            sequential_augment(
                LabeledExample("!!!", "x"), [ListProvider({})], 0.5,
                random.Random(1),
            )

    def test_validation(self):
        ex = LabeledExample("oi", "x")
        with pytest.raises(ValueError):
            sequential_augment(ex, [], 0.5, random.Random(1))
        with pytest.raises(ValueError):
            sequential_augment(ex, [ListProvider({})], 0.0, random.Random(1))

    def test_deterministic(self):
        ex = LabeledExample("bom carro bom barco", "x")
        provider = ListProvider({"bom": ["otimo", "legal"]})
        outs = {
            sequential_augment(ex, [provider], 0.5, random.Random(8)).text
            for _ in range(5)
        }
        assert len(outs) == 1

    def test_ppdb_and_embedding_providers(self, synmap, tiny_store):
        ex = LabeledExample("bom a", "x")
        providers = [
            SynonymMapProvider(synmap),
            EmbeddingNeighborProvider(tiny_store, k=1),
        ]
        out = sequential_augment(ex, providers, 1.0, random.Random(1))
        assert out.label == "x"
        assert out.text != ""


class TestBackTranslate:
    def test_identity_mock_degenerate(self):
        provider = IdentityTranslationProvider()
        cache = TranslationCache()
        ex = LabeledExample("bom produto", "pos")
        out = back_translate(ex, provider, "en", cache)
        assert out.text == ex.text
        assert is_degenerate(ex.text, out.text)

    def test_reversible_dictionary_round_trip(self):
        mapping = {"bom": "good", "produto": "product"}
        provider = DictTranslationProvider(mapping, source_lang="pt")
        out = back_translate(
            LabeledExample("bom produto", "pos"), provider, "en",
            TranslationCache(),
        )
        assert out.text == "bom produto"

    def test_lossy_dictionary_canonicalizes(self):
        # both words hit "good"; the inverse keeps the first source seen
        mapping = {"bom": "good", "otimo": "good"}
        provider = DictTranslationProvider(mapping, source_lang="pt")
        out = back_translate(
            LabeledExample("otimo produto", "pos"), provider, "en",
            TranslationCache(),
        )
        assert out.text == "bom produto"

    def test_label_unchanged(self):
        out = back_translate(
            LabeledExample("oi", "neg"), IdentityTranslationProvider(), "en",
            TranslationCache(),
        )
        assert out.label == "neg"

    def test_empty_text_rejected(self):
        with pytest.raises(EmptySentenceError):
            back_translate(
                LabeledExample("  ", "x"), IdentityTranslationProvider(),
                "en", TranslationCache(),
            )

    def test_cache_round_trip_zero_requests(self):
        provider = IdentityTranslationProvider()
        cache = TranslationCache()
        ex = LabeledExample("bom produto barato", "pos")
        back_translate(ex, provider, "en", cache)
        first = provider.request_count
        assert first == 2  # two hops
        back_translate(ex, provider, "en", cache)
        assert provider.request_count == first

    def test_cache_persists_to_file(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        provider = IdentityTranslationProvider()
        ex = LabeledExample("bom", "x")
        cache = TranslationCache(path)
        back_translate(ex, provider, "en", cache)
        cache.close()
        # a fresh cache instance reloads the file and serves hits
        provider2 = IdentityTranslationProvider()
        cache2 = TranslationCache(path)
        back_translate(ex, provider2, "en", cache2)
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

    def test_cache_hits_byte_identical(self):
        cache = TranslationCache()
        cache.put("p", "pt", "en", "bom", "good")
        assert cache.get("p", "pt", "en", "bom") == "good"


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
        out, failures = augment_training_set(train, [], lambda ex: [ex])
        assert out.examples == train.examples
        assert failures == []

    def test_count_law(self):
        train = self.make_train(8)
        out, _ = augment_training_set(
            train, [0, 2, 4],
            lambda ex: [LabeledExample(ex.text + " novo", ex.label)],
        )
        assert len(out) == 11

    def test_originals_first_and_verbatim(self):
        train = self.make_train()
        out, _ = augment_training_set(
            train, [1], lambda ex: [LabeledExample("gerado", ex.label)]
        )
        assert out.examples[: len(train)] == train.examples
        assert out.examples[-1].text == "gerado"

    def test_generated_in_target_order(self):
        train = self.make_train()
        out, _ = augment_training_set(
            train, [3, 0],
            lambda ex: [LabeledExample("de " + ex.text, ex.label)],
        )
        assert [e.text for e in out.examples[-2:]] == [
            "de frase numero 3", "de frase numero 0",
        ]

    def test_per_target_failure_isolated(self):
        train = self.make_train()

        def flaky(ex):
            if ex.text.endswith("2"):
                raise TransportError("boom")
            return [LabeledExample("ok", ex.label)]

        out, failures = augment_training_set(train, [0, 2, 4], flaky)
        assert failures == [2]
        assert len(out) == len(train) + 2

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            augment_training_set(self.make_train(), [99], lambda ex: [ex])

    def test_labels_copied(self):
        train = self.make_train()
        out, _ = augment_training_set(
            train, list(range(len(train))),
            lambda ex: [LabeledExample("x", ex.label)],
        )
        for src, gen in zip(train.examples, out.examples[len(train):]):
            assert gen.label == src.label


class TestContextualContract:
    def test_wire_format_shapes(self):
        req = contextual_request(["bom", "produto"], 0)
        assert req == {"tokens": ["bom", "produto"], "position": 0}
        cands = parse_contextual_response({"candidates": ["otimo", "bom"]}, "bom")
        assert cands == ["otimo"]

    def test_bad_response_rejected(self):
        with pytest.raises(TransportError):
            parse_contextual_response({"candidates": "nope"}, "x")

    def test_stub_speaks_contract(self):
        stub = StubContextualProvider({"bom": ["otimo", "excelente"]})
        assert stub.candidates("bom", ["bom", "produto"], 0) == [
            "otimo", "excelente",
        ]
        assert stub.candidates("zz", ["zz"], 0) == []

    def test_stub_filters_query_word(self):
        stub = StubContextualProvider({"bom": ["bom", "otimo"]})
        assert stub.candidates("bom", ["bom"], 0) == ["otimo"]


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
    503 to its first request and /malformed sends a bad candidates field."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        request = json.loads(self.rfile.read(length).decode("utf-8"))
        self.server.hits[self.path] += 1
        if self.path == "/flaky" and self.server.hits[self.path] == 1:
            self.send_error(503)
            return
        if self.path == "/auth":
            auth = self.headers.get("Authorization", "")
            body = {"translated": auth, "candidates": [auth]}
        elif self.path == "/malformed":
            body = {"candidates": "nope"}
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


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _JsonHandler)
    server.hits = collections.Counter()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


class TestHttpProviders:
    def test_translation_round_trip(self, http_server):
        provider = HttpTranslationProvider(
            url=f"{http_server}/translate", max_retries=0
        )
        assert provider.translate("bom produto", "pt", "en") == "good produto"
        assert provider.request_count == 1

    def test_translation_bad_endpoint_raises_transport(self):
        provider = HttpTranslationProvider(
            url="http://127.0.0.1:1/translate", max_retries=1,
            backoff_base=0.0,
        )
        with pytest.raises(TransportError, match="after 2 attempts"):
            provider.translate("oi", "pt", "en")

    def test_contextual_client(self, http_server):
        provider = HttpContextualProvider(url=f"{http_server}/contextual")
        assert provider.candidates("bom", ["bom", "produto"], 0) == ["otimo"]
        assert provider.candidates("zzz", ["zzz"], 0) == []

    def test_credentials_from_env_not_in_errors(self, http_server, monkeypatch):
        monkeypatch.setenv("FAKE_KEY_ENV", "super-secret")
        provider = HttpTranslationProvider(
            url=f"{http_server}/auth", key_env="FAKE_KEY_ENV", max_retries=0,
        )
        assert provider.translate("oi", "pt", "en") == "Bearer super-secret"
        provider = HttpTranslationProvider(
            url="http://127.0.0.1:1/t", key_env="FAKE_KEY_ENV",
            max_retries=0, backoff_base=0.0,
        )
        with pytest.raises(TransportError) as err:
            provider.translate("oi", "pt", "en")
        assert "super-secret" not in str(err.value)

    def test_contextual_retries_after_503(self, http_server):
        provider = HttpContextualProvider(
            url=f"{http_server}/flaky", max_retries=1, backoff_base=0.0
        )
        assert provider.candidates("bom", ["bom", "produto"], 0) == ["otimo"]

    def test_contextual_bearer_key_not_in_errors(self, http_server, monkeypatch):
        monkeypatch.setenv("FAKE_KEY_ENV", "super-secret")
        provider = HttpContextualProvider(
            url=f"{http_server}/auth", key_env="FAKE_KEY_ENV", max_retries=0
        )
        assert provider.candidates("x", ["x"], 0) == ["Bearer super-secret"]
        provider = HttpContextualProvider(
            url=f"{http_server}/malformed", key_env="FAKE_KEY_ENV",
            max_retries=0,
        )
        with pytest.raises(TransportError) as err:
            provider.candidates("x", ["x"], 0)
        assert "super-secret" not in str(err.value)

    def test_contextual_malformed_payload_retried(self, http_server):
        provider = HttpContextualProvider(
            url=f"{http_server}/malformed", max_retries=2, backoff_base=0.0
        )
        with pytest.raises(TransportError, match="after 3 attempts"):
            provider.candidates("x", ["x"], 0)

    def test_one_spec_parser_for_both_providers(self, http_server):
        spec = {"http": {"url": f"{http_server}/flaky", "max_retries": 1,
                         "backoff_base": 0.0, "timeout": 5,
                         "max_in_flight": 4}}
        contextual = runner._make_contextual(spec)
        assert contextual.candidates("bom", ["bom"], 0) == ["otimo"]
        spec["http"]["url"] = f"{http_server}/malformed"
        translation = make_translation_provider(spec)
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
            http_options({"http": http})

    def test_back_translate_through_http(self, http_server):
        provider = HttpTranslationProvider(url=f"{http_server}/translate")
        out = back_translate(
            LabeledExample("bom produto", "pos"), provider, "en",
            TranslationCache(),
        )
        assert out.text == "bom produto"
