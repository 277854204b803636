"""Pluggable word-replacement and translation providers.

Replacement providers back the sequential substitution pipeline; they
never fail on unknown words, returning an empty candidate list instead.
The contextual and translation providers may be remote. Both talk to
their service through one JSON client, which applies bounded retries
with exponential backoff and an optional per-second rate cap. Credentials
come from the environment and are never logged or echoed.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request
from collections.abc import Sequence

from .errors import ConfigError, DataError, ResourceError, TransportError
from .resources import EmbeddingStore, SynonymMap, nearest_neighbors


class ReplacementProvider:
    """Suggests substitutes for one word in context."""

    name: str = "replacement"

    def candidates(
        self, word: str, context: Sequence[str], position: int
    ) -> list[str]:
        raise NotImplementedError


class SynonymMapProvider(ReplacementProvider):
    """Candidates from a parsed paraphrase map; context is ignored."""

    def __init__(self, synmap: SynonymMap, name: str = "ppdb"):
        self.synmap = synmap
        self.name = name

    def candidates(self, word, context, position):
        return [c for c in self.synmap.candidates(word) if c != word]


class EmbeddingNeighborProvider(ReplacementProvider):
    """Candidates are the k nearest vocabulary words by cosine similarity."""

    def __init__(self, store: EmbeddingStore, k: int = 5, name: str = "embedding"):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.store = store
        self.k = k
        self.name = name

    def candidates(self, word, context, position):
        return [w for w, _ in nearest_neighbors(word, self.k, self.store)
                if w != word] if word in self.store else []


def contextual_request(context: Sequence[str], position: int) -> dict:
    """Wire format sent to a contextual (masked-word) service."""
    return {"tokens": list(context), "position": int(position)}


def parse_contextual_response(payload: dict, word: str) -> list[str]:
    """Wire format received back; the query word itself is filtered out."""
    cands = payload.get("candidates", []) if isinstance(payload, dict) else None
    if not isinstance(cands, list):
        raise TransportError("contextual response lacks a candidates list")
    return [str(c) for c in cands if str(c) != word]


class HttpContextualProvider(ReplacementProvider):
    """Remote masked-word service speaking the JSON contract; options as
    in ``http_options``."""

    def __init__(self, url: str, name: str = "contextual", **options):
        self.name = name
        self._client = _JsonClient("contextual service", url, **options)

    def candidates(self, word, context, position):
        return self._client.post(
            contextual_request(context, position),
            lambda payload: parse_contextual_response(payload, word),
        )


class StubContextualProvider(ReplacementProvider):
    """Deterministic in-process stand-in that still speaks the JSON contract.

    Requests and responses pass through the same dict shapes as the HTTP
    client, so tests exercise the wire format without a network.
    """

    def __init__(self, table: dict[str, list[str]], name: str = "contextual-stub"):
        self.table = {w: list(c) for w, c in table.items()}
        self.name = name

    def _serve(self, request: dict) -> dict:
        tokens = request["tokens"]
        position = request["position"]
        word = tokens[position] if 0 <= position < len(tokens) else ""
        return {"candidates": list(self.table.get(word, []))}

    def candidates(self, word, context, position):
        request = json.loads(json.dumps(contextual_request(context, position)))
        response = self._serve(request)
        return parse_contextual_response(response, word)


def _tab_pairs(path: str, what: str):
    """Yield (left, right) from each 'left<TAB>right' line; skip the rest."""
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise ResourceError(f"cannot open {what}: {path}") from exc
    with fh:
        try:
            for line in fh:
                left, tab, right = line.rstrip("\n").partition("\t")
                if tab:
                    yield left, right
        except UnicodeDecodeError as exc:
            raise ResourceError(f"{what} is not UTF-8: {path}: {exc}") from exc


def load_contextual_table(path: str) -> dict[str, list[str]]:
    """word<TAB>cand1,cand2,... lines for the contextual stub."""
    return {word: [c for c in cands.split(",") if c]
            for word, cands in _tab_pairs(path, "contextual table")}


class RateLimiter:
    """Token-free minimal limiter: enforces a per-second call cap."""

    def __init__(self, max_per_second: float):
        if max_per_second <= 0:
            raise ValueError("rate must be positive")
        self._interval = 1.0 / max_per_second
        self._lock = threading.Lock()
        self._next_at = 0.0

    def wait(self) -> None:
        with self._lock:
            now = time.monotonic()
            delay = self._next_at - now
            self._next_at = max(now, self._next_at) + self._interval
        if delay > 0:
            time.sleep(delay)


class _JsonClient:
    """POSTs JSON to one URL, retrying with exponential backoff.

    A URL, OS or decode error, or a payload the caller's parser rejects
    with TransportError, costs one attempt. The key named by ``key_env``
    is read at call time and sent as a bearer token; errors name only
    the last failure's type, so they never contain it.
    """

    def __init__(self, service: str, url: str, key_env: str | None = None,
                 timeout: float = 10.0, max_retries: int = 3,
                 backoff_base: float = 0.2, rate_per_second: float = 0.0):
        self.service = service
        self.url = url
        self.key_env = key_env
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self._limiter = RateLimiter(rate_per_second) if rate_per_second else None
        self.requests = 0

    def post(self, request: dict, parse):
        """``parse(payload)`` of the first response it accepts."""
        body = json.dumps(request, ensure_ascii=False).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.key_env) if self.key_env else None
        if key:
            headers["Authorization"] = f"Bearer {key}"
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if self._limiter:
                self._limiter.wait()
            self.requests += 1
            try:
                req = urllib.request.Request(self.url, data=body, headers=headers)
                with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                    return parse(json.loads(resp.read().decode("utf-8")))
            except (TransportError, urllib.error.URLError, OSError,
                    ValueError) as exc:
                if isinstance(exc, urllib.error.HTTPError):
                    exc.close()  # an error response still holds its socket
                last_error = exc
            if attempt < self.max_retries:
                time.sleep(self.backoff_base * (2 ** attempt))
        raise TransportError(
            f"{self.service} failed after {self.max_retries + 1} attempts: "
            f"{type(last_error).__name__}"
        )


def http_options(spec: dict) -> dict:
    """JSON-client keyword arguments from a provider's ``{"http": {...}}`` section.

    The one parser of that section, for both remote providers. Keys:
    url (required), key_env, timeout, max_retries, backoff_base and
    rate_per_second (absent or 0: no cap); any other key is ignored.
    """
    try:
        http = spec["http"]
        options = {
            "url": str(http["url"]),
            "key_env": http.get("key_env"),
            "timeout": float(http.get("timeout", 10.0)),
            "max_retries": int(http.get("max_retries", 3)),
            "backoff_base": float(http.get("backoff_base", 0.2)),
            "rate_per_second": float(http.get("rate_per_second") or 0),
        }
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed http provider section: {exc!r}") from exc
    if (options["timeout"] <= 0 or options["max_retries"] < 0
            or min(options["backoff_base"], options["rate_per_second"]) < 0):
        raise ConfigError(f"out-of-range value in http provider section: {http!r}")
    return options


class TranslationProvider:
    """Translates text between language tags; counts outbound requests."""

    name: str = "translation"
    request_count: int = 0

    def translate(self, text: str, source: str, target: str) -> str:
        raise NotImplementedError


class IdentityTranslationProvider(TranslationProvider):
    """Mock: returns the input unchanged (always degenerate round trips)."""

    name = "identity"

    def translate(self, text, source, target):
        self.request_count += 1
        return text


class DictTranslationProvider(TranslationProvider):
    """Mock: word-by-word mapping with an exact inverse.

    Forward entries come from 'src<TAB>dst' lines; the inverse keeps the
    first source seen for each destination, so non-injective files
    collapse synonyms onto one canonical word on the way back. Unknown
    words pass through unchanged in both directions.
    """

    def __init__(self, mapping: dict[str, str], source_lang: str = "pt",
                 name: str = "dict"):
        self.name = name
        self.source_lang = source_lang
        self.forward = dict(mapping)
        self.inverse: dict[str, str] = {}
        for src, dst in mapping.items():
            self.inverse.setdefault(dst, src)

    @classmethod
    def from_file(cls, path: str, source_lang: str = "pt") -> "DictTranslationProvider":
        mapping: dict[str, str] = {}
        for src, dst in _tab_pairs(path, "dictionary file"):
            if src and dst:
                mapping.setdefault(src, dst)
        if not mapping:
            raise ResourceError(f"{path}: zero dictionary entries")
        return cls(mapping, source_lang=source_lang)

    def translate(self, text, source, target):
        self.request_count += 1
        table = self.forward if source == self.source_lang else self.inverse
        return " ".join(table.get(tok, tok) for tok in text.split(" "))


class HttpTranslationProvider(TranslationProvider):
    """Remote translation service: request {text, source, target}, response
    {translated}; options as in ``http_options``."""

    def __init__(self, url: str, name: str = "http", **options):
        self.name = name
        self._client = _JsonClient("translation", url, **options)

    @property
    def request_count(self) -> int:
        return self._client.requests

    def translate(self, text, source, target):
        return self._client.post(
            {"text": text, "source": source, "target": target},
            _parse_translation,
        )


def _parse_translation(payload) -> str:
    translated = payload.get("translated") if isinstance(payload, dict) else None
    if not isinstance(translated, str) or not translated:
        raise TransportError("translation response lacks text")
    return translated


# One encoder for every cache record: the bytes of
# json.dumps(record, ensure_ascii=False) without a per-call encoder.
_encode_record = json.JSONEncoder(ensure_ascii=False).encode


class TranslationCache:
    """Append-only (provider, source, target, text) -> translation store.

    Backed by a JSON-lines file loaded fully at startup and appended to
    through one handle, opened on the first ``put``. Each record is
    flushed before ``put`` returns, so a fresh cache or a resumed run
    sees it; nothing is fsynced. ``close`` releases the handle; a later
    ``put`` reopens it. Safe for concurrent read/write (values for
    identical keys are identical by construction, so last-writer-wins is
    harmless).
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self._lock = threading.Lock()
        self._data: dict[tuple[str, str, str, str], str] = {}
        self._fh = None
        if path:
            try:
                with open(path, encoding="utf-8") as fh:
                    for line in fh:
                        line = line.strip()
                        if not line:
                            continue
                        rec = json.loads(line)
                        key = (rec["provider"], rec["source"], rec["target"],
                               rec["text"])
                        self._data[key] = rec["translated"]
            except FileNotFoundError:
                pass
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}: malformed cache record: {exc!r}") from exc

    def __len__(self) -> int:
        return len(self._data)

    def get(self, provider: str, source: str, target: str, text: str) -> str | None:
        return self._data.get((provider, source, target, text))

    def put(self, provider: str, source: str, target: str, text: str,
            translated: str) -> None:
        key = (provider, source, target, text)
        with self._lock:
            self._data[key] = translated
            if self.path:
                if self._fh is None:
                    self._fh = open(self.path, "a", encoding="utf-8")
                self._fh.write(
                    _encode_record({"provider": provider, "source": source,
                                    "target": target, "text": text,
                                    "translated": translated})
                    + "\n"
                )
                self._fh.flush()

    def close(self) -> None:
        """Close the append handle, if one is open."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def make_translation_provider(spec_string: str | dict,
                              source_lang: str = "pt") -> TranslationProvider:
    """Build a provider from its config value.

    Strings select mocks: "identity" or "dict:<path>". A mapping with an
    "http" section selects the remote client.
    """
    if isinstance(spec_string, str):
        if spec_string == "identity":
            return IdentityTranslationProvider()
        if spec_string.startswith("dict:"):
            return DictTranslationProvider.from_file(
                spec_string[len("dict:"):], source_lang=source_lang
            )
        raise ResourceError(f"unknown translation provider {spec_string!r}")
    if isinstance(spec_string, dict) and "http" in spec_string:
        return HttpTranslationProvider(**http_options(spec_string))
    raise ResourceError(f"unusable translation provider config: {spec_string!r}")
