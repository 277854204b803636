"""Word-replacement stages and translation providers.

Syn stages back the sequential substitution pipeline; they never fail
on unknown words, returning no candidates instead. The contextual stage
and the translation provider may be remote. Both talk to their service
through one JSON client, which applies bounded retries with exponential
backoff and an optional per-second rate cap. Credentials come from the
environment and are never logged or echoed.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import time
import urllib.error
import urllib.request
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from json.encoder import encode_basestring
from operator import itemgetter
from sys import intern

from .errors import DataError, ResourceError, TransportError, open_input
from .resources import _LOAD_BLOCK, EmbeddingStore, SynonymMap, nearest_neighbors


# A Syn stage: stage(tokens, i) -> the words that may replace tokens[i],
# never tokens[i] itself; empty when there are none.
SynStage = Callable[[Sequence[str], int], Sequence[str]]


def neighbor_stage(store: EmbeddingStore, k: int) -> SynStage:
    """The Syn stage of the k vocabulary words nearest tokens[i] by cosine
    similarity; an unknown word has none."""
    return lambda tokens, i: [
        w for w, _ in nearest_neighbors(tokens[i], k, store)]


def contextual_request(context: Sequence[str], position: int) -> dict:
    """Wire format sent to a contextual (masked-word) service."""
    return {"tokens": list(context), "position": int(position)}


def parse_contextual_response(payload: dict, word: str) -> list[str]:
    """Wire format received back: a list of non-empty strings, else
    TransportError; the query word itself is filtered out."""
    cands = payload.get("candidates", []) if isinstance(payload, dict) else None
    if not isinstance(cands, list) or not all(
            isinstance(c, str) and c for c in cands):
        raise TransportError("contextual response lacks a candidates list "
                             "of non-empty strings")
    return [c for c in cands if c != word]


def _tab_pairs(path: str, what: str):
    """Yield (left, right) from each 'left<TAB>right' line; skip the rest."""
    with open_input(path, what, ResourceError) as fh:
        for line in fh:
            left, tab, right = line.rstrip("\n").partition("\t")
            if tab:
                yield left, right


def table_stage(table: SynonymMap) -> SynStage:
    """The Syn stage of a word table's candidates for tokens[i]."""
    return lambda tokens, i: table.candidates(tokens[i])


def load_contextual_table(path: str) -> SynonymMap:
    """word<TAB>cand1,cand2,... lines for the contextual stub; a repeated
    word keeps its first line, as the dictionary file does, and a word is
    never its own candidate."""
    table: dict[str, tuple[str, ...]] = {}
    for word, cands in _tab_pairs(path, "contextual table"):
        table.setdefault(word, tuple(c for c in cands.split(",") if c and c != word))
    return SynonymMap(table)


class RateLimiter:
    """Token-free minimal limiter: enforces a per-second call cap."""

    def __init__(self, max_per_second: float):
        if max_per_second <= 0:
            raise ValueError("rate must be positive")
        self._interval = 1.0 / max_per_second
        self._next_at = 0.0

    def wait(self) -> None:
        now = time.monotonic()
        delay = self._next_at - now
        self._next_at = max(now, self._next_at) + self._interval
        if delay > 0:
            time.sleep(delay)


class _JsonClient:
    """POSTs JSON to one URL, retrying with exponential backoff.

    A URL, OS or decode error, a malformed HTTP response, or a payload
    the caller's parser rejects with TransportError, costs one attempt.
    The key named by ``key_env`` is read at call time and sent as a
    bearer token; errors name only the last failure's type, so they
    never contain it.
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
                    http.client.HTTPException, ValueError) as exc:
                if isinstance(exc, urllib.error.HTTPError):
                    exc.close()  # an error response still holds its socket
                last_error = exc
            if attempt < self.max_retries:
                time.sleep(self.backoff_base * (2 ** attempt))
        raise TransportError(
            f"{self.service} failed after {self.max_retries + 1} attempts: "
            f"{type(last_error).__name__}"
        )


@dataclass(frozen=True)
class ProviderSpec:
    """A provider config value as ``runner.provider_spec`` parsed it."""

    kind: str  # "identity", "dict", "stub" or "http"
    path: str = ""  # the file of "dict" and "stub"
    options: dict | None = None  # the JSON client's keyword arguments of "http"


class TranslationProvider:
    """Translates text between language tags; counts outbound requests.
    ``name`` keys the cache: two providers that may answer differently
    never share a name."""

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
    words pass through unchanged in both directions. The name is "dict:"
    and 16 hex digits of the sha256 of the forward entries, written as
    'src<TAB>dst' lines in order.
    """

    def __init__(self, mapping: dict[str, str], source_lang: str = "pt"):
        self.source_lang = source_lang
        self.forward = dict(mapping)
        self.inverse: dict[str, str] = {}
        for src, dst in mapping.items():
            self.inverse.setdefault(dst, src)
        lines = "".join(f"{src}\t{dst}\n" for src, dst in self.forward.items())
        self.name = "dict:" + hashlib.sha256(lines.encode()).hexdigest()[:16]

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
        tokens = text.split(" ")
        return " ".join(map(table.get, tokens, tokens))


class HttpTranslationProvider(TranslationProvider):
    """Remote translation service: request {text, source, target}, response
    {translated}; options as the config's ``http`` section gives them. The
    name is "http:" and the URL; the key is never part of it."""

    def __init__(self, url: str, **options):
        self.name = "http:" + url
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


# The string encoder of JSONEncoder(ensure_ascii=False): a record built
# field by field with it has the bytes of json.dumps(record,
# ensure_ascii=False).
_q = encode_basestring

_RECORD_KEY = itemgetter("provider", "source", "target", "text")
_TRANSLATED = itemgetter("translated")


def _shared(provider: str, source: str, target: str, text: str) -> tuple:
    """A loaded record's key with provider, source and target interned: each
    takes a handful of values, so the cache keeps one copy, not one per record."""
    return intern(provider), intern(source), intern(target), text


class TranslationCache:
    """Append-only (provider, source, target, text) -> translation store.

    Backed by a JSON-lines file, loaded fully at startup if it exists
    and appended to through one handle, opened on the first ``put``. A
    file that cannot be opened for either is DataError. Each record is
    flushed before ``put`` returns, so a fresh cache or a resumed run
    sees it; nothing is fsynced. ``close`` releases the handle; a later
    ``put`` reopens it. A file line that is not one JSON object holding
    the five fields, each a string, is DataError. ``put`` writes exactly
    those five; a record with more loads, and the others are ignored.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self._data: dict[tuple[str, str, str, str], str] = {}
        self._fh = None
        if path and os.path.exists(path):
            with open_input(path, "cache file", DataError) as fh:
                first = 1
                while block := fh.readlines(_LOAD_BLOCK):
                    if not self._load_block(block):
                        self._load_lines(block, first)
                    first += len(block)

    def _load_block(self, block: list[str]) -> bool:
        """Load a block's records with one JSON parse; False where the
        line-by-line load must decide.

        The stripped lines are parsed as one array, joined by ",\n". The
        checks make sure each line held exactly one record, as each line
        parsed alone would:
        - A JSON string cannot hold a raw newline, so no record spans the
          join inside a string.
        - Inside an object a "{" cannot follow a comma, and no record
          holds an array (five fields, each a string). So a line that
          starts with "{" starts a record.
        - With one record per line start, as many records as lines
          leaves no line with two.
        """
        lines = [line for line in map(str.strip, block) if line]
        if not all(map(str.startswith, lines, repeat("{"))):
            return False
        try:
            records = json.loads("[" + ",\n".join(lines) + "]")
            keys = [_shared(*key) for key in map(_RECORD_KEY, records)]
            translations = list(map(_TRANSLATED, records))
        except (KeyError, TypeError, ValueError):
            return False
        if (len(records) != len(lines) or set(map(len, records)) - {5}
                or set(map(type, chain(translations, *keys))) - {str}):
            return False
        self._data.update(zip(keys, translations))
        return True

    def _load_lines(self, block: list[str], first: int) -> None:
        """Load a block one line at a time; ``first`` numbers its first line."""
        for number, line in enumerate(block, first):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                key, translated = _RECORD_KEY(rec), _TRANSLATED(rec)
                if set(map(type, (*key, translated))) - {str}:
                    raise TypeError("a field is not a string")
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(
                    f"{self.path}: line {number}: malformed cache record: {exc!r}"
                ) from exc
            self._data[_shared(*key)] = translated

    def __len__(self) -> int:
        return len(self._data)

    def get(self, provider: str, source: str, target: str, text: str) -> str | None:
        return self._data.get((provider, source, target, text))

    def put(self, provider: str, source: str, target: str, text: str,
            translated: str) -> None:
        self._data[(provider, source, target, text)] = translated
        if self.path:
            if self._fh is None:
                try:
                    self._fh = open(self.path, "a", encoding="utf-8")
                except OSError as exc:
                    raise DataError(
                        f"cannot open cache file: {self.path}") from exc
            self._fh.write(
                f'{{"provider": {_q(provider)}, "source": {_q(source)}, '
                f'"target": {_q(target)}, "text": {_q(text)}, '
                f'"translated": {_q(translated)}}}\n'
            )
            self._fh.flush()

    def close(self) -> None:
        """Close the append handle, if one is open."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def make_translation_provider(spec: ProviderSpec,
                              source_lang: str = "pt") -> TranslationProvider:
    """Build the translation provider of a parsed spec; "dict" reads its file."""
    if spec.kind == "identity":
        return IdentityTranslationProvider()
    if spec.kind == "dict":
        return DictTranslationProvider.from_file(spec.path, source_lang=source_lang)
    return HttpTranslationProvider(**spec.options)


def make_contextual_provider(spec: ProviderSpec) -> SynStage:
    """The contextual Syn stage of a parsed spec; "stub" reads its file."""
    if spec.kind == "stub":
        return table_stage(load_contextual_table(spec.path))
    client = _JsonClient("contextual service", **spec.options)
    return lambda tokens, i: client.post(
        contextual_request(tokens, i),
        lambda payload: parse_contextual_response(payload, tokens[i]),
    )
