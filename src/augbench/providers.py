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

from .errors import DataError, ResourceError, TransportError, open_input
from .resources import EmbeddingStore, SynonymMap, nearest_neighbors


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
    never contain it. ``runner.HTTP`` states the options' defaults.
    """

    def __init__(self, service: str, url: str, *, key_env: str | None,
                 timeout: float, max_retries: int, backoff_base: float,
                 rate_per_second: float):
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

# Characters of the cache file parsed at once. A block's JSON objects are
# dropped before they fill the garbage collector's first generation (700
# objects), so that loading runs no collection, where a block holds fewer
# than 700 records: records of 94 characters or more. A dict: provider's
# record with empty texts already has 100.
_CACHE_BLOCK = 1 << 16

_DIRECTION = itemgetter("provider", "source", "target")
_TEXT = itemgetter("text")
_TRANSLATED = itemgetter("translated")


class TranslationCache:
    """Append-only (provider, source, target, text) -> translation store.

    Holds one table per direction: (provider, source, target) -> {text:
    translation}. Backed by a JSON-lines file, loaded fully at startup
    if it exists and appended to through one unbuffered handle, opened
    on the first ``put``. A file that cannot be opened for either is
    DataError. Each record reaches the file before ``put`` returns, so a
    fresh cache or a resumed run sees it; nothing is fsynced. ``close``
    releases the handle; a later ``put`` reopens it. A file line that is
    not one JSON object holding the five fields, each a string, is
    DataError. ``put`` writes exactly those five; a record with more
    loads, and the others are ignored.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self._tables: dict[tuple[str, str, str], dict[str, str]] = {}
        self._fh = None
        if path and os.path.exists(path):
            with open_input(path, "cache file", DataError) as fh:
                first = 1
                while block := fh.readlines(_CACHE_BLOCK):
                    if not self._load_block(block):
                        self._load_lines(block, first)
                    first += len(block)

    def _load_block(self, block: list[str]) -> bool:
        """Load a block's records with one JSON parse; False where the
        line-by-line load must decide.

        The lines, as read, are parsed as one array joined by commas; a
        blank line, or one that does not start with "{", leaves the block
        to the line-by-line load. The checks make sure each line held
        exactly one record, as each line parsed alone would:
        - A JSON string cannot hold a raw newline, so no record spans the
          join inside a string.
        - Inside an object a "{" cannot follow a comma, and no record
          holds an array (five fields, each a string). So a line that
          starts with "{" starts a record.
        - With one record per line start, as many records as lines
          leaves no line with two.
        """
        if not all(map(str.startswith, block, repeat("{"))):
            return False
        try:
            records = json.loads("".join(["[", ",".join(block), "]"]))
            texts = list(map(_TEXT, records))
            translations = list(map(_TRANSLATED, records))
            # Only the few distinct directions need their fields' types
            # checked: a str equals nothing of another type. (No list of
            # directions is kept: the collector would track each tuple.)
            distinct = dict.fromkeys(map(_DIRECTION, records))
        except (KeyError, TypeError, ValueError):
            return False
        if (len(records) != len(block) or set(map(len, records)) - {5}
                or set(map(type, chain(texts, translations,
                                       *distinct))) - {str}):
            return False
        # Consecutive records of one direction go to its table together.
        tables, table, last = self._tables, None, None
        for direction, text, translated in zip(map(_DIRECTION, records),
                                               texts, translations):
            if direction != last:
                table, last = tables.setdefault(direction, {}), direction
            table[text] = translated
        return True

    def _load_lines(self, block: list[str], first: int) -> None:
        """Load a block one line at a time; ``first`` numbers its first line."""
        for number, line in enumerate(block, first):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                direction, text = _DIRECTION(rec), _TEXT(rec)
                translated = _TRANSLATED(rec)
                if set(map(type, (*direction, text, translated))) - {str}:
                    raise TypeError("a field is not a string")
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(
                    f"{self.path}: line {number}: malformed cache record: {exc!r}"
                ) from exc
            self._tables.setdefault(direction, {})[text] = translated

    def __len__(self) -> int:
        return sum(map(len, self._tables.values()))

    def get(self, provider: str, source: str, target: str, text: str) -> str | None:
        return self._tables.get((provider, source, target), {}).get(text)

    def put(self, provider: str, source: str, target: str, text: str,
            translated: str) -> None:
        self._tables.setdefault((provider, source, target), {})[text] = translated
        if self.path:
            if self._fh is None:
                try:
                    self._fh = open(self.path, "ab", buffering=0)
                except OSError as exc:
                    raise DataError(
                        f"cannot open cache file: {self.path}") from exc
            record = (
                f'{{"provider": {_q(provider)}, "source": {_q(source)}, '
                f'"target": {_q(target)}, "text": {_q(text)}, '
                f'"translated": {_q(translated)}}}\n'
            ).encode()
            # An unbuffered handle: each write goes to the file at once,
            # and one that wrote part of the record is followed by another.
            while record := record[self._fh.write(record):]:
                pass

    def translate(self, provider: TranslationProvider, source: str,
                  target: str, texts: list[str]) -> list[str]:
        """Each text translated from ``source`` to ``target``, in order.

        The texts are looked up in the direction's table at once; each
        distinct miss goes to ``provider`` once, in first-seen order, and
        its record is written by ``put`` as that call returns, so a
        TransportError leaves every earlier record on file.
        """
        table = self._tables.setdefault((provider.name, source, target), {})
        found = list(map(table.get, texts))
        if None not in found:
            return found
        missed = dict.fromkeys(
            text for text, hit in zip(texts, found) if hit is None)
        for text in missed:
            self.put(provider.name, source, target, text,
                     provider.translate(text, source, target))
        return list(map(table.__getitem__, texts))

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
