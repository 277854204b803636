"""Sequential word-replacement and back-translation augmenters.

Both generate exactly one new example per source sentence with the
label copied unchanged. augment_training_set appends generated examples
after the untouched originals. A sentence that cannot be augmented
(EmptySentenceError) is skipped and counted; any other error, a
provider's TransportError included, propagates.
"""

from __future__ import annotations

import json
import logging
import random
from collections.abc import Callable, Sequence

from .corpus import Dataset, LabeledExample, tokenize
from .errors import EmptySentenceError
from .providers import ReplacementProvider, TranslationCache, TranslationProvider

logger = logging.getLogger(__name__)

Augmenter = Callable[[LabeledExample], list[LabeledExample]]


def sequential_augment(
    sentence: LabeledExample,
    providers: Sequence[ReplacementProvider],
    rate: float,
    rng: random.Random,
) -> LabeledExample:
    """Run the providers in order, each replacing a slice of the tokens.

    Every stage sees the previous stage's output, picks up to
    max(1, floor(rate * L)) positions that have candidates, and swaps in
    a uniformly drawn candidate per position.
    """
    if not providers:
        raise ValueError("at least one replacement provider is required")
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"replacement rate {rate} outside (0, 1]")
    tokens = tokenize(sentence.text)
    if not tokens:
        raise EmptySentenceError(f"nothing to augment in {sentence.text!r}")
    for provider in providers:
        budget = max(1, int(rate * len(tokens)))
        options = [
            (i, cands)
            for i, cands in (
                (i, provider.candidates(tokens[i], tokens, i))
                for i in range(len(tokens))
            )
            if cands
        ]
        if not options:
            continue
        chosen = rng.sample(range(len(options)), min(budget, len(options)))
        for oi in sorted(chosen):
            pos, cands = options[oi]
            tokens[pos] = rng.choice(cands)
    return LabeledExample(text=" ".join(tokens), label=sentence.label)


def is_degenerate(original: str, generated: str) -> bool:
    """True when the round trip changed nothing beyond whitespace."""
    return " ".join(original.split()) == " ".join(generated.split())


def back_translate(
    sentence: LabeledExample,
    provider: TranslationProvider,
    pivot: str,
    cache: TranslationCache,
    source_lang: str = "pt",
) -> LabeledExample:
    """Translate to the pivot language and back, via the write-through cache.

    A result identical to the input is still returned, and flagged as
    degenerate in an INFO log record when INFO is enabled. Transport
    failures propagate after the provider's own retry budget.
    """
    if not sentence.text.strip():
        raise EmptySentenceError("cannot back-translate empty text")
    hop = _cached_translate(sentence.text, source_lang, pivot, provider, cache)
    text = _cached_translate(hop, pivot, source_lang, provider, cache)
    if logger.isEnabledFor(logging.INFO) and is_degenerate(sentence.text, text):
        logger.info(
            json.dumps(
                {"event": "back_translate_degenerate", "text": sentence.text},
                ensure_ascii=False,
            )
        )
    return LabeledExample(text=text, label=sentence.label)


def _cached_translate(
    text: str, source: str, target: str,
    provider: TranslationProvider, cache: TranslationCache,
) -> str:
    hit = cache.get(provider.name, source, target, text)
    if hit is not None:
        return hit
    out = provider.translate(text, source, target)
    cache.put(provider.name, source, target, text, out)
    return out


def augment_training_set(
    train: Dataset,
    targets: Sequence[int],
    augmenter: Augmenter,
) -> tuple[Dataset, list[int]]:
    """Append generated examples for each target index, in target order.

    Originals stay verbatim and first. Returns the grown dataset and the
    target indices whose sentence raised EmptySentenceError (skipped,
    counted, logged); any other exception propagates.
    """
    n = len(train)
    bad = [i for i in targets if not 0 <= i < n]
    if bad:
        raise IndexError(f"augmentation targets out of range: {bad[:5]}")
    generated: list[LabeledExample] = []
    failures: list[int] = []
    for i in targets:
        try:
            generated.extend(augmenter(train[i]))
        except EmptySentenceError as exc:
            failures.append(i)
            logger.warning(
                json.dumps(
                    {"event": "augment_target_failed", "index": i,
                     "error": type(exc).__name__},
                    ensure_ascii=False,
                )
            )
    out = Dataset(name=train.name, examples=train.examples + tuple(generated))
    return out, failures
