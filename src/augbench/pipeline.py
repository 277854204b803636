"""Sequential word-replacement and back-translation augmenters.

Both generate exactly one new example per source sentence with the
label copied unchanged. augment_training_set appends generated examples
after the untouched originals. A sentence that cannot be augmented
(EmptySentenceError) is skipped and counted; any other error, a
provider's TransportError included, propagates.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence

from .corpus import Dataset, LabeledExample, tokenize
from .errors import EmptySentenceError
from .providers import SynStage, TranslationCache, TranslationProvider

Augmenter = Callable[[LabeledExample], list[LabeledExample]]


def sequential_augment(
    sentence: LabeledExample,
    stages: Sequence[SynStage],
    rate: float,
    rng: random.Random,
) -> LabeledExample:
    """Run the Syn stages in order, each replacing a slice of the tokens.

    Every stage sees the previous stage's output, picks up to
    max(1, floor(rate * L)) positions that have candidates, and swaps in
    a uniformly drawn candidate per position.
    """
    if not stages:
        raise ValueError("at least one Syn stage is required")
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"replacement rate {rate} outside (0, 1]")
    tokens = tokenize(sentence.text)
    if not tokens:
        raise EmptySentenceError(f"nothing to augment in {sentence.text!r}")
    for stage in stages:
        budget = max(1, int(rate * len(tokens)))
        options = [(i, cands) for i in range(len(tokens))
                   if (cands := stage(tokens, i))]
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


def count_unchanged(
    train: Dataset,
    targets: Sequence[int],
    failures: Sequence[int],
    augmented: Dataset,
    per_target: int,
) -> int:
    """Generated rows of augment_training_set that equal their source by
    is_degenerate; each target outside ``failures`` made ``per_target``."""
    failed = set(failures)
    sources = [train[i].text for i in targets if i not in failed
               for _ in range(per_target)]
    generated = [ex.text for ex in augmented.examples[len(train):]]
    return sum(map(is_degenerate, sources, generated))


def back_translate(
    sentence: LabeledExample,
    provider: TranslationProvider,
    pivot: str,
    cache: TranslationCache,
    source_lang: str = "pt",
) -> LabeledExample:
    """Translate to the pivot language and back, via the write-through cache.

    A result identical to the input is still returned (count_unchanged
    counts such rows). Transport failures propagate after the provider's
    own retry budget.
    """
    if not sentence.text.strip():
        raise EmptySentenceError("cannot back-translate empty text")
    hop = _cached_translate(sentence.text, source_lang, pivot, provider, cache)
    text = _cached_translate(hop, pivot, source_lang, provider, cache)
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
    target indices whose sentence raised EmptySentenceError (skipped and
    counted); any other exception propagates.
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
        except EmptySentenceError:
            failures.append(i)
    out = Dataset(name=train.name, examples=train.examples + tuple(generated))
    return out, failures
