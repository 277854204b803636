"""Sequential word-replacement and back-translation augmenters.

Both generate exactly one new example per source sentence with the
label copied unchanged. An augmenter takes a cell's target examples, in
target order, and returns the rows it generated for them, in that order,
and the positions of the examples it could not augment
(EmptySentenceError). augment_training_set appends the rows after the
untouched originals and reports those targets. Any other error, a
provider's TransportError included, propagates.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from itertools import compress
from operator import attrgetter

from .corpus import Dataset, LabeledExample, tokenize
from .errors import EmptySentenceError
from .providers import SynStage, TranslationCache, TranslationProvider

_TEXT, _LABEL = attrgetter("text"), attrgetter("label")

Augmenter = Callable[[Sequence[LabeledExample]],
                     tuple[list[LabeledExample], list[int]]]


def per_sentence(
    augment: Callable[[LabeledExample], list[LabeledExample]],
) -> Augmenter:
    """The augmenter that calls ``augment`` on each example in order; an
    example for which it raised EmptySentenceError is skipped."""
    def run(examples: Sequence[LabeledExample]) -> tuple[list[LabeledExample],
                                                         list[int]]:
        rows: list[LabeledExample] = []
        skipped: list[int] = []
        for position, ex in enumerate(examples):
            try:
                rows += augment(ex)
            except EmptySentenceError:
                skipped.append(position)
        return rows, skipped
    return run


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


def back_translate(
    examples: Sequence[LabeledExample],
    provider: TranslationProvider,
    pivot: str,
    cache: TranslationCache,
    source_lang: str = "pt",
) -> tuple[list[LabeledExample], list[int]]:
    """Translate each example to the pivot language and back, in two hops
    through the write-through cache: every text to the pivot, then every
    result back. Returns the round trips and the positions of the blank
    texts, which are skipped as EmptySentenceError would skip them.

    A result identical to its input is still returned (the runner counts
    such rows as unchanged). Transport failures propagate after the
    provider's own retry budget.
    """
    texts = list(map(_TEXT, examples))
    keep = list(map(str.strip, texts))  # "" (false) for a blank text
    hop = cache.translate(provider, source_lang, pivot, list(compress(texts, keep)))
    back = cache.translate(provider, pivot, source_lang, hop)
    rows = list(map(LabeledExample, back, map(_LABEL, compress(examples, keep))))
    return rows, [position for position, kept in enumerate(keep) if not kept]


def augment_training_set(
    train: Dataset,
    targets: Sequence[int],
    augmenter: Augmenter,
) -> tuple[Dataset, list[int]]:
    """Append generated examples for each target index, in target order.

    Originals stay verbatim and first. ``augmenter`` gets the target
    examples in target order. Returns the grown dataset and the target
    indices it skipped (EmptySentenceError), in target order; any
    exception propagates.
    """
    n = len(train)
    bad = [i for i in targets if not 0 <= i < n]
    if bad:
        raise IndexError(f"augmentation targets out of range: {bad[:5]}")
    generated, skipped = augmenter([train[i] for i in targets])
    out = Dataset(name=train.name, examples=train.examples + tuple(generated))
    return out, [targets[position] for position in skipped]
