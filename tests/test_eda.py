import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augbench.corpus import LabeledExample
from augbench.eda import (
    EdaConfig, eda_augment, edit_budget, random_deletion, random_insertion,
    random_swap, synonym_replacement,
)
from augbench.errors import EmptySentenceError
from oracles import synonym_map_from_dict

tokens_strategy = st.lists(
    st.sampled_from(["bom", "otimo", "carro", "produto", "loja", "x", "y"]),
    min_size=1, max_size=20,
)


class TestSynonymReplacement:
    def test_n_zero_unchanged(self, synmap):
        toks = ["bom", "produto"]
        assert synonym_replacement(toks, 0, synmap, random.Random(1)) == toks

    def test_single_eligible_position(self):
        synmap = synonym_map_from_dict({"bom": ["otimo"]})
        out = synonym_replacement(
            ["bom", "produto"], 1, synmap, random.Random(1)
        )
        assert out == ["otimo", "produto"]

    def test_no_synonyms_unchanged(self, synmap):
        toks = ["xyz", "abc"]
        assert synonym_replacement(toks, 3, synmap, random.Random(1)) == toks

    def test_length_preserved(self, synmap):
        rng = random.Random(2)
        toks = ["bom", "carro", "produto", "zzz"]
        for n in range(5):
            assert len(synonym_replacement(toks, n, synmap, rng)) == len(toks)

    def test_caps_at_eligible_count(self):
        synmap = synonym_map_from_dict({"bom": ["otimo"]})
        out = synonym_replacement(["bom", "zz", "ww"], 9, synmap, random.Random(3))
        assert out == ["otimo", "zz", "ww"]


class TestRandomInsertion:
    def test_n_zero_unchanged(self, synmap):
        assert random_insertion(["bom"], 0, synmap, random.Random(1)) == ["bom"]

    def test_single_token_grows_by_one(self):
        synmap = synonym_map_from_dict({"bom": ["otimo"]})
        out = random_insertion(["bom"], 1, synmap, random.Random(1))
        assert len(out) == 2
        assert Counter(out) == Counter(["bom", "otimo"])

    def test_empty_synmap_unchanged(self):
        synmap = synonym_map_from_dict({})
        assert random_insertion(["a", "b"], 4, synmap, random.Random(1)) == ["a", "b"]

    def test_grows_by_up_to_n(self, synmap):
        out = random_insertion(["bom", "carro"], 3, synmap, random.Random(5))
        assert len(out) == 5


class TestRandomSwap:
    def test_single_token_unchanged(self):
        assert random_swap(["a"], 3, random.Random(1)) == ["a"]

    def test_two_tokens_forced(self):
        assert random_swap(["a", "b"], 1, random.Random(1)) == ["b", "a"]

    @given(toks=tokens_strategy, n=st.integers(0, 6), seed=st.integers(0, 999))
    @settings(max_examples=200, deadline=None)
    def test_multiset_preserved(self, toks, n, seed):
        out = random_swap(toks, n, random.Random(seed))
        assert Counter(out) == Counter(toks)
        assert len(out) == len(toks)


class TestRandomDeletion:
    def test_p_zero_unchanged(self):
        toks = ["a", "b", "c"]
        assert random_deletion(toks, 0.0, random.Random(1)) == toks

    def test_p_one_keeps_single_token(self):
        toks = ["a", "b", "c"]
        out = random_deletion(toks, 1.0, random.Random(1))
        assert len(out) == 1
        assert out[0] in toks

    @given(toks=tokens_strategy, p=st.floats(0, 1), seed=st.integers(0, 999))
    @settings(max_examples=200, deadline=None)
    def test_never_empty_and_tokens_from_input(self, toks, p, seed):
        out = random_deletion(toks, p, random.Random(seed))
        assert out
        assert all(tok in toks for tok in out)
        counts = Counter(toks)
        assert all(c <= counts[t] + 1 for t, c in Counter(out).items())


class TestEditBudget:
    def test_formula_cases(self):
        assert edit_budget(0.1, 9) == 1
        assert edit_budget(0.1, 25) == 2
        assert edit_budget(0.3, 2) == 1


class TestEdaAugment:
    def test_n_aug_one(self, synmap):
        ex = LabeledExample("bom carro na loja", "pos")
        out = eda_augment(ex, EdaConfig(), synmap, random.Random(1))
        assert len(out) == 1
        assert out[0].label == "pos"

    def test_n_aug_many(self, synmap):
        ex = LabeledExample("bom carro na loja", "pos")
        out = eda_augment(ex, EdaConfig(n_aug=4), synmap, random.Random(1))
        assert len(out) == 4
        assert all(e.label == "pos" for e in out)

    def test_empty_sentence_rejected(self, synmap):
        with pytest.raises(EmptySentenceError):
            eda_augment(LabeledExample("...", "x"), EdaConfig(), synmap,
                        random.Random(1))

    def test_deterministic(self, synmap):
        ex = LabeledExample("bom carro muito rapido na loja", "pos")
        a = eda_augment(ex, EdaConfig(n_aug=3), synmap, random.Random(9))
        b = eda_augment(ex, EdaConfig(n_aug=3), synmap, random.Random(9))
        assert a == b

    def test_compose_mode(self, synmap):
        ex = LabeledExample("bom carro muito rapido na loja", "pos")
        out = eda_augment(
            ex, EdaConfig(op_mode="compose"), synmap, random.Random(4)
        )
        assert len(out) == 1 and out[0].label == "pos"

    def test_source_never_mutated(self, synmap):
        ex = LabeledExample("bom carro na loja", "pos")
        eda_augment(ex, EdaConfig(n_aug=5), synmap, random.Random(2))
        assert ex.text == "bom carro na loja"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EdaConfig(alpha=0.0)
        with pytest.raises(ValueError):
            EdaConfig(alpha=1.0)
        with pytest.raises(ValueError):
            EdaConfig(n_aug=0)
        with pytest.raises(ValueError):
            EdaConfig(op_mode="bogus")
