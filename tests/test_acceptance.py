"""Acceptance criteria, one test per criterion.

Each test prints a PASS line once its assertions hold; run with

    pytest tests/test_acceptance.py -v -s

to see one line per criterion.
"""

import json
import os
import random
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from augbench import report, runner, synthdata
from augbench.corpus import (
    Dataset, LabeledExample, select_augmentation_targets,
)
from augbench.eda import (
    edit_budget, random_deletion, random_swap, synonym_replacement,
)
from augbench.metrics import evaluate
from augbench.pipeline import augment_training_set, back_translate
from augbench.providers import DictTranslationProvider, TranslationCache
from augbench.resources import synonym_map_from_dict
from augbench.results import ExperimentResult
from augbench.stats import ContingencyTable, filter_best, mcnemar
from augbench.svm import SvmConfig, gamma_scale, svm_predict, svm_train


def _report(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


def test_criterion_1_mcnemar_oracle_equivalence():
    started = time.perf_counter()
    checked = 0
    for total in range(21):
        for b in range(total + 1):
            c = total - b
            result = mcnemar(ContingencyTable(a=0, b=b, c=c, d=0))
            if total == 0:
                assert result.chi2 == 0.0 and result.p_value == 1.0
            else:
                expected_chi2 = max(abs(b - c) - 1, 0) ** 2 / (b + c)
                oracle_p = float(scipy_stats.chi2.sf(expected_chi2, 1))
                assert abs(result.chi2 - expected_chi2) <= 1e-9 * max(
                    expected_chi2, 1e-300
                )
                assert abs(result.p_value - oracle_p) <= 1e-9 * oracle_p
            checked += 1
    assert checked == 231
    spot = mcnemar(ContingencyTable(a=0, b=10, c=2, d=0))
    assert spot.p_value == pytest.approx(0.0433, abs=5e-5)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(f"1 mcnemar-oracle: PASS (231 tables, {elapsed:.3f}s)")


def _brute_force_weighted_f1(y_true, y_pred):
    labels = sorted(set(y_true) | set(y_pred))
    total = len(y_true)
    weighted = 0.0
    for cls in labels:
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == cls and p == cls)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != cls and p == cls)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == cls and p != cls)
        support = sum(1 for t in y_true if t == cls)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        weighted += (support / total) * f1
    return weighted


def test_criterion_2_weighted_f1_oracle_equivalence():
    rng = random.Random(20240202)
    for _ in range(1000):
        n = rng.randint(1, 50)
        labels = [f"c{i}" for i in range(rng.randint(1, 5))]
        y_true = [rng.choice(labels) for _ in range(n)]
        y_pred = [rng.choice(labels) for _ in range(n)]
        assert evaluate(y_true, y_pred).weighted_f1 == _brute_force_weighted_f1(
            y_true, y_pred
        )
    hand = evaluate(["A", "A", "B"], ["A", "B", "B"]).weighted_f1
    assert hand == pytest.approx(2 / 3, abs=1e-12)
    _report("2 weighted-f1-oracle: PASS (1000 instances exact)")


def test_criterion_3_svm_sanity():
    started = time.perf_counter()
    rng = np.random.default_rng(31)
    X = np.vstack([
        rng.normal(0.0, 0.25, (20, 2)) + [2.5, 2.5],
        rng.normal(0.0, 0.25, (20, 2)) - [2.5, 2.5],
    ])
    y = ["pos"] * 20 + ["neg"] * 20
    model = svm_train(X, y, SvmConfig(C=10.0))
    acc = np.mean([p == t for p, t in zip(svm_predict(model, X), y)])
    assert acc >= 0.99

    xor_X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    xor_y = ["a", "a", "b", "b"]
    xor_model = svm_train(xor_X, xor_y, SvmConfig(C=10.0, gamma=1.0))
    assert svm_predict(xor_model, xor_X) == xor_y

    for m in (*model.machines, *xor_model.machines):
        assert np.all(np.abs(m.dual_coef) <= 10.0 + 1e-9)
    assert gamma_scale(np.array([[0.0, 0.0], [2.0, 2.0]])) == 0.5
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(f"3 svm-sanity: PASS (blobs acc={acc:.3f}, xor exact, {elapsed:.2f}s)")


def test_criterion_4_eda_invariants():
    synmap = synonym_map_from_dict({
        "bom": ["otimo", "excelente"], "carro": ["automovel"],
        "loja": ["mercado"],
    })
    vocabulary = ["bom", "carro", "loja", "produto", "hoje", "x", "y", "z"]
    rng = random.Random(44)
    for _ in range(1000):
        tokens = [rng.choice(vocabulary) for _ in range(rng.randint(1, 15))]
        n = rng.randint(0, 4)
        replaced = synonym_replacement(tokens, n, synmap, rng)
        assert len(replaced) == len(tokens)
        swapped = random_swap(tokens, n, rng)
        assert len(swapped) == len(tokens)
        assert Counter(swapped) == Counter(tokens)
        deleted = random_deletion(tokens, rng.random(), rng)
        assert deleted
        assert all(tok in tokens for tok in deleted)
    assert edit_budget(0.1, 9) == 1
    assert edit_budget(0.1, 25) == 2
    _report("4 eda-invariants: PASS (1000 sentences)")


def test_criterion_5_grid_accounting(tmp_path):
    fixtures = synthdata.make_demo(str(tmp_path), rows=40, seed=1)
    cfg = dict(fixtures)
    cfg["datasets"] = fixtures["datasets"] + [
        {**fixtures["datasets"][0], "name": "third"}
    ]
    cfg["subset_sizes"] = [500, 1000, 2000, 5000, 10000]
    cfg["aug_percentages"] = [0, 0.05, 0.10, 0.20]
    cfg["rounds"] = 15
    cells = runner.plan_grid(runner.config_from_dict(cfg))
    assert len(cells) == 2700

    one_round = []
    for d in ("d1", "d2", "d3"):
        for g in ("EDA", "Syn", "BT"):
            for n in (500, 1000, 2000, 5000, 10000):
                for p in (0.0, 0.05, 0.10, 0.20):
                    for f1 in (0.5, 0.7):  # a retry per combination
                        one_round.append(ExperimentResult(
                            dataset=d, group=g, subset_size=n, aug_pct=p,
                            round=0, f1=f1,
                        ))
    kept = filter_best(one_round)
    assert len(kept) == 180
    _report("5 grid-accounting: PASS (2700 cells, 180 kept)")


def test_criterion_6_count_laws():
    train = Dataset(
        name="t",
        examples=tuple(
            LabeledExample(f"texto {i}", "a" if i % 2 else "b")
            for i in range(375)
        ),
    )
    targets = select_augmentation_targets(train, 0.2, seed=6)
    assert len(targets) == 75
    grown, failures = augment_training_set(
        train, targets, lambda ex: [LabeledExample(ex.text + " novo", ex.label)]
    )
    assert not failures
    assert len(grown) == 450

    untouched = select_augmentation_targets(train, 0.0, seed=6)
    assert untouched == []
    same, _ = augment_training_set(train, untouched, lambda ex: [ex])
    assert same.examples == train.examples
    _report("6 count-laws: PASS (375 -> 75 targets -> 450 rows)")


def test_criterion_7_end_to_end_determinism(tmp_path):
    started = time.perf_counter()
    cfg = synthdata.make_demo(str(tmp_path / "fx"), rows=2000, seed=7)
    cfg["subset_sizes"] = [300, 600]
    cfg["aug_percentages"] = [0, 0.2]
    cfg["rounds"] = 2
    config = runner.config_from_dict(cfg)
    cells = runner.plan_grid(config)
    assert len(cells) == 2 * 3 * 2 * 2 * 2

    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    rows1 = runner.run_grid(config, out1)
    rows2 = runner.run_grid(config, out2)
    assert len(rows1) == len(cells)

    csv1 = Path(out1, "results.csv").read_bytes()
    csv2 = Path(out2, "results.csv").read_bytes()
    assert csv1 == csv2

    for out in (out1, out2):
        cell_lines = [
            json.loads(line)
            for line in Path(out, "run_log.jsonl").read_text().splitlines()
            if '"cell"' in line
        ]
        cell_lines = [l for l in cell_lines if l.get("event") == "cell"]
        assert len(cell_lines) == len(cells)
        assert all(l["purity_ok"] for l in cell_lines)

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report(
        f"7 end-to-end: PASS (48 cells x2 runs, byte-identical, "
        f"purity ok, {elapsed:.1f}s)"
    )


def test_criterion_8_back_translation_round_trip(tmp_path):
    fx = str(tmp_path / "fx")
    os.makedirs(fx)
    corpus_path = os.path.join(fx, "corpus.csv")
    dict_path = os.path.join(fx, "dict.tsv")
    synthdata.make_corpus(corpus_path, rows=300, seed=8)
    synthdata.make_dict_file(dict_path)
    provider = DictTranslationProvider.from_file(dict_path, source_lang="pt")
    cache = TranslationCache()

    from augbench.corpus import load_dataset

    dataset = load_dataset(corpus_path, name="bt")
    for ex in dataset:
        out = back_translate(ex, provider, "en", cache)
        assert out.text == ex.text
        assert out.label == ex.label

    after_first = provider.request_count
    assert after_first > 0
    for ex in dataset:
        back_translate(ex, provider, "en", cache)
    assert provider.request_count == after_first
    _report(
        f"8 back-translation: PASS ({len(dataset)} sentences round-trip, "
        f"0 requests on rerun)"
    )


def _hand_fixture():
    """36 rows: 3 groups x 2 sizes x (baseline + 2 percentages) x 2 rounds."""
    aug_f1 = {
        # (group, size): f1 values for (round 0: p=.05, p=.2), (round 1: ...)
        ("EDA", 500): [0.82, 0.83, 0.81, 0.84],
        ("EDA", 1000): [0.86, 0.85, 0.87, 0.86],
        ("Syn", 500): [0.79, 0.78, 0.80, 0.77],
        ("Syn", 1000): [0.85, 0.85, 0.85, 0.85],
        ("BT", 500): [0.81, 0.80, 0.79, 0.82],
        ("BT", 1000): [0.84, 0.86, 0.83, 0.87],
    }
    base_f1 = {500: 0.80, 1000: 0.85}
    p_for_positive = {
        ("EDA", 500, 0.05, 0): 0.0433081428,  # significant
        ("EDA", 500, 0.05, 1): 0.91,
        ("EDA", 500, 0.2, 0): 0.31731050786,
        ("EDA", 500, 0.2, 1): 0.05,           # exactly alpha: NOT significant
        ("EDA", 1000, 0.05, 0): 0.045,        # significant
        ("EDA", 1000, 0.05, 1): 0.62,
        ("EDA", 1000, 0.2, 1): 0.81,
        ("BT", 500, 0.05, 0): 0.73,
        ("BT", 500, 0.2, 1): 0.04995,         # significant
        ("BT", 1000, 0.2, 0): 0.19,
        ("BT", 1000, 0.2, 1): 0.33,
    }
    rows = []
    for (group, size), values in aug_f1.items():
        it = iter(values)
        for rnd in (0, 1):
            base = base_f1[size]
            rows.append(ExperimentResult(
                dataset="ds", group=group, subset_size=size, aug_pct=0.0,
                round=rnd, f1=base,
            ))
            for pct in (0.05, 0.2):
                f1 = next(it)
                row = ExperimentResult(
                    dataset="ds", group=group, subset_size=size, aug_pct=pct,
                    round=rnd, f1=f1, baseline_f1=base, gain=f1 - base,
                )
                p = p_for_positive.get((group, size, pct, rnd))
                if f1 - base > 0:
                    assert p is not None
                    row.b, row.c, row.chi2 = 8, 3, 1.4545
                    row.p_value = p
                rows.append(row)
    assert len(rows) == 36
    return rows, aug_f1, base_f1, p_for_positive


def test_criterion_9_report_fidelity(tmp_path):
    rows, aug_f1, base_f1, p_map = _hand_fixture()
    summary = report.summarize(rows, str(tmp_path))

    for (group, size), values in aug_f1.items():
        base = base_f1[size]
        gains = [f1 - base for f1 in values]
        expected_mean = sum(gains) / len(gains)
        mean, n = summary.mean_gain_by_group_size[("ds", group, size)]
        assert n == 4
        assert mean == expected_mean  # exact float reproduction

    expected_significant = {
        ("ds", g, s, p, r) for (g, s, p, r), pv in p_map.items() if pv < 0.05
    }
    got_significant = {s.key for s in summary.significant}
    assert got_significant == expected_significant
    _report(
        f"9 report-fidelity: PASS (6 hand means exact, "
        f"{len(got_significant)} significant rows)"
    )
