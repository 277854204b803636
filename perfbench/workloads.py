"""The three workloads: inputs made from the seed, one timed pass, checks.

Every workload is a closed loop: one caller in one process waits for
each call to return before it makes the next. The program is reached
only through its public entry points (``runner.load_resources``,
``runner.GridRunner(...).run()`` and ``cli.main(["augment", ...])``)
and runs with its default settings, ``workers`` included.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil

import numpy as np

from augbench import cli, metrics, runner, stats, synthdata
from augbench.results import read_results_csv

# Weighted F1 far above chance (about 0.33 on the three-class corpus and
# 0.5 on the two-class one). The seed reads about 0.90.
F1_FLOOR = 0.75

# augment: a 10,000-word vocabulary, so that neighbour queries scan a
# realistic embedding matrix, and sizes that make each of the four
# commands last one to three seconds on two cores.
VOCABULARY_SIZE = 10_000
AUGMENT_ROWS = 40_000
SYN_PCT = 0.005


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclasses.dataclass
class PassResult:
    """What one timed pass did, and the problems the checks found."""

    seconds: float
    rescaled_s: float
    attempted: int
    failed: int
    digest: str
    problems: list[str]
    phases: dict[str, dict] = dataclasses.field(default_factory=dict)
    f1_mean: float | None = None


# -- grid workloads -------------------------------------------------------


def grid_config(workload: str, work: str, seed: int) -> dict:
    """grid-demo: make_demo(rows=2000) unchanged, 48 cells.

    grid-large: one paper-sized bucket of make_demo(rows=10000): synth3,
    EDA, size 2000, pcts 0/0.1/0.2, one round, 3 cells.
    """
    if workload == "grid-demo":
        return synthdata.make_demo(work, rows=2000, seed=seed)
    raw = synthdata.make_demo(work, rows=10000, seed=seed)
    raw.update(
        datasets=raw["datasets"][:1], groups=["EDA"], subset_sizes=[2000],
        aug_percentages=[0, 0.1, 0.2], rounds=1,
    )
    return raw


def grid_pass(config, resources, out_dir: str, stick) -> PassResult:
    shutil.rmtree(out_dir, ignore_errors=True)
    started = stick.read()
    rows = runner.GridRunner(config, out_dir, resources=resources).run()
    ended = stick.read()
    failed = sum(1 for r in rows if r.status != "ok")
    problems, f1_mean = check_grid(out_dir)
    return PassResult(
        seconds=stick.program_s(started, ended),
        rescaled_s=stick.rescaled_s(started, ended),
        attempted=len(rows), failed=failed,
        digest=sha256(os.path.join(out_dir, "results.csv")),
        problems=problems, f1_mean=f1_mean,
    )


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def check_grid(out_dir: str) -> tuple[list[str], float | None]:
    """Recompute every F1 and McNemar field from the saved predictions."""
    problems: list[str] = []
    rows = read_results_csv(os.path.join(out_dir, "results.csv"))
    if not rows:
        return ["results.csv has no rows"], None
    predictions: dict[tuple, tuple[list[str], list[str]]] = {}
    for r in rows:
        if r.status != "ok":
            problems.append(f"cell {r.key()} has status {r.status}")
            continue
        path = os.path.join(
            out_dir, "predictions",
            f"{r.dataset}_{r.group}_{r.subset_size}_{r.aug_pct}_{r.round}.jsonl",
        )
        if not os.path.exists(path):
            problems.append(f"cell {r.key()}: no predictions file")
            continue
        y_true, y_pred = metrics.load_predictions(path)
        predictions[r.key()] = (y_true, y_pred)
        f1 = metrics.evaluate(y_true, y_pred).weighted_f1
        if not _close(r.f1, f1):
            problems.append(f"cell {r.key()}: f1 {r.f1} != recomputed {f1}")
    for r in rows:
        if r.aug_pct == 0 or r.key() not in predictions:
            continue
        base_key = (r.dataset, r.group, r.subset_size, 0.0, r.round)
        if base_key not in predictions:
            problems.append(f"cell {r.key()}: baseline has no predictions")
            continue
        y_true, aug_pred = predictions[r.key()]
        base_true, base_pred = predictions[base_key]
        if base_true != y_true:
            problems.append(f"cell {r.key()}: test set differs from baseline's")
            continue
        base_f1 = metrics.evaluate(base_true, base_pred).weighted_f1
        if not _close(r.baseline_f1, base_f1) or not _close(r.gain, r.f1 - base_f1):
            problems.append(f"cell {r.key()}: baseline_f1/gain do not match")
        expect = (None, None, None, None)
        if r.f1 - base_f1 > 0:
            table = stats.contingency(y_true, base_pred, aug_pred)
            test = stats.mcnemar(table)
            expect = (table.b, table.c, test.chi2, test.p_value)
        got = (r.b, r.c, r.chi2, r.p_value)
        if got[:2] != expect[:2] or not all(map(_close, got[2:], expect[2:])):
            problems.append(f"cell {r.key()}: b/c/chi2/p {got} != {expect}")
    scores = [r.f1 for r in rows if r.status == "ok" and r.f1 is not None]
    f1_mean = sum(scores) / len(scores) if scores else None
    if f1_mean is None or f1_mean < F1_FLOOR:
        problems.append(f"f1_mean {f1_mean} below {F1_FLOOR}")
    return problems, f1_mean


# -- augment workload -----------------------------------------------------


def augment_config(work: str, seed: int) -> dict:
    """A corpus whose filler tokens come from a 10,000-word vocabulary.

    Class words and their embeddings, paraphrases and dictionary entries
    come from synthdata. The filler words get random vectors, and their
    dictionary maps pairs of them to one translation, so that the round
    trip changes some sentences and leaves others as they were.
    """
    rng = np.random.default_rng(seed)
    emb = os.path.join(work, "embeddings.vec")
    ppdb = os.path.join(work, "paraphrases.txt")
    dic = os.path.join(work, "dictionary.tsv")
    corpus = os.path.join(work, "corpus.csv")
    synthdata.make_embeddings(emb, seed=seed + 2)
    synthdata.make_ppdb(ppdb)
    synthdata.make_dict_file(dic)
    with open(emb, encoding="utf-8") as fh:
        _, dim = fh.readline().split()
        class_rows = fh.read()
    fillers = [f"w{i:05d}" for i in range(VOCABULARY_SIZE - len(synthdata.VOCABULARY))]
    vectors = rng.normal(0.0, 1.0, (len(fillers), int(dim)))
    with open(emb, "w", encoding="utf-8") as fh:
        fh.write(f"{VOCABULARY_SIZE} {dim}\n{class_rows}")
        for word, vec in zip(fillers, vectors):
            fh.write(word + " " + " ".join(f"{v:.6f}" for v in vec) + "\n")
    with open(dic, "a", encoding="utf-8") as fh:
        for i, word in enumerate(fillers):
            fh.write(f"{word}\tz{fillers[i - i % 2]}\n")
    vocabulary = np.array(synthdata.VOCABULARY + fillers)
    zipf = 1.0 / np.arange(1, len(vocabulary) + 1)
    labels = sorted(synthdata.CLASS_WORDS)
    lengths = rng.integers(4, 12, size=AUGMENT_ROWS)
    tokens = rng.choice(
        vocabulary[rng.permutation(len(vocabulary))], size=int(lengths.sum()),
        p=zipf / zipf.sum(),
    ).tolist()
    marked = rng.random(len(tokens)) < 0.4
    picks = rng.integers(0, 1 << 30, size=len(tokens))
    with open(corpus, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["text", "label"])
        start = 0
        for length in lengths:
            label = labels[picks[start] % len(labels)]
            words = synthdata.CLASS_WORDS[label]
            sentence = [
                words[picks[i] % len(words)] if marked[i] else tokens[i]
                for i in range(start, start + length)
            ]
            writer.writerow([" ".join(sentence), label])
            start += length
    return {
        "datasets": [{"name": "corpus", "path": corpus}],
        "groups": ["EDA", "Syn", "BT"],
        "subset_sizes": [AUGMENT_ROWS],
        "aug_percentages": [0, 1.0],
        "rounds": 1,
        "master_seed": seed,
        "resources": {"ppdb": ppdb, "embeddings": emb},
        "providers": {"translation": f"dict:{dic}", "pivot": "en"},
    }


# name, group, pct, uses the file-backed translation cache
PHASES = [
    ("eda", "EDA", 1.0, False),
    ("syn", "Syn", SYN_PCT, False),
    ("bt_cold", "BT", 1.0, True),
    ("bt_warm", "BT", 1.0, True),
]


def write_augment_configs(raw: dict, work: str) -> tuple[str, str, str]:
    """Config files for the augment command: plain, and with a cache file."""
    cache = os.path.join(work, "translations.jsonl")
    plain = os.path.join(work, "config.json")
    cached = os.path.join(work, "config_cache.json")
    for path, extra in ((plain, {}), (cached, {"cache_path": cache})):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**raw, **extra}, fh)
    return plain, cached, cache


def read_csv(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def augment_pass(plain: str, cached: str, cache: str, work: str,
                 source: list[list[str]], stick) -> PassResult:
    """Run the four augment commands in order and check each output."""
    problems: list[str] = []
    phases: dict[str, dict] = {}
    attempted = failed = 0
    if os.path.exists(cache):
        os.remove(cache)
    cache_after_cold = None
    for name, group, pct, uses_cache in PHASES:
        out_dir = os.path.join(work, "out", name)
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = ["augment", "--config", cached if uses_cache else plain,
                "--dataset", "corpus", "--group", group, "--pct", str(pct),
                "--out", out_dir]
        stdout = io.StringIO()
        started = stick.read()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        ended = stick.read()
        seconds = stick.program_s(started, ended)
        rescaled = stick.rescaled_s(started, ended)
        if code != 0:
            problems.append(f"{name}: augment exited {code}")
            phases[name] = {"seconds": seconds, "rescaled_s": rescaled,
                            "rows": 0, "digest": ""}
            continue
        summary = json.loads(stdout.getvalue().strip().splitlines()[-1])
        attempted += summary["targets"]
        failed += summary["failed_targets"]
        rows = read_csv(summary["path"])
        problems += check_augment(name, pct, source, rows, summary)
        phases[name] = {"seconds": seconds, "rescaled_s": rescaled,
                        "rows": len(rows) - len(source),
                        "digest": sha256(summary["path"])}
        if name == "bt_cold":
            cache_after_cold = sha256(cache) if os.path.exists(cache) else None
            if cache_after_cold is None or os.path.getsize(cache) == 0:
                problems.append("bt_cold: the translation cache file is empty")
    if phases["bt_warm"]["digest"] != phases["bt_cold"]["digest"]:
        problems.append("bt_warm output differs from bt_cold output")
    if not os.path.exists(cache) or sha256(cache) != cache_after_cold:
        problems.append("bt_warm changed the translation cache file")
    return PassResult(
        seconds=sum(p["seconds"] for p in phases.values()),
        rescaled_s=sum(p["rescaled_s"] for p in phases.values()),
        attempted=attempted, failed=failed,
        digest=hashlib.sha256(
            "".join(p["digest"] for p in phases.values()).encode()
        ).hexdigest(),
        problems=problems, phases=phases,
    )


def check_augment(name: str, pct: float, source: list[list[str]],
                  rows: list[list[str]], summary: dict) -> list[str]:
    """Originals first and verbatim, one labelled row per target."""
    problems = []
    targets = int(pct * (len(source) - 1))
    generated = rows[len(source):]
    if summary["failed_targets"]:
        problems.append(f"{name}: {summary['failed_targets']} failed targets")
    if summary["targets"] != targets or len(generated) != targets:
        problems.append(
            f"{name}: {len(generated)} generated rows for {targets} targets"
        )
    if rows[:len(source)] != source:
        problems.append(f"{name}: original rows are not first and verbatim")
    if any(len(row) != 2 or not row[0].strip() for row in generated):
        problems.append(f"{name}: a generated row is malformed or empty")
    labels = [row[1] for row in generated if len(row) == 2]
    if pct == 1.0:
        if labels != [row[1] for row in source[1:]]:
            problems.append(f"{name}: generated labels differ from the sources'")
    elif collections.Counter(labels) - collections.Counter(r[1] for r in source[1:]):
        problems.append(f"{name}: generated labels not drawn from the sources'")
    return problems
