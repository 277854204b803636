"""Deterministic synthetic Portuguese-like fixtures.

Generates a sentiment-style corpus, a matching embedding file whose
class words cluster in vector space (so an SVM has signal to learn), a
paraphrase file pairing words within a class, and a reversible
word-translation dictionary. Everything is a pure function of the seed.

Run directly to materialize a ready-to-use demo directory:

    python -m augbench.synthdata --out demo --rows 2000
"""

from __future__ import annotations

import argparse
import os
import random

import numpy as np

from .results import write_csv

POSITIVE = [
    "otimo", "bom", "excelente", "maravilhoso", "perfeito", "adorei",
    "gostei", "recomendo", "lindo", "incrivel", "satisfeito", "rapido",
]
NEGATIVE = [
    "ruim", "pessimo", "horrivel", "terrivel", "odiei", "defeito",
    "quebrado", "lento", "caro", "decepcionante", "atrasado", "fraco",
]
NEUTRAL = [
    "produto", "entrega", "loja", "preco", "qualidade", "embalagem",
    "cor", "tamanho", "modelo", "marca", "comprei", "recebi", "chegou",
    "veio", "ontem", "hoje", "muito", "pouco", "aqui", "agora",
]

CLASS_WORDS = {"positivo": POSITIVE, "negativo": NEGATIVE, "neutro": NEUTRAL}
VOCABULARY = POSITIVE + NEGATIVE + NEUTRAL


def make_corpus(
    path: str,
    rows: int = 2000,
    labels: tuple[str, ...] = ("positivo", "negativo", "neutro"),
    seed: int = 7,
    text_column: str = "text",
    label_column: str = "label",
    marked_word_rate: float = 0.4,
    label_noise: float = 0.12,
) -> None:
    """Write a labeled CSV; each sentence mixes class words and fillers.

    marked_word_rate controls how strongly class words dominate; a slice
    of labels is flipped so classifiers stay below ceiling and paired
    models genuinely disagree.
    """
    rng = random.Random(seed)
    sentences = []
    for _ in range(rows):
        label = rng.choice(labels)
        marked = CLASS_WORDS.get(label, NEUTRAL)
        length = rng.randint(4, 11)
        tokens = []
        for _ in range(length):
            pool = marked if rng.random() < marked_word_rate else NEUTRAL
            tokens.append(rng.choice(pool))
        written = label
        if rng.random() < label_noise:
            written = rng.choice(labels)
        sentences.append([" ".join(tokens), written])
    write_csv(path, [text_column, label_column], sentences)


def make_embeddings(path: str, dim: int = 24, seed: int = 11) -> None:
    """Write a '.vec'-style file with class-clustered random vectors."""
    rng = np.random.default_rng(seed)
    centroids = {name: rng.normal(0.0, 1.2, dim) for name in CLASS_WORDS}
    lines = []
    for name, words in CLASS_WORDS.items():
        for w in words:
            vec = centroids[name] + rng.normal(0.0, 0.7, dim)
            lines.append((w, vec))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(lines)} {dim}\n")
        for word, vec in lines:
            fh.write(
                word + " " + " ".join(repr(round(float(v), 6)) for v in vec) + "\n"
            )


def make_ppdb(path: str) -> None:
    """Write paraphrase records pairing adjacent words within each class."""
    with open(path, "w", encoding="utf-8") as fh:
        for words in CLASS_WORDS.values():
            for i, w in enumerate(words):
                other = words[(i + 1) % len(words)]
                fh.write(f"[X] ||| {w} ||| {other} ||| score=1.0 ||| x\n")


def make_dict_file(path: str) -> None:
    """Write a reversible word dictionary: every word maps to 'q'+reversed."""
    with open(path, "w", encoding="utf-8") as fh:
        for w in VOCABULARY:
            fh.write(f"{w}\tq{w[::-1]}\n")


def make_demo(out_dir: str, rows: int = 2000, seed: int = 7) -> dict:
    """Materialize two corpora plus resources and return config dict parts."""
    os.makedirs(out_dir, exist_ok=True)
    corpus_a = os.path.join(out_dir, "corpus_a.csv")
    corpus_b = os.path.join(out_dir, "corpus_b.csv")
    emb = os.path.join(out_dir, "embeddings.vec")
    ppdb = os.path.join(out_dir, "paraphrases.txt")
    dic = os.path.join(out_dir, "dictionary.tsv")
    make_corpus(corpus_a, rows=rows, seed=seed)
    make_corpus(corpus_b, rows=rows,
                labels=("positivo", "negativo"), seed=seed + 1)
    make_embeddings(emb, seed=seed + 2)
    make_ppdb(ppdb)
    make_dict_file(dic)
    return {
        "datasets": [
            {"name": "synth3", "path": corpus_a,
             "text_column": "text", "label_column": "label"},
            {"name": "synth2", "path": corpus_b,
             "text_column": "text", "label_column": "label"},
        ],
        "groups": ["EDA", "Syn", "BT"],
        "subset_sizes": [300, 600],
        "aug_percentages": [0, 0.2],
        "rounds": 2,
        "master_seed": 20240101,
        "resources": {"ppdb": ppdb, "embeddings": emb},
        "providers": {"translation": f"dict:{dic}", "pivot": "en"},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--rows", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    config = make_demo(args.out, rows=args.rows, seed=args.seed)
    import json

    config_path = os.path.join(args.out, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, ensure_ascii=False)
        fh.write("\n")
    print(f"wrote demo fixtures and {config_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
