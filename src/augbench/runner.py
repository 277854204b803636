"""Experiment grid orchestration: plan, run, and summarize.

A grid cell is (dataset, group, subset size, augmentation percentage,
round). Cells derive their seeds from the master seed by a stable hash
of their coordinates, so any cell is independently re-runnable. The
cells of one (dataset, size, round) run as one unit (see
``GridCell.unit_key``): the subset, split, features and p=0 baseline
are computed once and reused by every group's baseline row and by the
p>0 cells, which keeps McNemar pairs on the identical test set.
``run_unit`` runs one unit and writes nothing; ``GridRunner.run`` writes
what each unit made as the unit ends.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import time
from dataclasses import dataclass

import numpy as np

from . import stats
from .corpus import (
    Dataset, load_dataset, resample_subset, select_augmentation_targets, split,
)
from .eda import EdaConfig, eda_augment
from .errors import ConfigError, InvariantError, TrainingError, open_input
from .features import featurize, grid_step, to_grid
from .kernels import Distances, sq_distances
from .metrics import evaluate, save_predictions
from .pipeline import (
    augment_training_set, back_translate, count_unchanged, sequential_augment,
)
from .providers import (
    ProviderSpec, SynStage, TranslationCache, config_float, config_int,
    make_contextual_provider, make_translation_provider, neighbor_stage,
    provider_spec,
)
from .resources import EmbeddingStore, SynonymMap, load_embeddings, parse_ppdb
from .results import (
    GROUPS, STATUS_AUG_FAILED, STATUS_OK, STATUS_TRAIN_FAILED,
    ExperimentResult, write_results_csv,
)
from .svm import SvmConfig, svm_predict, svm_train


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    path: str
    text_column: str = "text"
    label_column: str = "label"


@dataclass(frozen=True)
class ExperimentConfig:
    datasets: tuple[DatasetSpec, ...]
    groups: tuple[str, ...]
    subset_sizes: tuple[int, ...]
    aug_percentages: tuple[float, ...]
    rounds: int
    master_seed: int
    embeddings_path: str
    ppdb_path: str | None
    resource_id: str | None  # free-form provenance tag, logged only
    translation: ProviderSpec | None
    contextual: ProviderSpec | None
    pivot: str
    source_lang: str
    syn_rate: float
    syn_stages: tuple[str, ...]
    embedding_neighbors_k: int
    eda: EdaConfig
    svm: SvmConfig
    split_ratio: float
    cache_path: str | None


@dataclass(frozen=True)
class GridCell:
    dataset: str
    group: str
    subset_size: int
    aug_pct: float
    round: int

    def key(self) -> tuple[str, str, int, float, int]:
        return (self.dataset, self.group, self.subset_size, self.aug_pct, self.round)

    def unit_key(self) -> tuple[str, int, int]:
        """Coordinates that salt the cell's subset and split: the cells
        of every group that share them share one p=0 baseline."""
        return (self.dataset, self.subset_size, self.round)


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate the declarative JSON experiment config."""
    try:
        with open_input(path, "config", ConfigError) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(raw)


def _section(raw: dict, key: str) -> dict:
    """The mapping at ``key`` of a config, {} when it is absent."""
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a mapping, not {value!r}")
    return value


def _array(value, key: str) -> list | tuple:
    """A list config value; a string, which would iterate as its
    characters, or a mapping is a ConfigError."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list, not {value!r}")
    return value


def _dataset_spec(d, i: int) -> DatasetSpec:
    """``datasets[i]``: its name and columns must be strings; its path is
    checked with the other paths."""
    key = f"datasets[{i}]"
    if not isinstance(d, dict):
        raise ConfigError(f"{key} must be a mapping, not {d!r}")
    spec = DatasetSpec(
        name=d["name"], path=d["path"],
        text_column=d.get("text_column", "text"),
        label_column=d.get("label_column", "label"),
    )
    for name in ("name", "text_column", "label_column"):
        value = getattr(spec, name)
        if not isinstance(value, str):
            raise ConfigError(f"{key}.{name} must be a string, not {value!r}")
    return spec


def config_from_dict(raw: dict) -> ExperimentConfig:
    try:
        datasets = tuple(
            _dataset_spec(d, i)
            for i, d in enumerate(_array(raw["datasets"], "datasets"))
        )
        groups = tuple(dict.fromkeys(_array(raw["groups"], "groups")))
        sizes = tuple(dict.fromkeys(
            config_int(n, "subset_sizes")
            for n in _array(raw["subset_sizes"], "subset_sizes")))
        pcts = tuple(dict.fromkeys(
            config_float(p, "aug_percentages")
            for p in _array(raw["aug_percentages"], "aug_percentages")))
        rounds = config_int(raw["rounds"], "rounds")
        master_seed = config_int(raw["master_seed"], "master_seed")
        resources = _section(raw, "resources")
        providers = _section(raw, "providers")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config: {exc!r}") from exc
    if not datasets:
        raise ConfigError("config needs at least one dataset")
    if len({d.name for d in datasets}) != len(datasets):
        raise ConfigError("dataset names must be unique")
    if not groups:
        raise ConfigError("config needs at least one augmentation group")
    unknown = [g for g in groups if g not in GROUPS]
    if unknown:
        raise ConfigError(f"unknown augmentation group(s) {unknown}; use {GROUPS}")
    if not sizes or any(n < 1 for n in sizes):
        raise ConfigError("subset_sizes must be non-empty positive integers")
    if 0.0 not in pcts:
        raise ConfigError("aug_percentages must contain 0 (baselines are required)")
    if any(not 0.0 <= p <= 1.0 for p in pcts):
        raise ConfigError("aug_percentages must lie in [0, 1]")
    if rounds < 1:
        raise ConfigError("rounds must be >= 1")
    embeddings_path = resources.get("embeddings")
    if not embeddings_path:
        raise ConfigError("resources.embeddings is required")
    ppdb_path = resources.get("ppdb")
    if ppdb_path is None and ("EDA" in groups or "Syn" in groups):
        raise ConfigError("resources.ppdb is required for EDA and Syn groups")
    translation = providers.get("translation")
    if translation is None and "BT" in groups:
        raise ConfigError("providers.translation is required for the BT group")
    contextual = providers.get("contextual")
    stages = providers.get("syn_stages")
    if stages is None:
        stages = ["ppdb", "embedding"] + (["contextual"] if contextual else [])
    stages = _array(stages, "providers.syn_stages")
    pivot = providers.get("pivot", "en")
    source_lang = providers.get("source_lang", "pt")
    if not (isinstance(pivot, str) and isinstance(source_lang, str)):
        raise ConfigError("providers.pivot and providers.source_lang must be strings")
    eda_raw = _section(raw, "eda")
    svm_raw = _section(raw, "svm")
    gamma = svm_raw.get("gamma", SvmConfig.gamma)
    try:
        config = ExperimentConfig(
            datasets=datasets,
            groups=groups,
            subset_sizes=sizes,
            aug_percentages=pcts,
            rounds=rounds,
            master_seed=master_seed,
            embeddings_path=embeddings_path,
            ppdb_path=ppdb_path,
            resource_id=resources.get("resource_id"),
            translation=None if translation is None
            else provider_spec(translation, "translation"),
            contextual=provider_spec(contextual, "contextual")
            if contextual is not None or "contextual" in stages else None,
            pivot=pivot,
            source_lang=source_lang,
            syn_rate=config_float(providers.get("syn_rate", 0.1),
                                  "providers.syn_rate"),
            syn_stages=tuple(stages),
            embedding_neighbors_k=config_int(
                providers.get("embedding_neighbors_k", 5),
                "providers.embedding_neighbors_k"),
            eda=EdaConfig(
                alpha=config_float(eda_raw.get("alpha", EdaConfig.alpha), "eda.alpha"),
                n_aug=config_int(eda_raw.get("n_aug", EdaConfig.n_aug), "eda.n_aug"),
                op_mode=eda_raw.get("op_mode", EdaConfig.op_mode),
            ),
            svm=SvmConfig(
                C=config_float(svm_raw.get("C", SvmConfig.C), "svm.C"),
                gamma=gamma if isinstance(gamma, str)
                else config_float(gamma, "svm.gamma"),
                tol=config_float(svm_raw.get("tol", SvmConfig.tol), "svm.tol"),
            ),
            split_ratio=config_float(raw.get("split_ratio", 0.75), "split_ratio"),
            cache_path=raw.get("cache_path"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    _check_values(config)
    return config


def _check_values(config: ExperimentConfig) -> None:
    """Reject a value that would fail only once the inputs are read, for
    every config whatever its groups: an augment command that reads no
    syn stage still rejects the syn stages a grid could not build."""
    if not 0.0 < config.syn_rate <= 1.0:
        raise ConfigError(f"providers.syn_rate {config.syn_rate} outside (0, 1]")
    if not 0.0 < config.split_ratio < 1.0:
        raise ConfigError(f"split_ratio {config.split_ratio} outside (0, 1)")
    # open() would take an int for a file descriptor
    paths = [(f"datasets[{i}].path", d.path)
             for i, d in enumerate(config.datasets)]
    paths.append(("resources.embeddings", config.embeddings_path))
    paths += [(key, path) for key, path in (("resources.ppdb", config.ppdb_path),
                                            ("cache_path", config.cache_path))
              if path is not None]
    for key, path in paths:
        if not isinstance(path, str):
            raise ConfigError(f"{key} must be a string path, not {path!r}")
    for stage in config.syn_stages:
        if stage == "ppdb":
            if not config.ppdb_path:
                raise ConfigError("syn stage 'ppdb' needs resources.ppdb")
        elif stage == "embedding":
            if config.embedding_neighbors_k < 1:
                raise ConfigError("providers.embedding_neighbors_k must be >= 1")
        elif stage != "contextual":  # its spec is parsed with the config
            raise ConfigError(f"unknown syn stage {stage!r}")


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 63-bit seed from the master seed and coordinate parts."""
    text = "|".join([str(master_seed), *(str(p) for p in parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def plan_grid(config: ExperimentConfig) -> list[GridCell]:
    """Cartesian product of the grid axes in deterministic order."""
    return [
        GridCell(d.name, g, n, p, r)
        for d, g, n, p, r in itertools.product(
            config.datasets, config.groups, config.subset_sizes,
            config.aug_percentages, range(config.rounds),
        )
    ]


@dataclass
class Resources:
    """Everything loaded once and shared read-only across cells.

    An input the run does not read is None (``cache`` is then an empty
    in-memory cache). Whoever calls ``load_resources`` closes ``cache``
    when done with it.
    """

    datasets: dict[str, Dataset]
    embeddings: EmbeddingStore | None
    synmap: SynonymMap | None
    syn_stages: list[SynStage]
    translation: object | None
    cache: TranslationCache
    grid_step: float | None  # features.grid_step of the embeddings, if featurized


def load_resources(config: ExperimentConfig, *,
                   featurize: bool = True) -> Resources:
    """Load the inputs a run reads: the one place that decides which.

    Each group in ``config.groups`` adds what it uses: EDA the
    paraphrase map; Syn the inputs of its ``syn_stages``; BT the
    translation provider and the cache file. A run that featurizes (a
    grid, ``featurize=True``) reads the embeddings too; the augment
    command passes ``featurize=False``. An embedding dimension too large
    for exact distances is a ResourceError here, before any training.
    """
    stages = config.syn_stages if "Syn" in config.groups else ()
    datasets = {
        spec.name: load_dataset(
            spec.path, text_column=spec.text_column,
            label_column=spec.label_column, name=spec.name,
        )
        for spec in config.datasets
    }
    embeddings = (
        load_embeddings(config.embeddings_path)
        if featurize or "embedding" in stages else None
    )
    synmap = (
        parse_ppdb(config.ppdb_path)
        if config.ppdb_path and ("EDA" in config.groups or "ppdb" in stages)
        else None
    )
    syn_stages: list[SynStage] = []
    for stage in stages:  # each checked by config_from_dict
        if stage == "ppdb":
            syn_stages.append(lambda tokens, i: synmap.candidates(tokens[i]))
        elif stage == "embedding":
            syn_stages.append(
                neighbor_stage(embeddings, config.embedding_neighbors_k))
        elif stage == "contextual":
            syn_stages.append(make_contextual_provider(config.contextual))
    back_translates = "BT" in config.groups
    return Resources(
        datasets=datasets,
        embeddings=embeddings,
        synmap=synmap,
        syn_stages=syn_stages,
        translation=make_translation_provider(
            config.translation, config.source_lang) if back_translates else None,
        cache=TranslationCache(config.cache_path if back_translates else None),
        grid_step=grid_step(embeddings.matrix) if featurize else None,
    )


def make_augmenter(config: ExperimentConfig, resources: Resources,
                    cell: GridCell):
    """Per-cell augmenter closure with a cell-seeded RNG."""
    rng = random.Random(
        derive_seed(config.master_seed, "augment", *cell.key())
    )
    if cell.group == "EDA":
        return lambda ex: eda_augment(ex, config.eda, resources.synmap, rng)
    if cell.group == "Syn":
        return lambda ex: [
            sequential_augment(
                ex, resources.syn_stages, config.syn_rate, rng
            )
        ]
    if cell.group == "BT":
        return lambda ex: [
            back_translate(
                ex, resources.translation, config.pivot, resources.cache,
                source_lang=config.source_lang,
            )
        ]
    raise ConfigError(f"unknown group {cell.group!r}")


@dataclass(frozen=True)
class CellAugmentation:
    targets: list[int]
    dataset: Dataset  # the originals, verbatim and first, then the new rows
    failures: list[int]  # targets skipped by EmptySentenceError
    per_target: int  # rows generated by each target outside ``failures``


def augment_cell(config: ExperimentConfig, resources: Resources,
                 cell: GridCell, train: Dataset) -> CellAugmentation:
    """Draw the cell's targets from ``train`` and augment them.

    The one place a cell is augmented, for the grid and the augment
    command alike. Raises InvariantError unless the originals come
    first and verbatim and each target that did not fail added
    ``per_target`` rows.
    """
    targets = select_augmentation_targets(
        train, cell.aug_pct,
        derive_seed(config.master_seed, "targets", *cell.key()),
    )
    augmented, failures = augment_training_set(
        train, targets, make_augmenter(config, resources, cell)
    )
    per_target = config.eda.n_aug if cell.group == "EDA" else 1
    expected = len(train) + (len(targets) - len(failures)) * per_target
    if (augmented.examples[: len(train)] != train.examples
            or len(augmented) != expected):
        raise InvariantError(f"augmentation purity violated for {cell.key()}")
    return CellAugmentation(targets, augmented, failures, per_target)


def run_unit(config: ExperimentConfig, resources: Resources,
             cells: list[GridCell]) -> tuple[list[ExperimentResult],
                                             list[dict], list[tuple]]:
    """Run the cells of one unit key; write nothing.

    The subset, split, features (rounded to the resources' grid), the
    squared distances among the training rows and the p=0 model are
    computed once and shared by every group's baseline row and by every
    p>0 cell, which featurizes only its generated sentences and computes
    only their distances. Returns the rows in cell
    order, the unit's run-log records and one prediction payload
    ``(cell, y_true, y_pred)`` per cell that has predictions.
    """
    first = cells[0]
    key = first.unit_key()
    started = time.perf_counter()
    subset = resample_subset(
        resources.datasets[first.dataset], first.subset_size,
        derive_seed(config.master_seed, "subset", *key),
    )
    pair = split(
        subset, ratio=config.split_ratio,
        seed=derive_seed(config.master_seed, "split", *key),
    )
    if set(pair.train_indices) & set(pair.test_indices):
        raise InvariantError(f"train and test sets overlap in subset {key}")
    emb, step = resources.embeddings, resources.grid_step
    X_test = to_grid(featurize(pair.test, emb), step)
    X_train = to_grid(featurize(pair.train, emb), step)
    D_train = sq_distances(X_train, X_train)
    y_test = pair.test.labels()
    baseline_preds, baseline_error = _train_predict(
        config.svm, X_train, pair.train.labels(), X_test, Distances(D_train)
    )
    baseline_f1: float | None = None
    if baseline_preds is not None:
        baseline_f1 = evaluate(y_test, baseline_preds).weighted_f1
    records = [{"event": "baseline", "subset": list(key),
                "status": STATUS_OK if baseline_preds is not None
                else STATUS_TRAIN_FAILED,
                "seconds": round(time.perf_counter() - started, 4)}]
    rows: list[ExperimentResult] = []
    payloads: list[tuple[GridCell, list[str], list[str]]] = []
    for cell in cells:
        started = time.perf_counter()
        row = ExperimentResult(*cell.key())
        preds, error, facts = baseline_preds, baseline_error, {}
        if cell.aug_pct > 0.0:
            aug = augment_cell(config, resources, cell, pair.train)
            facts = {
                "generated_rows": len(aug.dataset) - len(pair.train),
                "unchanged_rows": count_unchanged(
                    pair.train, aug.targets, aug.failures, aug.dataset,
                    aug.per_target,
                ),
            }
            if aug.failures:
                facts["failed_targets"] = len(aug.failures)
                row.status, preds = STATUS_AUG_FAILED, None
            else:
                generated = Dataset(
                    name=pair.train.name,
                    examples=aug.dataset.examples[len(pair.train):],
                )
                X_new = to_grid(featurize(generated, emb), step)
                preds, error = _train_predict(
                    config.svm, np.vstack([X_train, X_new]),
                    aug.dataset.labels(), X_test,
                    Distances(D_train, sq_distances(X_new, X_train),
                              sq_distances(X_new, X_new)),
                )
        if preds is not None:
            row.f1 = evaluate(y_test, preds).weighted_f1
            payloads.append((cell, y_test, preds))
            if cell.aug_pct > 0.0 and baseline_preds is not None:
                row.baseline_f1 = baseline_f1
                row.gain = row.f1 - baseline_f1
                if row.gain > 0:
                    table = stats.contingency(y_test, baseline_preds, preds)
                    test = stats.mcnemar(table)
                    row.b, row.c = table.b, table.c
                    row.chi2, row.p_value = test.chi2, test.p_value
        elif row.status == STATUS_OK:
            row.status = STATUS_TRAIN_FAILED
            facts["error"] = error
        records.append({
            "event": "cell", "dataset": cell.dataset, "group": cell.group,
            "subset_size": cell.subset_size, "aug_pct": cell.aug_pct,
            "round": cell.round, "status": row.status,
            "seconds": round(time.perf_counter() - started, 4), **facts,
        })
        rows.append(row)
    return rows, records, payloads


def _train_predict(svm: SvmConfig, X_train: np.ndarray, y_train: list[str],
                   X_test: np.ndarray, distances: Distances
                   ) -> tuple[list[str] | None, str | None]:
    """(test-set predictions, None), or (None, the message) on TrainingError."""
    try:
        model = svm_train(X_train, y_train, svm, distances=distances)
        return svm_predict(model, X_test), None
    except TrainingError as exc:
        return None, str(exc)


class GridRunner:
    """Runs the units of its cells one after another and writes what they made."""

    def __init__(self, config: ExperimentConfig, out_dir: str,
                 resources: Resources):
        self.config = config
        self.out_dir = out_dir
        self.resources = resources

    def run(self, cells: list[GridCell] | None = None) -> list[ExperimentResult]:
        """Run ``cells`` (the whole plan when None) and write their outputs.

        The only writer of the output directory: each unit's prediction
        files and run-log records are written when the unit ends, and
        results.csv, in cell order, after the last unit.
        """
        cells = plan_grid(self.config) if cells is None else cells
        units: dict[tuple, list[GridCell]] = {}
        for cell in cells:
            units.setdefault(cell.unit_key(), []).append(cell)
        emb, synmap = self.resources.embeddings, self.resources.synmap
        inputs = [{
            "event": "resources", "resource_id": self.config.resource_id,
            "embeddings": {"dim": emb.dim, "words": len(emb),
                           "skipped": emb.skipped},
            "ppdb": None if synmap is None else {
                "entries": len(synmap), "skipped": synmap.skipped},
        }]
        for name, ds in self.resources.datasets.items():
            hist: dict[str, int] = {}
            for ex in ds:
                hist[ex.label] = hist.get(ex.label, 0) + 1
            inputs.append({"event": "dataset", "name": name, "rows": len(ds),
                           "skipped_rows": ds.skipped, "label_histogram": hist})
        predictions_dir = os.path.join(self.out_dir, "predictions")
        os.makedirs(predictions_dir, exist_ok=True)
        results: dict[tuple, ExperimentResult] = {}
        with open(os.path.join(self.out_dir, "run_log.jsonl"), "w",
                  encoding="utf-8") as log:
            def append(records: list[dict]) -> None:
                log.writelines(json.dumps(r, ensure_ascii=False, sort_keys=True)
                               + "\n" for r in records)
                log.flush()

            append(inputs)
            for unit in units.values():
                rows, records, payloads = run_unit(
                    self.config, self.resources, unit)
                for cell, y_true, y_pred in payloads:
                    name = "_".join(map(str, cell.key())) + ".jsonl"
                    save_predictions(os.path.join(predictions_dir, name),
                                     y_true, y_pred)
                append(records)
                results.update((row.key(), row) for row in rows)
        ordered = [results[c.key()] for c in cells]
        write_results_csv(os.path.join(self.out_dir, "results.csv"), ordered)
        return ordered


def run_grid(config: ExperimentConfig, out_dir: str,
             cells: list[GridCell] | None = None) -> list[ExperimentResult]:
    """Run ``cells`` (the full grid when None) with freshly loaded inputs
    and write results.csv plus the run log."""
    resources = load_resources(config)
    try:
        return GridRunner(config, out_dir, resources).run(cells)
    finally:
        resources.cache.close()
