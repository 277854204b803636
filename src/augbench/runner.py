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

import collections
import difflib
import functools
import hashlib
import itertools
import json
import math
import os
import random
import time
from dataclasses import dataclass

import numpy as np

from . import stats
from .corpus import (
    Dataset, check_subset, load_dataset, resample_subset,
    select_augmentation_targets, split,
)
from .eda import EdaConfig, eda_augment
from .errors import ConfigError, InvariantError, TrainingError, open_input
from .kernels import Distances, sq_distances
from .metrics import evaluate, save_predictions
from .pipeline import (
    augment_training_set, back_translate, is_degenerate, per_sentence,
    sequential_augment,
)
from .providers import (
    ProviderSpec, SynStage, TranslationCache, make_contextual_provider,
    make_translation_provider, neighbor_stage, table_stage,
)
from .resources import (
    EmbeddingStore, SynonymMap, featurize, load_embeddings, parse_ppdb,
)
from .results import (
    GROUPS, STATUS_AUG_FAILED, STATUS_OK, STATUS_TRAIN_FAILED,
    ExperimentResult, file_name_part, make_output_dir, write_results_csv,
)
from .svm import SvmConfig, SvmModel, svm_predict, svm_train


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    path: str
    text_column: str
    label_column: str


@dataclass(frozen=True)
class ExperimentConfig:
    datasets: tuple[DatasetSpec, ...]
    groups: tuple[str, ...]
    subset_sizes: tuple[int, ...]
    aug_percentages: tuple[float, ...]
    rounds: int
    master_seed: int
    embeddings: str
    ppdb: str | None
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


# How a config key is read: ``kind(value, name)`` reads its value, ``name``
# being its dotted path; ``default`` is its value when it is absent (or
# null, if the default is None); ``check`` is the interval, as "(0, 1]",
# that its value or each element of a list value must lie in.
Key = collections.namedtuple("Key", "kind default check", defaults=(None, None))
REQUIRED = object()  # the default of a key that a config must state
RETIRED = None  # the entry of a key that is accepted and ignored


def config_int(value, key: str) -> int:
    """An int, or a float with no fraction part; ``int()`` would quietly
    run ``true``, ``"7"`` and 7.9 as 1, 7 and 7."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, not {value!r}")
    return value


def config_float(value, key: str) -> float:
    """A finite int or float; ``float()`` would run ``true`` and ``"0.5"``
    as 1.0 and 0.5, and ``json.load`` reads Infinity and NaN."""
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (OverflowError, TypeError):  # an int beyond floats, or no number
        pass
    raise ConfigError(f"{key} must be a finite number, not {value!r}")


def _string(value, key: str, what: str = "a string") -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be {what}, not {value!r}")
    return value


# open() would take an int for a file descriptor
_path = functools.partial(_string, what="a string path")


def _dataset_name(value, key: str) -> str:
    """A string file_name_part accepts: output file names start with it."""
    return file_name_part(_string(value, key), key, ConfigError)


def _as_is(value, key: str):
    return value


def _array(item=_as_is, unique: bool = False):
    """The kind of a list (not a string, which would iterate as its
    characters) whose elements ``item`` reads; ``unique`` drops repeats."""
    def kind(value, key: str) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list, not {value!r}")
        items = [item(v, key) for v in value]
        return tuple(dict.fromkeys(items) if unique else items)
    return kind


def _dataset_specs(value, key: str) -> tuple[DatasetSpec, ...]:
    return tuple(DatasetSpec(**_walk(d, DATASET, f"{key}[{i}]"))
                 for i, d in enumerate(_array()(value, key)))


# Each provider family's mocks: "identity", or "<kind>:" and a file path.
_MOCKS = {"translation": ("identity", "dict:"), "contextual": ("stub:",)}


def provider_spec(value, key: str) -> ProviderSpec:
    """A provider of the family that ends ``key``: a mock's name, or
    {"http": the JSON client's options}, which HTTP reads."""
    family = key.rpartition(".")[2]
    if isinstance(value, dict) and "http" in value:
        return ProviderSpec("http", options=_walk(value, HTTP, key)["http"])
    if isinstance(value, str):
        kind, colon, path = value.partition(":")
        if kind + colon in _MOCKS[family]:
            return ProviderSpec(kind, path)
    raise ConfigError(f"unusable {family} provider config: {value!r}")


# The keys of a config, nested as its sections are. The ranges of eda.*
# and svm.* are EdaConfig's and SvmConfig's; config_from_dict checks the
# rules across keys.
CONFIG = {
    "datasets": Key(_dataset_specs, REQUIRED),
    "groups": Key(_array(), REQUIRED),
    "subset_sizes": Key(_array(config_int, unique=True), REQUIRED, "[1, inf)"),
    "aug_percentages": Key(_array(config_float, unique=True), REQUIRED,
                           "[0, 1]"),
    "rounds": Key(config_int, REQUIRED, "[1, inf)"),
    "master_seed": Key(config_int, REQUIRED),
    "resources": {
        "embeddings": Key(_path, REQUIRED),
        "ppdb": Key(_path),
        "resource_id": Key(_as_is),
    },
    "providers": {
        "translation": Key(provider_spec),
        "contextual": Key(provider_spec),
        "pivot": Key(_string, "en"),
        "source_lang": Key(_string, "pt"),
        "syn_rate": Key(config_float, 0.1, "(0, 1]"),
        "syn_stages": Key(_array()),
        "embedding_neighbors_k": Key(config_int, 5),
    },
    "eda": {
        "alpha": Key(config_float, EdaConfig.alpha),
        "n_aug": Key(config_int, EdaConfig.n_aug),
        "op_mode": Key(_as_is, EdaConfig.op_mode),
    },
    "svm": {
        "C": Key(config_float, SvmConfig.C),
        # a mode name is SvmConfig's to check
        "gamma": Key(lambda v, k: v if isinstance(v, str) else config_float(v, k),
                     SvmConfig.gamma),
        "tol": Key(config_float, SvmConfig.tol),
    },
    "split_ratio": Key(config_float, 0.75, "(0, 1)"),
    "cache_path": Key(_path),
    "workers": RETIRED,
    "share_subsets_across_groups": RETIRED,
}
# The keys of each element of datasets.
DATASET = {
    "name": Key(_dataset_name, REQUIRED),
    "path": Key(_path, REQUIRED),
    "text_column": Key(_string, "text"),
    "label_column": Key(_string, "label"),
}
# A remote provider of either family.
HTTP = {"http": {
    "url": Key(_string, REQUIRED),
    "key_env": Key(_string),
    "timeout": Key(config_float, 10.0, "(0, inf)"),
    "max_retries": Key(config_int, 3, "[0, inf)"),
    "backoff_base": Key(config_float, 0.2, "[0, inf)"),
    # null, like 0, is no cap
    "rate_per_second": Key(
        lambda v, k: 0.0 if v is None else config_float(v, k), 0.0, "[0, inf)"),
    "max_in_flight": RETIRED,
}}


def _inside(value: float, interval: str) -> bool:
    low, high = map(float, interval[1:-1].split(", "))
    return ((low < value) if interval[0] == "(" else (low <= value)) and (
        (value < high) if interval[-1] == ")" else (value <= high))


def _listed(table: dict, prefix: str) -> list[str]:
    """The dotted path of every key ``table`` lists, its sections' keys
    included."""
    paths = []
    for key, k in table.items():
        if k is not RETIRED:
            paths.append(prefix + key)
            if isinstance(k, dict):
                paths += _listed(k, f"{prefix}{key}.")
    return paths


def _walk(raw, table: dict, where: str = "") -> dict:
    """The values of ``table``'s keys in the mapping ``raw`` found at
    ``where`` ("" for a whole config), a section's as a dict. A key that
    the table does not list is a ConfigError naming the nearest key it
    lists at or below ``where``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where or 'config'} must be a mapping, not {raw!r}")
    prefix = f"{where}." if where else ""
    for key in raw:
        if key not in table:
            near = difflib.get_close_matches(
                prefix + key, _listed(table, prefix), n=1)
            hint = f"; did you mean {near[0]!r}?" if near else ""
            raise ConfigError(f"unknown config key {prefix + key!r}{hint}")
    out = {}
    for key, k in table.items():
        name = prefix + key
        if isinstance(k, dict):
            value = _walk(raw.get(key, {}), k, name)
        elif k is RETIRED:
            continue
        elif key not in raw or raw[key] is None and k.default is None:
            if k.default is REQUIRED:
                raise ConfigError(f"{name} is required")
            value = k.default
        else:
            value = k.kind(raw[key], name)
            for item in value if isinstance(value, tuple) else (value,):
                if k.check and not _inside(item, k.check):
                    raise ConfigError(f"{name} {item} outside {k.check}")
        out[key] = value
    return out


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object of a config file; a repeated key, whose last value
    ``json.load`` would keep, is a ConfigError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"repeated config key {key!r}")
        obj[key] = value
    return obj


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate the declarative JSON experiment config."""
    try:
        with open_input(path, "config", ConfigError) as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """The config ``raw`` states, read by CONFIG. The rules across keys
    hold whatever the groups, so a bad value fails before any input is read."""
    v = _walk(raw, CONFIG)
    resources, providers = v.pop("resources"), v.pop("providers")
    groups, ppdb = v["groups"], resources["ppdb"]
    for key in ("datasets", "groups", "subset_sizes"):
        if not v[key]:
            raise ConfigError(f"{key} must not be empty")
    if len({d.name for d in v["datasets"]}) != len(v["datasets"]):
        raise ConfigError("dataset names must be unique")
    for i, d in enumerate(v["datasets"]):  # else each row is its own class
        if d.text_column == d.label_column:
            raise ConfigError(f"datasets[{i}].label_column equals its text_column")
    unknown = [g for g in groups if g not in GROUPS]
    if unknown:
        raise ConfigError(f"unknown augmentation group(s) {unknown}; use {GROUPS}")
    groups = v["groups"] = tuple(dict.fromkeys(groups))
    if 0.0 not in v["aug_percentages"]:
        raise ConfigError("aug_percentages must contain 0 (baselines are required)")
    if ppdb is None and "EDA" in groups:
        raise ConfigError("resources.ppdb is required for the EDA group")
    if providers["translation"] is None and "BT" in groups:
        raise ConfigError("providers.translation is required for the BT group")
    if providers["pivot"] == providers["source_lang"]:  # no round trip
        raise ConfigError("providers.pivot equals providers.source_lang")
    stages = providers["syn_stages"]
    if stages is None:
        stages = providers["syn_stages"] = ("ppdb", "embedding") + (
            ("contextual",) if providers["contextual"] else ())
    elif not stages:
        raise ConfigError("providers.syn_stages must not be empty")
    for stage in stages:
        if stage not in ("ppdb", "embedding", "contextual"):
            raise ConfigError(f"unknown syn stage {stage!r}")
    if "ppdb" in stages and not ppdb:
        raise ConfigError("syn stage 'ppdb' needs resources.ppdb")
    if "embedding" in stages and providers["embedding_neighbors_k"] < 1:
        raise ConfigError("providers.embedding_neighbors_k must be >= 1")
    if "contextual" in stages and providers["contextual"] is None:
        raise ConfigError("unusable contextual provider config: None")
    try:
        eda, svm = EdaConfig(**v.pop("eda")), SvmConfig(**v.pop("svm"))
    except ValueError as exc:  # their range checks
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(**v, **resources, **providers, eda=eda, svm=svm)


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


def load_resources(config: ExperimentConfig, *,
                   featurize: bool = True) -> Resources:
    """Load the inputs a run reads: the one place that decides which.

    Each group in ``config.groups`` adds what it uses: EDA the
    paraphrase map; Syn the inputs of its ``syn_stages``; BT the
    translation provider and the cache file. A run that featurizes (a
    grid, ``featurize=True``) reads the embeddings too; the augment
    command passes ``featurize=False``. Embeddings too wide or of
    entries too large or too small for exact distances are a
    ResourceError as they load, before any training.
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
        load_embeddings(config.embeddings)
        if featurize or "embedding" in stages else None
    )
    synmap = (
        parse_ppdb(config.ppdb)
        if config.ppdb and ("EDA" in config.groups or "ppdb" in stages)
        else None
    )
    syn_stages: list[SynStage] = []
    for stage in stages:  # each checked by config_from_dict
        if stage == "ppdb":
            syn_stages.append(table_stage(synmap))
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
    )


def make_augmenter(config: ExperimentConfig, resources: Resources,
                    cell: GridCell):
    """Per-cell augmenter over the cell's target examples; EDA and Syn
    draw from one cell-seeded RNG, in target order."""
    rng = random.Random(
        derive_seed(config.master_seed, "augment", *cell.key())
    )
    if cell.group == "EDA":
        return per_sentence(
            lambda ex: eda_augment(ex, config.eda, resources.synmap, rng))
    if cell.group == "Syn":
        return per_sentence(lambda ex: [
            sequential_augment(ex, resources.syn_stages, config.syn_rate, rng)
        ])
    if cell.group == "BT":
        return lambda examples: back_translate(
            examples, resources.translation, config.pivot, resources.cache,
            source_lang=config.source_lang,
        )
    raise ConfigError(f"unknown group {cell.group!r}")


@dataclass(frozen=True)
class CellAugmentation:
    targets: list[int]
    failures: list[int]  # targets skipped by EmptySentenceError
    added: Dataset  # the generated rows, in target order
    sources: list[int]  # the training index of the target that made added[k]


def augment_cell(config: ExperimentConfig, resources: Resources,
                 cell: GridCell, train: Dataset) -> CellAugmentation:
    """Draw the cell's targets from ``train`` and augment them.

    The one place a cell is augmented, for the grid and the augment
    command alike. A target outside the failures makes EDA's ``n_aug``
    rows, or one for Syn and BT. Raises InvariantError unless the
    originals come first and verbatim and each source made one row.
    """
    targets = select_augmentation_targets(
        train, cell.aug_pct,
        derive_seed(config.master_seed, "targets", *cell.key()),
    )
    augmented, failures = augment_training_set(
        train, targets, make_augmenter(config, resources, cell)
    )
    per_target = config.eda.n_aug if cell.group == "EDA" else 1
    failed = set(failures)
    kept = [t for t in targets if t not in failed] if failed else targets
    sources = [0] * (len(kept) * per_target)
    for k in range(per_target):  # kept[j] made rows j * per_target + k
        sources[k::per_target] = kept
    if (augmented.examples[: len(train)] != train.examples
            or len(augmented) != len(train) + len(sources)):
        raise InvariantError(f"augmentation purity violated for {cell.key()}")
    added = Dataset(train.name, augmented.examples[len(train):])
    return CellAugmentation(targets, failures, added, sources)


def run_unit(config: ExperimentConfig, resources: Resources,
             cells: list[GridCell]) -> tuple[list[ExperimentResult],
                                             list[dict], list[tuple]]:
    """Run the cells of one unit key; write nothing.

    The subset, split, features (rounded to the resources' grid) and the
    squared distances among the training rows and from the test rows to
    them are computed once. ``fit`` trains, predicts and scores each model
    on them plus the rows it adds, whose features and distances alone it
    computes. The baseline is the training with no added rows, reported
    by every group's p=0 row and paired with every p>0 cell, whose solves
    start from its solution. Returns the rows in cell order, the unit's
    run-log records and one prediction payload ``(cell, y_true, y_pred)``
    per cell that has predictions.
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
    emb = resources.embeddings
    X_test = featurize(pair.test, emb)
    X_train = featurize(pair.train, emb)
    D_train = sq_distances(X_train, X_train)
    D_test = sq_distances(X_test, X_train)
    y_test = pair.test.labels()

    def fit(added: Dataset, start: SvmModel | None = None) -> tuple[
            SvmModel | None, list[str] | None, float | None, str | None]:
        """(model, test predictions, weighted F1, None) of the SVM trained
        on the training rows, then ``added``, its solves started from
        ``start``; (None, None, None, message) on TrainingError."""
        X_new = featurize(added, emb)
        try:
            model = svm_train(
                np.vstack([X_train, X_new]), pair.train.labels() + added.labels(),
                config.svm, distances=Distances(
                    [D_train], [sq_distances(X_new, X_train),
                                sq_distances(X_new, X_new)]), start=start)
            preds = svm_predict(model, Distances([D_test, sq_distances(X_test, X_new)]))
        except TrainingError as exc:
            return None, None, None, str(exc)
        return model, preds, evaluate(y_test, preds).weighted_f1, None

    base_model, *baseline = fit(Dataset(pair.train.name, ()))
    base_preds, base_f1, _ = baseline
    records = [{"event": "baseline", "subset": list(key),
                "status": STATUS_OK if base_preds is not None
                else STATUS_TRAIN_FAILED,
                "seconds": round(time.perf_counter() - started, 4)}]
    rows: list[ExperimentResult] = []
    payloads: list[tuple[GridCell, list[str], list[str]]] = []
    for cell in cells:
        started = time.perf_counter()
        row = ExperimentResult(*cell.key())
        (preds, f1, error), facts = baseline, {}
        if cell.aug_pct > 0.0:
            aug = augment_cell(config, resources, cell, pair.train)
            facts = {
                "generated_rows": len(aug.added),
                "unchanged_rows": sum(
                    is_degenerate(pair.train[s].text, ex.text)
                    for s, ex in zip(aug.sources, aug.added)),
            }
            if aug.failures:
                facts["failed_targets"] = len(aug.failures)
                row.status, preds = STATUS_AUG_FAILED, None
            else:
                _, preds, f1, error = fit(aug.added, base_model)
        if preds is not None:
            row.f1 = f1
            payloads.append((cell, y_test, preds))
            if cell.aug_pct > 0.0 and base_preds is not None:
                row.baseline_f1 = base_f1
                row.gain = f1 - base_f1
                if row.gain > 0:
                    table = stats.contingency(y_test, base_preds, preds)
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
        results.csv, in cell order, after the last unit. A subset size
        that a dataset cannot be drawn or split at is DataError before
        the directory is made.
        """
        cells = plan_grid(self.config) if cells is None else cells
        for name, size in dict.fromkeys(
                (c.dataset, c.subset_size) for c in cells):
            check_subset(self.resources.datasets[name], size,
                         self.config.split_ratio)
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
            inputs.append({"event": "dataset", "name": name, "rows": len(ds),
                           "skipped_rows": ds.skipped,
                           "label_histogram": collections.Counter(ds.labels())})
        predictions_dir = os.path.join(self.out_dir, "predictions")
        make_output_dir(predictions_dir)
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
