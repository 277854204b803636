"""Experiment grid orchestration: plan, run, and summarize.

A grid cell is (dataset, group, subset size, augmentation percentage,
round). Cells derive their seeds from the master seed by a stable hash
of their coordinates, so any cell is independently re-runnable. The
cells that share a subset key (see ``subset_key``) run as one unit:
the subset, split, features and p=0 baseline are computed once and
reused by every group's baseline row and by the p>0 cells, which keeps
McNemar pairs on the identical test set.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import time
from dataclasses import dataclass, field

import numpy as np

from . import stats
from .corpus import (
    Dataset, load_dataset, resample_subset, select_augmentation_targets, split,
)
from .eda import EdaConfig, eda_augment
from .errors import ConfigError, InvariantError, TrainingError
from .features import featurize
from .metrics import evaluate, save_predictions
from .pipeline import augment_training_set, back_translate, sequential_augment
from .providers import (
    EmbeddingNeighborProvider, HttpContextualProvider, ReplacementProvider,
    StubContextualProvider, SynonymMapProvider, TranslationCache, http_options,
    load_contextual_table, make_translation_provider,
)
from .resources import EmbeddingStore, SynonymMap, load_embeddings, parse_ppdb
from .results import (
    STATUS_AUG_FAILED, STATUS_OK, STATUS_TRAIN_FAILED,
    ExperimentResult, write_results_csv,
)
from .svm import SvmConfig, svm_predict, svm_train

GROUPS = ("EDA", "Syn", "BT")


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
    ppdb_path: str | None = None
    resource_id: str | None = None  # free-form provenance tag, logged only
    translation: str | dict | None = None
    contextual: str | dict | None = None
    pivot: str = "en"
    source_lang: str = "pt"
    syn_rate: float = 0.1
    syn_stages: tuple[str, ...] = ("ppdb", "embedding")
    embedding_neighbors_k: int = 5
    eda: EdaConfig = field(default_factory=EdaConfig)
    svm: SvmConfig = field(default_factory=SvmConfig)
    split_ratio: float = 0.75
    share_subsets_across_groups: bool = True
    cache_path: str | None = None


@dataclass(frozen=True)
class GridCell:
    dataset: str
    group: str
    subset_size: int
    aug_pct: float
    round: int

    def key(self) -> tuple[str, str, int, float, int]:
        return (self.dataset, self.group, self.subset_size, self.aug_pct, self.round)


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate the declarative JSON experiment config."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot open config: {path}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(raw)


def _dedup(seq):
    out = []
    for x in seq:
        if x not in out:
            out.append(x)
    return out


def config_from_dict(raw: dict) -> ExperimentConfig:
    try:
        datasets = tuple(
            DatasetSpec(
                name=d["name"], path=d["path"],
                text_column=d.get("text_column", "text"),
                label_column=d.get("label_column", "label"),
            )
            for d in raw["datasets"]
        )
        groups = tuple(_dedup(raw["groups"]))
        sizes = tuple(_dedup(int(n) for n in raw["subset_sizes"]))
        pcts = tuple(_dedup(float(p) for p in raw["aug_percentages"]))
        rounds = int(raw["rounds"])
        master_seed = int(raw["master_seed"])
        resources = raw.get("resources", {})
        providers = raw.get("providers", {})
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
    eda_raw = raw.get("eda", {})
    svm_raw = raw.get("svm", {})
    try:
        return ExperimentConfig(
            datasets=datasets,
            groups=groups,
            subset_sizes=sizes,
            aug_percentages=pcts,
            rounds=rounds,
            master_seed=master_seed,
            embeddings_path=embeddings_path,
            ppdb_path=ppdb_path,
            resource_id=resources.get("resource_id"),
            translation=translation,
            contextual=contextual,
            pivot=providers.get("pivot", "en"),
            source_lang=providers.get("source_lang", "pt"),
            syn_rate=float(providers.get("syn_rate", 0.1)),
            syn_stages=tuple(stages),
            embedding_neighbors_k=int(providers.get("embedding_neighbors_k", 5)),
            eda=EdaConfig(
                alpha=float(eda_raw.get("alpha", 0.1)),
                n_aug=int(eda_raw.get("n_aug", 1)),
                op_mode=eda_raw.get("op_mode", "sample"),
            ),
            svm=SvmConfig(
                C=float(svm_raw.get("C", 10.0)),
                gamma=svm_raw.get("gamma", "scale"),
                tol=float(svm_raw.get("tol", 1e-3)),
            ),
            split_ratio=float(raw.get("split_ratio", 0.75)),
            share_subsets_across_groups=bool(
                raw.get("share_subsets_across_groups", True)
            ),
            cache_path=raw.get("cache_path"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


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

    Whoever calls ``load_resources`` closes ``cache`` when done with it.
    """

    datasets: dict[str, Dataset]
    embeddings: EmbeddingStore
    synmap: SynonymMap | None
    replacement_providers: list[ReplacementProvider]
    translation: object | None
    cache: TranslationCache


def load_resources(config: ExperimentConfig) -> Resources:
    datasets = {
        spec.name: load_dataset(
            spec.path, text_column=spec.text_column,
            label_column=spec.label_column, name=spec.name,
        )
        for spec in config.datasets
    }
    embeddings = load_embeddings(config.embeddings_path)
    synmap = parse_ppdb(config.ppdb_path) if config.ppdb_path else None
    providers: list[ReplacementProvider] = []
    for stage in config.syn_stages:
        if stage == "ppdb":
            if synmap is None:
                raise ConfigError("syn stage 'ppdb' needs resources.ppdb")
            providers.append(SynonymMapProvider(synmap))
        elif stage == "embedding":
            if config.embedding_neighbors_k < 1:
                raise ConfigError("providers.embedding_neighbors_k must be >= 1")
            providers.append(
                EmbeddingNeighborProvider(embeddings, k=config.embedding_neighbors_k)
            )
        elif stage == "contextual":
            providers.append(_make_contextual(config.contextual))
        else:
            raise ConfigError(f"unknown syn stage {stage!r}")
    translation = (
        make_translation_provider(config.translation, source_lang=config.source_lang)
        if config.translation is not None
        else None
    )
    return Resources(
        datasets=datasets,
        embeddings=embeddings,
        synmap=synmap,
        replacement_providers=providers,
        translation=translation,
        cache=TranslationCache(config.cache_path),
    )


def _make_contextual(spec) -> ReplacementProvider:
    if isinstance(spec, str) and spec.startswith("stub:"):
        return StubContextualProvider(load_contextual_table(spec[len("stub:"):]))
    if isinstance(spec, dict) and "http" in spec:
        return HttpContextualProvider(**http_options(spec))
    raise ConfigError(f"unusable contextual provider config: {spec!r}")


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
                ex, resources.replacement_providers, config.syn_rate, rng
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


def generated_per_target(config: ExperimentConfig, group: str) -> int:
    return config.eda.n_aug if group == "EDA" else 1


def subset_key(config: ExperimentConfig, cell: GridCell) -> tuple:
    """Coordinates that salt a cell's subset and split.

    Cells with the same key draw the same subset and split, so they
    share one p=0 baseline: (dataset, size, round), plus the group when
    subsets are not shared across groups.
    """
    if config.share_subsets_across_groups:
        return (cell.dataset, cell.subset_size, cell.round)
    return (cell.dataset, cell.group, cell.subset_size, cell.round)


class GridRunner:
    """Runs the subset units one after another; returns rows in plan order."""

    def __init__(self, config: ExperimentConfig, out_dir: str,
                 resources: Resources | None = None):
        self.config = config
        self.out_dir = out_dir
        self.predictions_dir = os.path.join(out_dir, "predictions")
        os.makedirs(self.predictions_dir, exist_ok=True)
        self.resources = resources or load_resources(config)
        self._log_lines: list[str] = []

    def _log(self, record: dict) -> None:
        self._log_lines.append(json.dumps(record, ensure_ascii=False, sort_keys=True))

    def _write_outputs(self, rows: list[ExperimentResult]) -> None:
        """Write results.csv and run_log.jsonl into the output directory."""
        write_results_csv(os.path.join(self.out_dir, "results.csv"), rows)
        with open(os.path.join(self.out_dir, "run_log.jsonl"), "w",
                  encoding="utf-8") as fh:
            fh.write("\n".join(self._log_lines) + "\n")

    def run(self) -> list[ExperimentResult]:
        cells = plan_grid(self.config)
        units: dict[tuple, list[GridCell]] = {}
        for cell in cells:
            units.setdefault(subset_key(self.config, cell), []).append(cell)
        if self.config.resource_id:
            self._log({"event": "resources",
                       "resource_id": self.config.resource_id})
        for name, ds in self.resources.datasets.items():
            hist: dict[str, int] = {}
            for ex in ds:
                hist[ex.label] = hist.get(ex.label, 0) + 1
            self._log({"event": "dataset", "name": name, "rows": len(ds),
                       "skipped_rows": ds.skipped, "label_histogram": hist})
        results: dict[tuple, ExperimentResult] = {}
        for unit in units.values():
            for row in self._run_unit(unit):
                results[row.key()] = row
        ordered = [results[c.key()] for c in cells]
        self._write_outputs(ordered)
        return ordered

    def _prediction_path(self, cell: GridCell) -> str:
        fname = (
            f"{cell.dataset}_{cell.group}_{cell.subset_size}_"
            f"{cell.aug_pct}_{cell.round}.jsonl"
        )
        return os.path.join(self.predictions_dir, fname)

    def _run_unit(self, cells: list[GridCell]) -> list[ExperimentResult]:
        """Run the cells of one subset key.

        The subset, split, features and p=0 model are computed once and
        shared by every group's baseline row and by every p>0 cell, which
        featurizes only its generated sentences. All of it is local to
        this call, so it is freed when the unit ends.
        """
        config, res = self.config, self.resources
        first = cells[0]
        key = subset_key(config, first)
        started = time.perf_counter()
        subset = resample_subset(
            res.datasets[first.dataset], first.subset_size,
            derive_seed(config.master_seed, "subset", *key),
        )
        pair = split(
            subset, ratio=config.split_ratio,
            seed=derive_seed(config.master_seed, "split", *key),
        )
        if set(pair.train_indices) & set(pair.test_indices):
            raise InvariantError(f"train and test sets overlap in subset {key}")
        X_test = featurize(pair.test, res.embeddings)
        X_train = featurize(pair.train, res.embeddings)
        y_test = pair.test.labels()
        baselines = [c for c in cells if c.aug_pct == 0.0]
        baseline_preds = self._train_predict(
            X_train, pair.train.labels(), X_test, baselines
        )
        baseline_f1: float | None = None
        if baseline_preds is not None:
            baseline_f1 = evaluate(y_test, baseline_preds).weighted_f1
        self._log({"event": "baseline", "subset": list(key),
                   "status": STATUS_OK if baseline_preds is not None
                   else STATUS_TRAIN_FAILED,
                   "seconds": round(time.perf_counter() - started, 4)})
        rows: list[ExperimentResult] = []
        for cell in cells:
            started = time.perf_counter()
            if cell.aug_pct == 0.0:
                row = self._row(cell)
                if baseline_preds is None:
                    row.status = STATUS_TRAIN_FAILED
                else:
                    row.f1 = baseline_f1
                    save_predictions(
                        self._prediction_path(cell), y_test, baseline_preds
                    )
            else:
                row = self._run_augmented(
                    cell, pair.train, X_train, X_test, y_test,
                    baseline_f1, baseline_preds,
                )
            self._log({
                "event": "cell", "dataset": cell.dataset, "group": cell.group,
                "subset_size": cell.subset_size, "aug_pct": cell.aug_pct,
                "round": cell.round, "status": row.status,
                "seconds": round(time.perf_counter() - started, 4),
                "purity_ok": True,  # a purity violation raises InvariantError
            })
            rows.append(row)
        return rows

    @staticmethod
    def _row(cell: GridCell) -> ExperimentResult:
        return ExperimentResult(
            dataset=cell.dataset, group=cell.group,
            subset_size=cell.subset_size, aug_pct=cell.aug_pct,
            round=cell.round,
        )

    def _train_predict(self, X_train: np.ndarray, y_train: list[str],
                       X_test: np.ndarray,
                       cells: list[GridCell]) -> list[str] | None:
        """Test-set predictions, or None (logged for each cell) on TrainingError."""
        try:
            model = svm_train(X_train, y_train, self.config.svm)
            return svm_predict(model, X_test)
        except TrainingError as exc:
            for cell in cells:
                self._log({"event": "training_failed",
                           "cell": list(cell.key()), "error": str(exc)})
            return None

    def _run_augmented(
        self,
        cell: GridCell,
        train: Dataset,
        X_train: np.ndarray,
        X_test: np.ndarray,
        y_test: list[str],
        baseline_f1: float | None,
        baseline_preds: list[str] | None,
    ) -> ExperimentResult:
        """One p>0 cell: augment, featurize the new rows, train, pair."""
        config, res = self.config, self.resources
        row = self._row(cell)
        targets = select_augmentation_targets(
            train, cell.aug_pct,
            derive_seed(config.master_seed, "targets", *cell.key()),
        )
        augmented, failures = augment_training_set(
            train, targets, make_augmenter(config, res, cell)
        )
        if failures:
            self._log({
                "event": "augmentation_failed", "cell": list(cell.key()),
                "failed_targets": len(failures),
            })
            row.status = STATUS_AUG_FAILED
            return row
        # test-set purity: originals verbatim and first, growth bounded
        expected = len(train) + len(targets) * generated_per_target(
            config, cell.group
        )
        if (augmented.examples[: len(train)] != train.examples
                or len(augmented) != expected):
            raise InvariantError(
                f"augmentation purity violated for {cell.key()}"
            )
        generated = Dataset(
            name=train.name, examples=augmented.examples[len(train):]
        )
        X_augmented = np.vstack([X_train, featurize(generated, res.embeddings)])
        preds = self._train_predict(
            X_augmented, augmented.labels(), X_test, [cell]
        )
        if preds is None:
            row.status = STATUS_TRAIN_FAILED
            return row
        row.f1 = evaluate(y_test, preds).weighted_f1
        save_predictions(self._prediction_path(cell), y_test, preds)
        if baseline_preds is not None:
            row.baseline_f1 = baseline_f1
            row.gain = row.f1 - baseline_f1
            if row.gain > 0:
                table = stats.contingency(y_test, baseline_preds, preds)
                test = stats.mcnemar(table)
                row.b, row.c = table.b, table.c
                row.chi2, row.p_value = test.chi2, test.p_value
        return row


def run_grid(config: ExperimentConfig, out_dir: str) -> list[ExperimentResult]:
    """Run the full grid and write results.csv plus the run log."""
    grid = GridRunner(config, out_dir)
    try:
        return grid.run()
    finally:
        grid.resources.cache.close()


def run_single_cell(
    config: ExperimentConfig,
    out_dir: str,
    dataset: str,
    group: str,
    subset_size: int,
    aug_pct: float,
    round_index: int,
) -> ExperimentResult:
    """Re-run one grid cell (plus its baseline, when p > 0, for pairing).

    Seeds derive from coordinates exactly as in a full run, so the cell
    reproduces its full-grid result.
    """
    runner = GridRunner(config, out_dir)
    if dataset not in runner.resources.datasets:
        raise ConfigError(f"dataset {dataset!r} not in config")
    if group not in config.groups:
        raise ConfigError(f"group {group!r} not in config")
    cells = [GridCell(dataset, group, subset_size, 0.0, round_index)]
    if aug_pct > 0.0:
        cells.append(GridCell(dataset, group, subset_size, aug_pct, round_index))
    try:
        rows = runner._run_unit(cells)
    finally:
        runner.resources.cache.close()
    wanted = next(r for r in rows if r.aug_pct == aug_pct)
    runner._write_outputs([wanted])
    return wanted
