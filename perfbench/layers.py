"""Per-layer timers for the traced run, installed from outside the program.

Each timer replaces a public function at the place its caller looks it
up: ``runner`` imports most layer functions by name, so they are wrapped
as ``augbench.runner.<name>``; ``svm`` calls the kernels through the
module, so those are wrapped as ``augbench.kernels.<name>``. A function
that no longer exists is recorded as absent and its metrics read 0.

A span's self time is its duration minus the time of the spans it
encloses. Work the tracer does itself (KKT gaps, text sets) runs after
the span closes and is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

# Metric name -> unit and direction. The traced run reports every one of
# these; BENCHMARK.json lists the same names.
PER_LAYER = {
    "kernels.smo_solve_s": ("s", "lower"),
    "kernels.smo_solves": ("count", "lower"),
    "kernels.smo_rows": ("count", "lower"),
    "kernels.smo_kkt_gap_max": ("1", "lower"),
    "kernels.smo_converged_share": ("share", "higher"),
    "kernels.smo_dual_objective_sum": ("1", "higher"),
    "kernels.rbf_gram_s": ("s", "lower"),
    "kernels.rbf_gram_entries": ("count", "lower"),
    "kernels.rbf_gram_bytes": ("B", "lower"),
    "kernels.rbf_cross_gram_s": ("s", "lower"),
    "svm.svm_train_self_s": ("s", "lower"),
    "svm.svm_predict_s": ("s", "lower"),
    "svm.support_vector_share": ("share", "lower"),
    "features.featurize_s": ("s", "lower"),
    "features.featurize_rows": ("count", "lower"),
    "features.featurize_repeat_share": ("share", "lower"),
    "resources.nearest_neighbors_s": ("s", "lower"),
    "resources.nearest_neighbors_calls": ("count", "lower"),
    "resources.nearest_neighbors_distinct_share": ("share", "higher"),
    "resources.load_embeddings_s": ("s", "lower"),
    "resources.parse_ppdb_s": ("s", "lower"),
    "providers.translate_calls": ("count", "lower"),
    "providers.translate_s": ("s", "lower"),
    "providers.cache_get_s": ("s", "lower"),
    "providers.cache_hit_share": ("share", "higher"),
    "providers.cache_put_s": ("s", "lower"),
    "providers.cache_puts": ("count", "lower"),
    "eda.eda_augment_s": ("s", "lower"),
    "pipeline.sequential_augment_s": ("s", "lower"),
    "pipeline.back_translate_s": ("s", "lower"),
    "pipeline.augment_training_set_s": ("s", "lower"),
    "pipeline.generated_rows": ("count", "higher"),
    "pipeline.failed_targets": ("count", "lower"),
    "pipeline.degenerate_bt_share": ("share", "lower"),
    "corpus.load_dataset_s": ("s", "lower"),
    "corpus.resample_subset_s": ("s", "lower"),
    "corpus.split_s": ("s", "lower"),
    "metrics.evaluate_s": ("s", "lower"),
    "metrics.save_predictions_s": ("s", "lower"),
    "results.write_results_csv_s": ("s", "lower"),
    "runner.self_s": ("s", "lower"),
    "bench.traced_pass_s": ("s", "lower"),
}

# (module, attribute, span). The module is where the caller looks the
# function up, which is not always where it is defined.
FUNCTIONS = [
    ("augbench.runner.GridRunner", "run", "runner"),
    ("augbench.kernels", "smo_solve", "kernels.smo_solve"),
    ("augbench.kernels", "rbf_gram", "kernels.rbf_gram"),
    ("augbench.kernels", "rbf_cross_gram", "kernels.rbf_cross_gram"),
    ("augbench.runner", "svm_train", "svm.svm_train"),
    ("augbench.runner", "svm_predict", "svm.svm_predict"),
    ("augbench.runner", "featurize", "features.featurize"),
    ("augbench.providers", "nearest_neighbors", "resources.nearest_neighbors"),
    ("augbench.runner", "load_embeddings", "resources.load_embeddings"),
    ("augbench.runner", "parse_ppdb", "resources.parse_ppdb"),
    ("augbench.providers.TranslationCache", "get", "providers.cache_get"),
    ("augbench.providers.TranslationCache", "put", "providers.cache_put"),
    ("augbench.runner", "eda_augment", "eda.eda_augment"),
    ("augbench.runner", "sequential_augment", "pipeline.sequential_augment"),
    ("augbench.runner", "back_translate", "pipeline.back_translate"),
    ("augbench.runner", "augment_training_set", "pipeline.augment_training_set"),
    ("augbench.cli", "augment_training_set", "pipeline.augment_training_set"),
    ("augbench.runner", "load_dataset", "corpus.load_dataset"),
    ("augbench.runner", "resample_subset", "corpus.resample_subset"),
    ("augbench.runner", "split", "corpus.split"),
    ("augbench.runner", "evaluate", "metrics.evaluate"),
    ("augbench.runner", "save_predictions", "metrics.save_predictions"),
    ("augbench.runner", "write_results_csv", "results.write_results_csv"),
]

ROOT = "runner"


def _resolve(path: str):
    """Import 'pkg.mod' or 'pkg.mod.Class'; None when it is gone."""
    try:
        return importlib.import_module(path)
    except ImportError:
        pass
    module, _, name = path.rpartition(".")
    try:
        return getattr(importlib.import_module(module), name, None)
    except ImportError:
        return None


class _Call:
    """A call's arguments by parameter name, bound only when first read."""

    __slots__ = ("_signature", "_args", "_kwargs", "_bound")

    def __init__(self, signature, args, kwargs):
        self._signature, self._args, self._kwargs = signature, args, kwargs
        self._bound = None

    def __getitem__(self, name):
        if self._signature is None:
            raise KeyError(name)
        if self._bound is None:
            self._bound = self._signature.bind(*self._args, **self._kwargs).arguments
        return self._bound[name]


def kkt_stats(K, y, C, alpha) -> tuple[float, float]:
    """Maximal-violating-pair gap and dual objective of one SMO result.

    The gap is m(alpha) - M(alpha) of Fan, Chen & Lin (JMLR 2005), the
    stopping criterion of LIBSVM: with G = Q alpha - e and Q = yy' * K,
    m = max(-y G) over I_up and M = min(-y G) over I_low. A solve has
    converged when the gap is at most the solver's tol. The objective
    is the dual in its maximisation form, sum(alpha) - alpha'Q alpha/2.
    """
    y = np.asarray(y, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    ay = alpha * y
    Kay = np.asarray(K, dtype=np.float64) @ ay
    grad = y * Kay - 1.0
    score = -y * grad
    up = ((alpha < C) & (y > 0)) | ((alpha > 0) & (y < 0))
    low = ((alpha < C) & (y < 0)) | ((alpha > 0) & (y > 0))
    gap = 0.0
    if up.any() and low.any():
        gap = max(0.0, float(score[up].max() - score[low].min()))
    return gap, float(alpha.sum() - 0.5 * ay @ Kay)


class Tracer:
    """Span timers and counters, kept per phase.

    Metrics come from the "setup" phase (one load_resources) and the
    "pass" phase; any other phase is recorded but left out of them.
    """

    def __init__(self):
        self.phases: dict[str, dict] = {}
        self.phase = "setup"
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []
        self._seen_texts: set[str] = set()
        self._seen_words: set[str] = set()

    def start_pass(self) -> None:
        """Count repeats (texts, neighbour queries) within one pass only."""
        self.phase = "pass"
        self._seen_texts.clear()
        self._seen_words.clear()

    # -- recording -------------------------------------------------------

    def _bucket(self) -> dict:
        return self.phases.setdefault(self.phase, {"spans": {}, "counts": {}})

    def count(self, name: str, amount: float = 1) -> None:
        counts = self._bucket()["counts"]
        counts[name] = counts.get(name, 0) + amount

    def _close(self, name: str, seconds: float, children: float) -> None:
        span = self._bucket()["spans"].setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        span["calls"] += 1
        span["total_s"] += seconds
        span["self_s"] += seconds - children
        if self._stack:
            self._stack[-1][0] += seconds

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for owner_path, attr, span in FUNCTIONS:
            owner = _resolve(owner_path)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{owner_path}.{attr}")
                continue
            observe = getattr(self, "_observe_" + span.replace(".", "_"), None)
            self._patch(owner, attr, span, fn, observe)
        providers = _resolve("augbench.providers")
        base = getattr(providers, "TranslationProvider", None)
        translators = [
            cls for cls in vars(providers).values()
            if isinstance(cls, type) and base is not None
            and issubclass(cls, base) and "translate" in vars(cls)
        ] if providers is not None else []
        if not translators:
            self.absent.append("augbench.providers.TranslationProvider.translate")
        for cls in translators:
            self._patch(cls, "translate", "providers.translate",
                        vars(cls)["translate"], None)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def _patch(self, owner, attr, span, fn, observe) -> None:
        tracer = self
        stack = self._stack
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                tracer._close(span, elapsed, frame[0])
            if observe is not None:
                # Bookkeeping is charged to the enclosing span's children
                # so that no layer's self time includes it.
                started = time.perf_counter()
                try:
                    observe(_Call(signature, args, kwargs), result)
                except (AttributeError, KeyError, TypeError, ValueError,
                        IndexError):
                    if f"{span} counts" not in tracer.absent:
                        tracer.absent.append(f"{span} counts")
                spent = time.perf_counter() - started
                if stack:
                    stack[-1][0] += spent
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    # -- observers: counts at the same boundaries as the spans -----------

    def _observe_kernels_smo_solve(self, call, result):
        K, y, C, tol = call["K"], call["y"], call["C"], call["tol"]
        alpha = result[0]
        gap, objective = kkt_stats(K, y, C, alpha)
        self.count("smo_solves")
        self.count("smo_rows", len(y))
        self.count("smo_converged", gap <= tol)
        self.count("smo_dual_objective_sum", objective)
        counts = self._bucket()["counts"]
        counts["smo_kkt_gap_max"] = max(counts.get("smo_kkt_gap_max", 0.0), gap)

    def _observe_kernels_rbf_gram(self, call, result):
        self.count("rbf_gram_entries", result.size)
        self.count("rbf_gram_bytes", result.size * result.itemsize)

    def _observe_svm_svm_train(self, call, result):
        labels = list(call["y"])
        for machine in result.machines:
            pair = {machine.class_pos, machine.class_neg}
            self.count("svm_pair_rows", sum(1 for label in labels if label in pair))
            self.count("svm_support_vectors", machine.support_vectors.shape[0])

    def _observe_features_featurize(self, call, result):
        for example in call["dataset"]:
            self.count("featurize_rows")
            if example.text in self._seen_texts:
                self.count("featurize_repeats")
            else:
                self._seen_texts.add(example.text)

    def _observe_resources_nearest_neighbors(self, call, result):
        word = call["word"]
        self.count("nn_calls")
        if word not in self._seen_words:
            self._seen_words.add(word)
            self.count("nn_distinct")

    def _observe_providers_cache_get(self, call, result):
        self.count("cache_gets")
        self.count("cache_hits", result is not None)

    def _observe_providers_cache_put(self, call, result):
        self.count("cache_puts")

    def _observe_pipeline_back_translate(self, call, result):
        self.count("bt_rows")
        source = " ".join(call["sentence"].text.split())
        self.count("bt_degenerate", source == " ".join(result.text.split()))

    def _observe_pipeline_augment_training_set(self, call, result):
        augmented, failures = result
        self.count("generated_rows", len(augmented) - len(call["train"]))
        self.count("failed_targets", len(failures))

    # -- report ----------------------------------------------------------

    def metrics(self, passes: int, pass_wall_s: float) -> dict[str, float]:
        """Per-layer metrics for one set-up plus one average pass.

        ``pass_wall_s`` is the summed wall time of the traced passes;
        runner.self_s is the part of it no layer span covers.
        """
        setup = self.phases.get("setup", {"spans": {}, "counts": {}})
        run = self.phases.get("pass", {"spans": {}, "counts": {}})
        n = max(passes, 1)

        def span(name, field="total_s"):
            value = setup["spans"].get(name, {}).get(field, 0.0)
            return value + run["spans"].get(name, {}).get(field, 0.0) / n

        def count(name):
            value = setup["counts"].get(name, 0)
            return value + run["counts"].get(name, 0) / n

        def share(part, whole):
            return count(part) / count(whole) if count(whole) else 0.0

        gap_max = max(setup["counts"].get("smo_kkt_gap_max", 0.0),
                      run["counts"].get("smo_kkt_gap_max", 0.0))
        root = run["spans"].get(ROOT, {})
        return {
            "kernels.smo_solve_s": span("kernels.smo_solve"),
            "kernels.smo_solves": count("smo_solves"),
            "kernels.smo_rows": count("smo_rows"),
            "kernels.smo_kkt_gap_max": gap_max,
            "kernels.smo_converged_share": share("smo_converged", "smo_solves"),
            "kernels.smo_dual_objective_sum": count("smo_dual_objective_sum"),
            "kernels.rbf_gram_s": span("kernels.rbf_gram"),
            "kernels.rbf_gram_entries": count("rbf_gram_entries"),
            "kernels.rbf_gram_bytes": count("rbf_gram_bytes"),
            "kernels.rbf_cross_gram_s": span("kernels.rbf_cross_gram"),
            "svm.svm_train_self_s": span("svm.svm_train", "self_s"),
            "svm.svm_predict_s": span("svm.svm_predict"),
            "svm.support_vector_share": share("svm_support_vectors", "svm_pair_rows"),
            "features.featurize_s": span("features.featurize"),
            "features.featurize_rows": count("featurize_rows"),
            "features.featurize_repeat_share": share("featurize_repeats", "featurize_rows"),
            "resources.nearest_neighbors_s": span("resources.nearest_neighbors"),
            "resources.nearest_neighbors_calls": count("nn_calls"),
            "resources.nearest_neighbors_distinct_share": share("nn_distinct", "nn_calls"),
            "resources.load_embeddings_s": span("resources.load_embeddings"),
            "resources.parse_ppdb_s": span("resources.parse_ppdb"),
            "providers.translate_calls": span("providers.translate", "calls"),
            "providers.translate_s": span("providers.translate"),
            "providers.cache_get_s": span("providers.cache_get"),
            "providers.cache_hit_share": share("cache_hits", "cache_gets"),
            "providers.cache_put_s": span("providers.cache_put"),
            "providers.cache_puts": count("cache_puts"),
            "eda.eda_augment_s": span("eda.eda_augment"),
            "pipeline.sequential_augment_s": span("pipeline.sequential_augment"),
            "pipeline.back_translate_s": span("pipeline.back_translate"),
            "pipeline.augment_training_set_s": span("pipeline.augment_training_set"),
            "pipeline.generated_rows": count("generated_rows"),
            "pipeline.failed_targets": count("failed_targets"),
            "pipeline.degenerate_bt_share": share("bt_degenerate", "bt_rows"),
            "corpus.load_dataset_s": span("corpus.load_dataset"),
            "corpus.resample_subset_s": span("corpus.resample_subset"),
            "corpus.split_s": span("corpus.split"),
            "metrics.evaluate_s": span("metrics.evaluate"),
            "metrics.save_predictions_s": span("metrics.save_predictions"),
            "results.write_results_csv_s": span("results.write_results_csv"),
            "runner.self_s": root.get("self_s", 0.0) / n,
            "bench.traced_pass_s": pass_wall_s / n,
        }

    def spans(self) -> dict[str, dict]:
        """Self time, total time and calls per span, for compare mode."""
        out: dict[str, dict] = {}
        for phase, bucket in self.phases.items():
            for name, span in bucket["spans"].items():
                out[f"{phase}:{name}"] = dict(span)
        return out
