"""Checks on the package source itself."""

import ast
import importlib
import json
import pathlib
import re

import pytest

import augbench
from augbench import providers, runner

SRC = pathlib.Path(augbench.__file__).parent


def _is_assert(node: ast.AST) -> bool:
    """An assert statement, or ``raise AssertionError`` (bare or called):
    an invariant that names no error type of its own."""
    if isinstance(node, ast.Raise):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"
    return isinstance(node, ast.Assert)


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so an invariant written as one
    # would silently stop being checked; a raised AssertionError is the
    # same check in disguise.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _is_assert(node)
    ]
    assert found == []


@pytest.mark.parametrize("source, found", [
    ("assert x\n", True),
    ("raise AssertionError\n", True),
    ("raise AssertionError('no')\n", True),
    ("raise InvariantError('no')\n", False),
    ("raise\n", False),
])
def test_assert_forms_detected(source, found):
    assert any(map(_is_assert, ast.walk(ast.parse(source)))) is found


def _unused_module_imports(source: str) -> list[str]:
    """Names bound by a module-level import that nothing else names."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name}:{line}" for name, line in bound.items() if name not in used]


def test_unused_import_check_sees_one():
    assert _unused_module_imports(
        "from __future__ import annotations\nimport os\nimport json as j\n"
        "from a.b import c\nj.dumps(c)\n"
    ) == ["os:2"]


def test_no_unused_module_level_imports_in_package():
    # __init__.py imports to re-export, so it is left out.
    found = [
        f"{path.name}:{entry}"
        for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
        for entry in _unused_module_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


# The functions that read an input file. Only runner.load_resources calls
# them, so the rule of which inputs a run reads lives in one function.
LOADERS = {"load_dataset", "load_embeddings", "parse_ppdb",
           "make_translation_provider", "TranslationCache"}


def _loader_calls(source: str, module: str) -> list[tuple[str, str]]:
    """(module.top-level definition, loader) for each call to a loader."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in LOADERS:
                found.append((f"{module}.{getattr(top, 'name', '<module>')}",
                              name))
    return found


def test_loader_call_check_sees_a_second_site():
    source = (
        "def load_resources(config):\n    return parse_ppdb(config.p)\n"
        "class Other:\n    def f(self):\n"
        "        return providers.TranslationCache(None)\n"
    )
    assert _loader_calls(source, "runner") == [
        ("runner.load_resources", "parse_ppdb"),
        ("runner.Other", "TranslationCache"),
    ]


def test_inputs_are_loaded_only_by_load_resources():
    calls = [
        call
        for path in sorted(SRC.glob("*.py"))
        for call in _loader_calls(path.read_text(encoding="utf-8"), path.stem)
    ]
    assert {site for site, _ in calls} == {"runner.load_resources"}
    assert {name for _, name in calls} == LOADERS


def _sites(source: str, module: str, name_of) -> list[tuple[str, str]]:
    """(module.function, name) for each node to which ``name_of`` gives a
    name other than None; a method is named with its class, and a
    top-level statement with the module alone."""
    found = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, path + [child.name])
                continue
            name = name_of(child)
            if name is not None:
                found.append((".".join([module, *path]), name))
            visit(child, path)

    visit(ast.parse(source), [])
    return found


def _calls(source: str, module: str, callees: set[str],
           keep=lambda call: True) -> list[tuple[str, str]]:
    """(module.function, callee) for each call to one of ``callees`` that
    ``keep`` accepts."""
    def callee(node):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in callees and keep(node):
                return name
        return None

    return _sites(source, module, callee)


def _package_calls(callees: set[str],
                   keep=lambda call: True) -> set[tuple[str, str]]:
    return {
        call
        for path in sorted(SRC.glob("*.py"))
        for call in _calls(path.read_text(encoding="utf-8"), path.stem,
                           callees, keep)
    }


# The pairing of an augmented model with its baseline. The runner pairs
# every grid cell and stores the fields on its row; the mcnemar command
# compares two prediction files. Nothing else computes a pair.
PAIRING = {"contingency", "mcnemar"}


def test_pairing_call_check_sees_a_second_site():
    source = (
        "def run_unit(y, b, a):\n"
        "    return stats.mcnemar(stats.contingency(y, b, a))\n"
        "def summarize(rows):\n    return [mcnemar(t) for t in rows]\n"
    )
    assert _calls(source, "runner", PAIRING) == [
        ("runner.run_unit", "mcnemar"),
        ("runner.run_unit", "contingency"),
        ("runner.summarize", "mcnemar"),
    ]


def test_pairs_are_computed_only_by_the_runner_and_mcnemar_command():
    assert _package_calls(PAIRING) == {
        (site, name)
        for site in ("runner.run_unit", "cli._cmd_mcnemar")
        for name in PAIRING
    }


# One cell path: the grid and the augment command both augment a cell
# through runner.augment_cell, so both draw the same targets and both
# check augmentation purity.
AUGMENTING = {"select_augmentation_targets", "augment_training_set"}


def test_augmenting_call_check_sees_a_second_site():
    source = (
        "def augment_cell(config, train, cell):\n"
        "    targets = select_augmentation_targets(train, cell.p, 1)\n"
        "    return pipeline.augment_training_set(train, targets, f)\n"
        "def _cmd_augment(args):\n"
        "    t = corpus.select_augmentation_targets(d, 1, 2)\n"
        "    return augment_training_set(d, t, f)\n"
    )
    assert _calls(source, "cli", AUGMENTING) == [
        ("cli.augment_cell", "select_augmentation_targets"),
        ("cli.augment_cell", "augment_training_set"),
        ("cli._cmd_augment", "select_augmentation_targets"),
        ("cli._cmd_augment", "augment_training_set"),
    ]


def test_cells_are_augmented_only_by_augment_cell():
    assert _package_calls(AUGMENTING) == {
        ("runner.augment_cell", name) for name in AUGMENTING
    }


# One rows-per-target rule: EDA makes n_aug rows of each target, Syn and
# BT one, and only runner.augment_cell turns that into the source of each
# generated row, so every reader of a cell's rows pairs them the same way.
# Outside eda.py, the config table reads the key's default from EdaConfig.
def _n_aug_reads(source: str, module: str) -> list[str]:
    """module.function of each read of an attribute named n_aug."""
    return [site for site, _ in _sites(source, module, lambda node: (
        "n_aug" if isinstance(node, ast.Attribute) and node.attr == "n_aug"
        and isinstance(node.ctx, ast.Load) else None))]


def test_rows_per_target_check_sees_a_second_site():
    source = (
        "CONFIG = {'n_aug': Key(config_int, EdaConfig.n_aug)}\n"
        "def augment_cell(config, cell):\n"
        "    return config.eda.n_aug if cell.group == 'EDA' else 1\n"
        "def run_unit(config, aug):\n"
        "    config.eda.n_aug = 2\n"
        "    return len(aug.added) // config.eda.n_aug\n"
    )
    assert _n_aug_reads(source, "runner") == [
        "runner", "runner.augment_cell", "runner.run_unit"]


def test_rows_per_target_are_read_only_by_eda_and_augment_cell():
    sites = {
        site
        for path in sorted(SRC.glob("*.py"))
        for site in _n_aug_reads(path.read_text(encoding="utf-8"), path.stem)
    }
    assert {site for site in sites if not site.startswith("eda.")} == {
        "runner", "runner.augment_cell"}


# One training path: run_unit's local fit trains, predicts and scores
# every model of a unit, its baseline (the training with no added rows)
# included, so no model is trained or scored a second way.
TRAINING = {"svm_train", "svm_predict", "evaluate"}


def test_training_call_check_sees_a_second_site():
    source = (
        "def run_unit(config, cells):\n"
        "    def fit(added):\n"
        "        model = svm.svm_train(X, y, config.svm)\n"
        "        return evaluate(y_test, svm_predict(model, X_test))\n"
        "    return fit(()), metrics.evaluate(y_test, base)\n"
    )
    assert _calls(source, "runner", TRAINING) == [
        ("runner.run_unit.fit", "svm_train"),
        ("runner.run_unit.fit", "evaluate"),
        ("runner.run_unit.fit", "svm_predict"),
        ("runner.run_unit", "evaluate"),
    ]


def test_models_are_trained_and_scored_only_by_run_unit_fit():
    # a list, not a set, so that a second call inside fit is a second site
    calls = [
        call
        for path in sorted(SRC.glob("*.py"))
        for call in _calls(path.read_text(encoding="utf-8"), path.stem,
                           TRAINING)
    ]
    assert sorted(calls) == sorted(("runner.run_unit.fit", name)
                                   for name in TRAINING)


# One way to get a model's distances: run_unit computes those among its
# original training rows and from its test rows to them, and its fit
# those of the rows it adds; svm_train and svm_predict only read them.
DISTANCES = {"sq_distances", "Distances"}


def test_distance_call_check_sees_a_second_site():
    source = (
        "def svm_train(X, y, cfg, distances=None):\n"
        "    if distances is None:\n"
        "        distances = kernels.Distances([kernels.sq_distances(X, X)])\n"
        "def run_unit(config, cells):\n"
        "    def fit(added):\n"
        "        return Distances([D, sq_distances(X_new, X)])\n"
    )
    assert _calls(source, "svm", DISTANCES) == [
        ("svm.svm_train", "Distances"),
        ("svm.svm_train", "sq_distances"),
        ("svm.run_unit.fit", "Distances"),
        ("svm.run_unit.fit", "sq_distances"),
    ]


def test_distances_are_computed_only_by_run_unit():
    assert _package_calls(DISTANCES) == {
        ("runner.run_unit", "sq_distances"),
        ("runner.run_unit.fit", "sq_distances"),
        ("runner.run_unit.fit", "Distances"),
    }


# One writer: run-grid and train both write results.csv and the
# prediction files from GridRunner.run, so the two cannot write a row or
# a file differently, and the function that runs a unit writes nothing.
WRITER = {"save_predictions", "write_results_csv"}


def test_results_writer_check_sees_a_second_site():
    source = (
        "class GridRunner:\n    def run(self, cells=None):\n"
        "        write_results_csv(self.path, rows)\n"
        "def run_unit(config, cells):\n"
        "    metrics.save_predictions(config.out, y, p)\n"
    )
    assert _calls(source, "runner", WRITER) == [
        ("runner.GridRunner.run", "write_results_csv"),
        ("runner.run_unit", "save_predictions"),
    ]


def test_results_csv_is_written_only_by_grid_runner_run():
    assert _package_calls(WRITER) == {
        ("runner.GridRunner.run", name) for name in WRITER
    }


# One seed function: every draw of a grid is seeded by runner.derive_seed
# from the master seed and the coordinates of its unit or cell, and only
# the draw functions build a generator, so no draw is seeded a second way.
SEEDING = {"derive_seed"}
GENERATORS = {"Random"}


def test_seed_call_check_sees_a_second_site():
    source = (
        "def augment_cell(config, cell, train):\n"
        "    return select(train, derive_seed(config.master_seed, *cell))\n"
        "def resample_subset(dataset, n, seed):\n"
        "    rng = random.Random(seed)\n"
        "    return random.Random(runner.derive_seed(seed, 1))\n"
    )
    assert _calls(source, "corpus", SEEDING | GENERATORS) == [
        ("corpus.augment_cell", "derive_seed"),
        ("corpus.resample_subset", "Random"),
        ("corpus.resample_subset", "Random"),
        ("corpus.resample_subset", "derive_seed"),
    ]


def test_seeds_are_derived_only_by_derive_seed():
    assert _package_calls(SEEDING) == {
        (site, "derive_seed")
        for site in ("runner.run_unit", "runner.augment_cell",
                     "runner.make_augmenter")
    }
    assert _package_calls(GENERATORS) == {
        (site, "Random")
        for site in ("corpus.resample_subset", "corpus.split",
                     "corpus.select_augmentation_targets",
                     "runner.make_augmenter", "synthdata.make_corpus")
    }


# One CSV writer: every CSV the package writes goes through
# results.write_csv, so every one has its quoting and line ends.
def test_csv_writer_check_sees_a_second_site():
    source = (
        "def write_csv(path, header, rows):\n"
        "    writer = csv.writer(fh, lineterminator='\\n')\n"
        "    writer.writerows(rows)\n"
        "def make_corpus(path):\n    w = csv.writer(fh)\n"
    )
    assert _calls(source, "results", {"writer"}) == [
        ("results.write_csv", "writer"),
        ("results.make_corpus", "writer"),
    ]


def test_csv_writer_is_built_only_by_write_csv():
    assert _package_calls({"writer"}) == {("results.write_csv", "writer")}


# One gather: distance blocks are indexed (with take) only in kernels.py,
# where Distances.kernel builds every kernel value from them, so no other
# module knows how the blocks are laid out.
def test_take_call_check_sees_a_second_site():
    source = (
        "def _take(D, rows, cols):\n    return D.take(rows, 0).take(cols, 1)\n"
        "def decision_values(model, blocks, sv):\n"
        "    return np.take(blocks[0], sv, 1)\n"
    )
    assert _calls(source, "svm", {"take"}) == [
        ("svm._take", "take"),
        ("svm._take", "take"),
        ("svm.decision_values", "take"),
    ]


def test_distance_blocks_are_indexed_only_in_kernels():
    assert _package_calls({"take"}) == {("kernels._take", "take")}


# One kernel function: exp is called only by kernels.Distances.kernel, so
# every kernel value, for training or prediction, is built there from
# the distances and cannot be computed a second way.
def test_exp_call_check_sees_a_second_site():
    source = (
        "class Distances:\n    def kernel(self, rows, cols, gamma):\n"
        "        return np.exp(K, out=K)\n"
        "def rbf_cross_gram(distances, cols, gamma):\n"
        "    return numpy.exp(-gamma * distances.blocks[0][0])\n"
    )
    assert _calls(source, "kernels", {"exp"}) == [
        ("kernels.Distances.kernel", "exp"),
        ("kernels.rbf_cross_gram", "exp"),
    ]


def test_kernel_values_are_built_only_by_distances_kernel():
    assert _package_calls({"exp"}) == {("kernels.Distances.kernel", "exp")}


# One feature grid: resources.featurize is the only caller of to_grid, so
# every feature matrix, from which distances are computed, already lies
# on its store's grid; no module imports the features module it replaced.
def _imports_of_features(source: str) -> list[int]:
    """Lines that import a module named ``features`` (absolute or relative)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name.split(".")[-1] == "features" for name in names):
            lines.append(node.lineno)
    return lines


def test_grid_check_sees_a_second_site():
    source = (
        "from .features import featurize\n"
        "from . import features\n"
        "import augbench.features as f\n"
        "from augbench.resources import featurize as g\n"
        "def featurize(dataset, store):\n"
        "    return to_grid(_mean_vectors(dataset), store.grid_step)\n"
        "def run_unit(config, cells):\n"
        "    return resources.to_grid(featurize(pair.test, emb), emb.grid_step)\n"
    )
    assert _imports_of_features(source) == [1, 2, 3]
    assert _calls(source, "resources", {"to_grid"}) == [
        ("resources.featurize", "to_grid"),
        ("resources.run_unit", "to_grid"),
    ]


def test_features_are_rounded_only_by_featurize():
    assert _package_calls({"to_grid"}) == {("resources.featurize", "to_grid")}
    assert not (SRC / "features.py").exists()
    assert {
        path.name: _imports_of_features(path.read_text(encoding="utf-8"))
        for path in SRC.glob("*.py")
    } == {path.name: [] for path in SRC.glob("*.py")}


# One opener: every file the package reads is opened by errors.open_input,
# so an input that cannot be opened or decoded is the typed error of its
# loader, and the one read pass is the place to hash an input.
def _reads(call: ast.Call) -> bool:
    """Whether an open() call reads: no mode, or a mode without w, a or
    x. A mode that is not a literal counts as reading."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    return not (isinstance(mode, ast.Constant)
                and set("wax") & set(mode.value))


def test_read_open_check_sees_a_second_site():
    source = (
        "def open_input(path):\n    return open(path, encoding='utf-8')\n"
        "def save(path):\n    return open(path, 'w')\n"
        "def load(path):\n    return open(path, mode='rb')\n"
        "class Cache:\n    def put(self):\n"
        "        return open(self.path, mode='a')\n"
        "    def read(self, mode):\n        return io.open(self.path, mode)\n"
    )
    assert _calls(source, "errors", {"open"}, _reads) == [
        ("errors.open_input", "open"),
        ("errors.load", "open"),
        ("errors.Cache.read", "open"),
    ]


def test_input_files_are_opened_only_by_open_input():
    assert _package_calls({"open"}, _reads) == {("errors.open_input", "open")}


# One spec parser: a provider config value is parsed only while the config
# is parsed, by the config table, so a bad one is exit 2 before any input
# is read, and only load_resources builds a provider, from the parsed spec.
SPEC_PARSING = {"provider_spec"}
PROVIDER_MAKERS = {"make_translation_provider", "make_contextual_provider"}


def test_spec_call_check_sees_a_second_site():
    source = (
        "def config_from_dict(raw):\n"
        "    return provider_spec(raw.t, 'translation')\n"
        "def load_resources(config):\n"
        "    return make_contextual_provider(\n"
        "        providers.provider_spec(config.c, 'contextual'))\n"
    )
    assert _calls(source, "runner", SPEC_PARSING | PROVIDER_MAKERS) == [
        ("runner.config_from_dict", "provider_spec"),
        ("runner.load_resources", "make_contextual_provider"),
        ("runner.load_resources", "provider_spec"),
    ]


def _names(source: str, module: str, names: set[str]) -> set[tuple[str, str]]:
    """(module.top-level definition, or the module, name) for each use of
    one of ``names`` as a value: called, or handed on as a table entry."""
    found = set()
    for top in ast.parse(source).body:
        site = f"{module}.{top.name}" if hasattr(top, "name") else module
        for node in ast.walk(top):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in names and isinstance(getattr(node, "ctx", None),
                                            ast.Load):
                found.add((site, name))
    return found


def test_spec_name_check_sees_a_second_site():
    source = (
        "CONFIG = {'translation': Key(provider_spec)}\n"
        "def provider_spec(value, key):\n    return value\n"
        "def load_resources(config):\n"
        "    return providers.provider_spec(config.c, 'contextual')\n"
    )
    assert _names(source, "runner", SPEC_PARSING) == {
        ("runner", "provider_spec"),
        ("runner.load_resources", "provider_spec"),
    }


def test_provider_specs_are_parsed_only_by_the_config_table():
    assert {
        site
        for path in sorted(SRC.glob("*.py"))
        for site in _names(path.read_text(encoding="utf-8"), path.stem,
                           SPEC_PARSING)
    } == {("runner", "provider_spec")}


def test_providers_are_built_only_by_load_resources():
    assert _package_calls(PROVIDER_MAKERS) == {
        ("runner.load_resources", name) for name in PROVIDER_MAKERS
    }


# One solver path in plain NumPy and one thread: the package binds no
# compiled-code bridge, no JIT, no scipy and no thread machinery. One
# event path: the runner's run log, so no module logs.
FORBIDDEN_IMPORTS = {"ctypes", "cffi", "logging", "numba", "scipy",
                     "threading"}


def _forbidden_imports(source: str) -> list[str]:
    """top-level package:line for each import of a forbidden package, at
    any depth of the module (a function-local import counts too)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{name.split('.')[0]}:{node.lineno}" for name in names
                  if name.split(".")[0] in FORBIDDEN_IMPORTS]
    return found


def test_forbidden_import_check_sees_one():
    assert _forbidden_imports(
        "import numpy as np\nfrom . import kernels\nimport os, json\n"
        "def solve():\n    from scipy.optimize import minimize\n"
        "    return minimize\n"
    ) == ["scipy:5"]


def test_package_imports_no_compiled_bridge_or_threads():
    found = [
        f"{path.name}:{entry}"
        for path in sorted(SRC.glob("*.py"))
        for entry in _forbidden_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


# The benchmark's tracer wraps the functions that perfbench/layers.py
# lists in FUNCTIONS, and each TranslationProvider subclass's translate.
# A layer that is renamed or deleted is only reported as absent, and its
# metrics read 0, so the package must keep each one. The one entry that
# may be missing is the stale one the CLI stopped importing.
LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench/layers.py"
STALE_LAYERS = {"augbench.cli.augment_training_set"}


def _traced_functions(source: str) -> list[tuple[str, str, str]]:
    """The literal FUNCTIONS list of a layers module, read, not imported."""
    for node in ast.parse(source).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", [])]
        if targets == ["FUNCTIONS"]:
            return ast.literal_eval(node.value)
    raise LookupError("no FUNCTIONS list")


def _unresolved(functions) -> list[str]:
    """'owner.attr' of each entry whose owner (a module, or a module's
    class) or attribute does not exist."""
    missing = []
    for owner_path, attr, _ in functions:
        module, _, name = owner_path.rpartition(".")
        try:
            owner = importlib.import_module(owner_path)
        except ImportError:
            try:
                owner = getattr(importlib.import_module(module), name, None)
            except ImportError:
                owner = None
        if getattr(owner, attr, None) is None:
            missing.append(f"{owner_path}.{attr}")
    return missing


def test_traced_layer_check_sees_a_missing_name():
    functions = _traced_functions(
        "FUNCTIONS = [\n"
        "    ('augbench.runner', 'sequential_augment', 'a'),\n"
        "    ('augbench.providers', 'no_such_function', 'b'),\n"
        "    ('augbench.providers.TranslationCache', 'get', 'c'),\n"
        "    ('augbench.providers.NoSuchClass', 'get', 'd'),\n"
        "    ('augbench.no_such_module', 'f', 'e'),\n"
        "]\n"
    )
    assert _unresolved(functions) == [
        "augbench.providers.no_such_function",
        "augbench.providers.NoSuchClass.get",
        "augbench.no_such_module.f",
    ]


def test_every_traced_layer_still_exists():
    functions = _traced_functions(LAYERS.read_text(encoding="utf-8"))
    assert len(functions) > 20
    assert set(_unresolved(functions)) <= STALE_LAYERS
    base = providers.TranslationProvider
    translators = [
        cls for cls in vars(providers).values()
        if isinstance(cls, type) and issubclass(cls, base)
        and cls is not base and "translate" in vars(cls)
    ]
    assert translators


# The README's configuration blocks name every key of the config tables,
# so that a key a user reads about is one the parser accepts.
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _section_blocks(text: str, heading: str) -> tuple[str, list]:
    """The text of a README section and its jsonc blocks, parsed with
    their comments (a // after a space) removed."""
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```jsonc\n(.*?)```", section, re.S)
    return section, [json.loads(re.sub(r"\s//[^\n]*", "", b)) for b in blocks]


def _document_keys(value, prefix: str = "") -> set[str]:
    """Dotted keys of a JSON value; the keys of a list's mappings are
    named from the list."""
    if isinstance(value, list):
        return set().union(*(_document_keys(v, prefix) for v in value))
    if not isinstance(value, dict):
        return set()
    return set().union(*({prefix + k} | _document_keys(v, f"{prefix}{k}.")
                         for k, v in value.items()))


def _table_keys(table: dict, retired: bool = False, prefix: str = "") -> set:
    """Dotted keys of a config table: the listed ones, or the retired."""
    keys = set()
    for key, entry in table.items():
        if (entry is runner.RETIRED) == retired:
            keys.add(prefix + key)
        if isinstance(entry, dict):
            keys |= _table_keys(entry, retired, f"{prefix}{key}.")
    return keys


def test_document_key_check_sees_nested_keys():
    _, blocks = _section_blocks(
        "# x\n## Configuration\n```jsonc\n"
        '{"a": [{"b": 1}], "c": {"d": "http://x"}}  // note\n```\n## Next\n',
        "Configuration")
    assert [_document_keys(b) for b in blocks] == [{"a", "a.b", "c", "c.d"}]
    table = {"a": runner.Key(None), "c": {"d": runner.Key(None),
                                         "e": runner.RETIRED}}
    assert _table_keys(table) == {"a", "c", "c.d"}
    assert _table_keys(table, retired=True) == {"c.e"}


def test_readme_names_exactly_the_config_tables_keys():
    section, (config, http) = _section_blocks(
        README.read_text(encoding="utf-8"), "Configuration")
    assert _document_keys(config) == (
        _table_keys(runner.CONFIG)
        | _table_keys(runner.DATASET, prefix="datasets."))
    assert _document_keys(http) == _table_keys(runner.HTTP)
    retired = (_table_keys(runner.CONFIG, retired=True)
               | _table_keys(runner.HTTP, retired=True))
    assert {key.rsplit(".", 1)[-1] for key in retired} == {
        "workers", "share_subsets_across_groups", "max_in_flight"}
    assert all(f"`{key.rsplit('.', 1)[-1]}`" in section for key in retired)
