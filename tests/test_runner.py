import collections
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from augbench import cli, kernels, report, runner, stats, synthdata
from augbench.corpus import Dataset, SplitPair, load_dataset
from augbench.eda import EdaConfig
from augbench.resources import grid_bits, grid_step
from augbench.errors import (
    ConfigError, DataError, EmptySentenceError, InvariantError, TrainingError,
    TransportError,
)
from augbench.metrics import evaluate, load_predictions, save_predictions
from augbench.providers import ProviderSpec
from augbench.resources import load_embeddings, parse_ppdb
from augbench.results import (
    ExperimentResult, read_results_csv, write_results_csv,
)
from augbench.svm import SvmConfig
from oracles import read_mean_gains


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    root = tmp_path_factory.mktemp("demo")
    cfg = synthdata.make_demo(str(root), rows=900, seed=5)
    cfg["subset_sizes"] = [80, 140]
    cfg["aug_percentages"] = [0, 0.2]
    cfg["rounds"] = 1
    return cfg


def paper_scale_config(demo):
    cfg = dict(demo)
    cfg["subset_sizes"] = [500, 1000, 2000, 5000, 10000]
    cfg["aug_percentages"] = [0, 0.05, 0.10, 0.20]
    cfg["rounds"] = 15
    cfg["datasets"] = demo["datasets"] + [
        {**demo["datasets"][0], "name": "third"}
    ]
    return runner.config_from_dict(cfg)


class TestConfig:
    def test_load_and_defaults(self, demo, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(demo))
        cfg = runner.load_config(str(path))
        assert cfg.split_ratio == 0.75
        assert cfg.svm.C == 10.0
        assert cfg.svm.gamma == "scale"
        assert cfg.eda.alpha == 0.1

    def test_each_default_is_stated_once(self, demo):
        # config_from_dict fills every field, and an absent eda or svm
        # key takes its EdaConfig or SvmConfig default
        assert "eda" not in demo and "svm" not in demo
        cfg = runner.config_from_dict(demo)
        assert cfg.eda == EdaConfig() and cfg.svm == SvmConfig()
        assert [f.name for f in dataclasses.fields(runner.ExperimentConfig)
                if f.default is not dataclasses.MISSING
                or f.default_factory is not dataclasses.MISSING] == []

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            runner.load_config("/nonexistent/config.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            runner.load_config(str(path))

    def test_baseline_percentage_required(self, demo):
        bad = {**demo, "aug_percentages": [0.05, 0.1]}
        with pytest.raises(ConfigError, match="must contain 0"):
            runner.config_from_dict(bad)

    def test_nonpositive_tol_rejected(self, demo):
        with pytest.raises(ConfigError, match="tol must be positive"):
            runner.config_from_dict({**demo, "svm": {"tol": 0}})

    def test_unknown_group(self, demo):
        bad = {**demo, "groups": ["EDA", "GAN"]}
        with pytest.raises(ConfigError, match="unknown augmentation group"):
            runner.config_from_dict(bad)

    def test_duplicates_removed(self, demo):
        cfg = runner.config_from_dict(
            {**demo, "subset_sizes": [80, 80, 140],
             "aug_percentages": [0, 0.2, 0.2]}
        )
        assert cfg.subset_sizes == (80, 140)
        assert cfg.aug_percentages == (0.0, 0.2)

    def test_bt_requires_translation(self, demo):
        bad = {**demo, "providers": {}}
        with pytest.raises(ConfigError, match="translation"):
            runner.config_from_dict(bad)

    def test_leftover_workers_key_ignored(self, demo):
        cfg = runner.config_from_dict({**demo, "workers": 0})
        assert not hasattr(cfg, "workers")

    def test_leftover_share_subsets_key_ignored(self, demo, tmp_path):
        # every group pairs with the one baseline of its (dataset, size,
        # round), whatever the key says
        small = {**demo, "datasets": demo["datasets"][:1], "subset_sizes": [80]}
        leftover = {**small, "share_subsets_across_groups": False}
        cfg = runner.config_from_dict(leftover)
        assert not hasattr(cfg, "share_subsets_across_groups")
        runner.run_grid(cfg, str(tmp_path / "leftover"))
        runner.run_grid(runner.config_from_dict(small), str(tmp_path / "plain"))
        assert (Path(tmp_path, "leftover", "results.csv").read_bytes()
                == Path(tmp_path, "plain", "results.csv").read_bytes())

    @pytest.mark.parametrize("providers", [
        {"embedding_neighbors_k": "five"},
        {"syn_rate": None},
        {"pivot": 5},
        {"source_lang": ["pt"]},
        {"syn_rate": 0},
        {"syn_rate": -0.1},
        {"syn_rate": 1.5},
        {"syn_rate": "nan"},
    ])
    def test_bad_provider_scalars_rejected(self, demo, providers):
        with pytest.raises(ConfigError):
            runner.config_from_dict(
                {**demo, "providers": {**demo["providers"], **providers}}
            )

    @pytest.mark.parametrize("change, message", [
        ({"split_ratio": 0}, "split_ratio 0.0 outside (0, 1)"),
        ({"split_ratio": 1}, "split_ratio 1.0 outside (0, 1)"),
        ({"split_ratio": "nan"}, "split_ratio must be a finite number, not 'nan'"),
        ({"datasets": [{"name": "d", "path": 3}]},
         "datasets[0].path must be a string path, not 3"),
        ({"datasets": [{"name": "d", "path": None}]},
         "datasets[0].path must be a string path, not None"),
        ({"resources": {"embeddings": 2, "ppdb": "p.txt"}},
         "resources.embeddings must be a string path, not 2"),
        ({"resources": {"embeddings": "e.vec", "ppdb": 0}},
         "resources.ppdb must be a string path, not 0"),
        ({"cache_path": 1}, "cache_path must be a string path, not 1"),
        ({"datasets": [{"path": "c.csv"}]}, "datasets[0].name is required"),
        ({"datasets": [{"name": "d"}]}, "datasets[0].path is required"),
        ({"resources": {"ppdb": "p.txt"}}, "resources.embeddings is required"),
        ({"split_ration": 0.5},
         "unknown config key 'split_ration'; did you mean 'split_ratio'?"),
        ({"svm": {"c": 0.001}}, "unknown config key 'svm.c'; did you mean 'svm.C'?"),
        ({"svm": {"Gamma": 5}},
         "unknown config key 'svm.Gamma'; did you mean 'svm.gamma'?"),
        ({"eda": {"naug": 16}},
         "unknown config key 'eda.naug'; did you mean 'eda.n_aug'?"),
        ({"datasets": [{"name": "d", "path": "c.csv", "text_col": "t"}]},
         "unknown config key 'datasets[0].text_col'; "
         "did you mean 'datasets[0].text_column'?"),
        ({"resources": {"embeddings": "e.vec", "PPDB": "p.txt"}},
         "unknown config key 'resources.PPDB'; did you mean 'resources.ppdb'?"),
        ({"providers": {"translation": "identity", "syn_stage": ["ppdb"]}},
         "unknown config key 'providers.syn_stage'; "
         "did you mean 'providers.syn_stages'?"),
        ({"providers": {"translation": {"http": {"url": "u", "keyenv": "K"}}}},
         "unknown config key 'providers.translation.http.keyenv'; "
         "did you mean 'providers.translation.http.key_env'?"),
        ({"providers": {"translation": {"http": {"url": "u"}, "retries": 2}}},
         "unknown config key 'providers.translation.retries'; "
         "did you mean 'providers.translation.http.max_retries'?"),
        ({"colour": "blue"}, "unknown config key 'colour'"),
        ({"datasets": []}, "datasets must not be empty"),
        ({"groups": []}, "groups must not be empty"),
        ({"subset_sizes": []}, "subset_sizes must not be empty"),
        ({"providers": {"translation": "identity", "syn_stages": []}},
         "providers.syn_stages must not be empty"),
        ({"datasets": [{"name": "d", "path": "a.csv"},
                       {"name": "d", "path": "b.csv"}]},
         "dataset names must be unique"),
        ({"datasets": [{"name": "d", "path": "a.csv"},
                       {"name": "e", "path": "b.csv", "label_column": "text"}]},
         "datasets[1].label_column equals its text_column"),
        ({"datasets": [{"name": "ALL", "path": "a.csv"}]},
         "datasets[0].name 'ALL' names the report's rows over all datasets"),
        ({"providers": {"translation": "identity", "pivot": "pt"}},
         "providers.pivot equals providers.source_lang"),
        ({"providers": {"translation": "identity", "source_lang": "en"}},
         "providers.pivot equals providers.source_lang"),
    ], ids=["split_ratio-0", "split_ratio-1", "split_ratio-nan",
            "dataset_path-3", "dataset_path-null", "embeddings-2", "ppdb-0",
            "cache_path-1", "no-dataset-name", "no-dataset-path",
            "no-embeddings", "split_ration", "svm.c", "svm.Gamma", "eda.naug",
            "text_col", "PPDB", "syn_stage", "http-keyenv", "provider-level",
            "no-near-key", "no-datasets", "no-groups", "no-subset_sizes",
            "no-syn_stages", "repeated-dataset-name", "label-is-text-column",
            "dataset-named-ALL", "pivot-is-source_lang", "source_lang-is-pivot"])
    def test_bad_values_rejected_whatever_the_groups(self, demo, change,
                                                     message):
        # BT alone reads neither the paraphrase file nor a syn stage
        for groups in (["EDA", "Syn", "BT"], ["BT"]):
            with pytest.raises(ConfigError) as info:
                runner.config_from_dict({**demo, "groups": groups, **change})
            assert str(info.value) == message

    @pytest.mark.parametrize("key", [
        "datasets", "groups", "subset_sizes", "aug_percentages", "rounds",
        "master_seed"])
    def test_missing_required_key_named(self, demo, key):
        raw = {name: value for name, value in demo.items() if name != key}
        with pytest.raises(ConfigError) as info:
            runner.config_from_dict(raw)
        assert str(info.value) == f"{key} is required"

    @pytest.mark.parametrize("value", [None, 0])
    def test_null_or_zero_rate_is_no_cap(self, demo, value):
        raw = {**demo, "providers": {**demo["providers"], "translation": {
            "http": {"url": "u", "rate_per_second": value}}}}
        options = runner.config_from_dict(raw).translation.options
        assert options["rate_per_second"] == 0.0

    @pytest.mark.parametrize("section", ["svm", "eda", "providers", "resources"])
    @pytest.mark.parametrize("value", [[], 5, None, "x"],
                             ids=["list", "int", "null", "string"])
    def test_non_mapping_section_rejected(self, demo, section, value):
        with pytest.raises(ConfigError) as info:
            runner.config_from_dict({**demo, section: value})
        assert str(info.value) == f"{section} must be a mapping, not {value!r}"

    @pytest.mark.parametrize("field", [
        "datasets", "groups", "subset_sizes", "aug_percentages",
        "providers.syn_stages",
    ])
    @pytest.mark.parametrize("value", ["EDA", {"EDA": 1}, 3],
                             ids=["string", "mapping", "int"])
    def test_list_field_of_another_type_rejected(self, demo, field, value):
        raw = json.loads(json.dumps(demo))
        *parent, leaf = field.split(".")
        (raw[parent[0]] if parent else raw)[leaf] = value
        with pytest.raises(ConfigError) as info:
            runner.config_from_dict(raw)
        assert str(info.value) == f"{field} must be a list, not {value!r}"

    @pytest.mark.parametrize("key", ["name", "text_column", "label_column"])
    @pytest.mark.parametrize("value", [5, None, ["text"]],
                             ids=["int", "null", "list"])
    def test_non_string_dataset_field_rejected(self, demo, key, value):
        datasets = [demo["datasets"][0], {**demo["datasets"][1], key: value}]
        with pytest.raises(ConfigError) as info:
            runner.config_from_dict({**demo, "datasets": datasets})
        assert str(info.value) == (
            f"datasets[1].{key} must be a string, not {value!r}")

    def test_non_mapping_dataset_rejected(self, demo):
        with pytest.raises(ConfigError, match=r"datasets\[0\] must be a mapping"):
            runner.config_from_dict({**demo, "datasets": ["corpus.csv"]})

    @pytest.mark.parametrize("stages", [["ppdb"], ["ppdb", "contextual"]])
    def test_present_contextual_spec_parsed_whatever_the_stages(self, demo,
                                                                stages):
        for groups in (["EDA", "Syn", "BT"], ["EDA"]):
            raw = {**demo, "groups": groups, "providers": {
                **demo["providers"], "syn_stages": stages,
                "contextual": "bogus"}}
            with pytest.raises(ConfigError) as info:
                runner.config_from_dict(raw)
            assert str(info.value) == (
                "unusable contextual provider config: 'bogus'")
        raw["providers"]["contextual"] = "stub:t.tsv"
        assert runner.config_from_dict(raw).contextual == ProviderSpec(
            "stub", "t.tsv")

    def test_zero_neighbors_rejected(self, demo):
        with pytest.raises(ConfigError, match="embedding_neighbors_k"):
            runner.config_from_dict(
                {**demo, "providers": {**demo["providers"],
                                       "embedding_neighbors_k": 0}}
            )

    @pytest.mark.parametrize("resources, providers, match", [
        (None, {"syn_stages": ["ppdb", "wordnet"]}, "unknown syn stage"),
        ({"ppdb": None}, {"syn_stages": ["ppdb"]}, "needs resources.ppdb"),
        (None, {"syn_stages": ["contextual"]}, "unusable contextual"),
        (None, {"syn_stages": ["contextual"], "contextual": "table.tsv"},
         "unusable contextual"),
        (None, {"syn_stages": ["contextual"], "contextual": {"http": {}}},
         "providers.contextual.http.url is required"),
    ])
    def test_bad_syn_stage_rejected_when_parsed(self, demo, resources,
                                                providers, match):
        raw = {**demo, "groups": ["BT"],
               "providers": {**demo["providers"], **providers}}
        if resources:
            raw["resources"] = {**demo["resources"], **resources}
        with pytest.raises(ConfigError, match=match):
            runner.config_from_dict(raw)

    @pytest.mark.parametrize("translation, message", [
        ("bogus", "unusable translation provider config: 'bogus'"),
        (["x"], "unusable translation provider config: ['x']"),
        ("dict", "unusable translation provider config: 'dict'"),
        ({"http": {}}, "providers.translation.http.url is required"),
        ({"http": {"url": "http://127.0.0.1:9/t", "max_retries": 2.5}},
         "providers.translation.http.max_retries must be an integer, not 2.5"),
    ], ids=["bogus", "list", "dict-no-path", "http-no-url", "max_retries-2.5"])
    def test_bad_translation_spec_rejected_whatever_the_groups(
            self, demo, translation, message):
        # EDA alone never builds the translation provider
        for groups in (["EDA", "Syn", "BT"], ["EDA"]):
            raw = {**demo, "groups": groups,
                   "providers": {**demo["providers"], "translation": translation}}
            with pytest.raises(ConfigError) as info:
                runner.config_from_dict(raw)
            assert str(info.value) == message

    @pytest.mark.parametrize("family, value, spec", [
        ("translation", "identity", ProviderSpec("identity")),
        ("translation", "dict:a:b.tsv", ProviderSpec("dict", "a:b.tsv")),
        ("contextual", "stub:t.tsv", ProviderSpec("stub", "t.tsv")),
        ("contextual", {"http": {"url": "u", "timeout": 2}}, ProviderSpec(
            "http", options={"url": "u", "key_env": None, "timeout": 2.0,
                             "max_retries": 3, "backoff_base": 0.2,
                             "rate_per_second": 0.0})),
    ])
    def test_provider_specs_parsed_with_the_config(self, demo, family, value,
                                                   spec):
        raw = {**demo, "providers": {
            **demo["providers"], "syn_stages": ["contextual"],
            "translation": "identity", "contextual": "stub:t.tsv", family: value}}
        assert getattr(runner.config_from_dict(raw), family) == spec

    # every integer field: where it sits in the raw config, and how the
    # parsed config reads it back
    INT_FIELDS = {
        "master_seed": lambda c: c.master_seed,
        "rounds": lambda c: c.rounds,
        "subset_sizes": lambda c: c.subset_sizes[0],
        "eda.n_aug": lambda c: c.eda.n_aug,
        "providers.embedding_neighbors_k": lambda c: c.embedding_neighbors_k,
        "providers.contextual.http.max_retries":
            lambda c: c.contextual.options["max_retries"],
        "providers.translation.http.max_retries":
            lambda c: c.translation.options["max_retries"],
    }

    @staticmethod
    def _with_value(demo, field, value) -> dict:
        raw = json.loads(json.dumps(demo))
        raw["providers"].update(
            syn_stages=["ppdb", "contextual"],
            contextual={"http": {"url": "http://127.0.0.1:9/c"}},
            translation={"http": {"url": "http://127.0.0.1:9/t"}},
        )
        *parents, leaf = field.split(".")
        node = raw
        for name in parents:
            node = node.setdefault(name, {})
        node[leaf] = {"subset_sizes": [value], "aug_percentages": [0, value]
                      }.get(leaf, value)
        return raw

    @pytest.mark.parametrize("value", [7.9, True, "7"],
                             ids=["fraction", "bool", "string"])
    @pytest.mark.parametrize("field", INT_FIELDS)
    def test_non_integer_rejected(self, demo, field, value):
        leaf = field.rsplit(".", 1)[-1]
        with pytest.raises(ConfigError, match=f"{leaf} must be an integer"):
            runner.config_from_dict(self._with_value(demo, field, value))

    @pytest.mark.parametrize("field", INT_FIELDS)
    def test_integral_float_runs_as_int(self, demo, field):
        config = runner.config_from_dict(self._with_value(demo, field, 7.0))
        read = self.INT_FIELDS[field](config)
        assert read == 7 and type(read) is int

    # every float field: how the parsed config reads it back, and a value
    # in its range that is an int where the range holds one
    FLOAT_FIELDS = {
        "aug_percentages": (lambda c: c.aug_percentages[-1], 1),
        "providers.syn_rate": (lambda c: c.syn_rate, 1),
        "split_ratio": (lambda c: c.split_ratio, 0.5),
        "eda.alpha": (lambda c: c.eda.alpha, 0.5),
        "svm.C": (lambda c: c.svm.C, 3),
        "svm.tol": (lambda c: c.svm.tol, 1),
        "svm.gamma": (lambda c: c.svm.gamma, 2),
        "providers.translation.http.timeout":
            (lambda c: c.translation.options["timeout"], 5),
        "providers.translation.http.backoff_base":
            (lambda c: c.translation.options["backoff_base"], 1),
        "providers.translation.http.rate_per_second":
            (lambda c: c.translation.options["rate_per_second"], 3),
        "providers.contextual.http.timeout":
            (lambda c: c.contextual.options["timeout"], 5),
    }

    @pytest.mark.parametrize("value", [True, "0.5", math.inf, math.nan, 10**400],
                             ids=["bool", "string", "inf", "nan", "huge-int"])
    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    def test_non_finite_or_non_number_float_rejected(self, demo, field, value):
        leaf = field.rsplit(".", 1)[-1]
        # a string gamma names a mode, and only "scale" is one
        match = ("unknown gamma mode" if leaf == "gamma" and value == "0.5"
                 else f"{leaf} must be a finite number")
        with pytest.raises(ConfigError, match=match):
            runner.config_from_dict(self._with_value(demo, field, value))

    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    def test_float_field_reads_a_number_as_float(self, demo, field):
        accessor, value = self.FLOAT_FIELDS[field]
        for number in (value, float(value)):
            read = accessor(runner.config_from_dict(
                self._with_value(demo, field, number)))
            assert read == value and type(read) is float

    def test_eda_requires_ppdb(self, demo):
        bad = {**demo, "resources": {"embeddings": demo["resources"]["embeddings"]}}
        with pytest.raises(ConfigError, match="ppdb"):
            runner.config_from_dict(bad)


class TestPlanGrid:
    def test_paper_scale_is_2700(self, demo):
        cells = runner.plan_grid(paper_scale_config(demo))
        assert len(cells) == 2700

    def test_single_cell(self, demo):
        cfg = runner.config_from_dict({
            **demo,
            "datasets": demo["datasets"][:1],
            "groups": ["EDA"], "subset_sizes": [80],
            "aug_percentages": [0], "rounds": 1,
        })
        assert len(runner.plan_grid(cfg)) == 1

    def test_deterministic_order_and_seeds(self, demo):
        cfg = runner.config_from_dict(demo)
        cells1 = runner.plan_grid(cfg)
        cells2 = runner.plan_grid(cfg)
        assert cells1 == cells2
        seeds1 = [runner.derive_seed(cfg.master_seed, *c) for c in cells1]
        seeds2 = [runner.derive_seed(cfg.master_seed, *c) for c in cells2]
        assert seeds1 == seeds2

    def test_seed_distinct_per_cell(self, demo):
        cfg = runner.config_from_dict(demo)
        cells = runner.plan_grid(cfg)
        seeds = {runner.derive_seed(cfg.master_seed, *c) for c in cells}
        assert len(seeds) == len(cells)

    def test_a_cell_is_its_coordinates(self, demo):
        # so a cell keys its row, its seeds and its prediction file as is
        for cell in runner.plan_grid(runner.config_from_dict(demo)):
            coordinates = (cell.dataset, cell.group, cell.subset_size,
                           cell.aug_pct, cell.round)
            assert cell == coordinates and hash(cell) == hash(coordinates)
            assert ExperimentResult(*cell).key() == cell


@pytest.fixture(scope="module")
def run(demo, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("run"))
    config = runner.config_from_dict(demo)
    rows = runner.run_grid(config, out)
    return config, out, rows


class TestRunGrid:

    def test_row_count_matches_plan(self, run):
        config, _, rows = run
        assert len(rows) == len(runner.plan_grid(config))

    def test_rows_align_with_plan_order(self, run):
        config, _, rows = run
        for cell, row in zip(runner.plan_grid(config), rows):
            assert cell == row.key()

    def test_baseline_rows_have_null_gain_fields(self, run):
        _, _, rows = run
        for r in rows:
            if r.aug_pct == 0:
                assert r.gain is None and r.baseline_f1 is None
                assert r.p_value is None and r.b is None

    def test_ok_rows_have_f1_in_range(self, run):
        _, _, rows = run
        assert all(0.0 <= r.f1 <= 1.0 for r in rows if r.status == "ok")

    def test_augmented_count_law(self, run, demo):
        # N=140 -> train 105, p=0.2 -> 21 targets; Syn/BT add 21, EDA n_aug=1
        config, out, rows = run
        log_lines = [
            json.loads(line)
            for line in Path(out, "run_log.jsonl").read_text().splitlines()
        ]
        cell_lines = [l for l in log_lines if l["event"] == "cell"]
        assert len(cell_lines) == len(rows)
        for line in cell_lines:
            if line["aug_pct"] > 0:
                train = int(0.75 * line["subset_size"] + 0.5)
                assert line["generated_rows"] == int(line["aug_pct"] * train)
                assert 0 <= line["unchanged_rows"] <= line["generated_rows"]
            else:
                assert "generated_rows" not in line

    def test_results_csv_round_trip(self, run):
        _, out, rows = run
        path = os.path.join(out, "results.csv")
        parsed = read_results_csv(path)
        assert parsed == rows
        second = path + ".again"
        write_results_csv(second, parsed)
        assert Path(path).read_bytes() == Path(second).read_bytes()

    def test_pairing_fields_match_prediction_files(self, run):
        # the runner is the one place that pairs; recompute every field
        _, out, rows = run
        preds = {
            r.key(): load_predictions(os.path.join(
                out, "predictions",
                f"{r.dataset}_{r.group}_{r.subset_size}_{r.aug_pct}_{r.round}.jsonl",
            ))
            for r in rows if r.status == "ok"
        }
        paired = [r for r in rows if r.aug_pct > 0 and r.status == "ok"]
        assert paired
        for r in paired:
            y_true, aug_pred = preds[r.key()]
            base_true, base_pred = preds[(r.dataset, r.group, r.subset_size,
                                          0.0, r.round)]
            assert base_true == y_true
            assert r.baseline_f1 == evaluate(y_true, base_pred).weighted_f1
            assert r.gain == r.f1 - r.baseline_f1
            expected = (None, None, None, None)
            if r.gain > 0:
                table = stats.contingency(y_true, base_pred, aug_pred)
                test = stats.mcnemar(table)
                expected = (table.b, table.c, test.chi2, test.p_value)
            assert (r.b, r.c, r.chi2, r.p_value) == expected

    def test_mcnemar_only_on_positive_gains(self, run):
        _, _, rows = run
        for r in rows:
            if r.gain is not None and r.gain <= 0:
                assert r.p_value is None and r.chi2 is None
            if r.p_value is not None:
                assert r.gain is not None and r.gain > 0

    def test_predictions_persisted(self, run):
        config, out, rows = run
        from augbench.metrics import load_predictions

        ok = [r for r in rows if r.status == "ok"]
        fname = (
            f"{ok[0].dataset}_{ok[0].group}_{ok[0].subset_size}_"
            f"{ok[0].aug_pct}_{ok[0].round}.jsonl"
        )
        y_true, y_pred = load_predictions(
            os.path.join(out, "predictions", fname)
        )
        assert len(y_true) == len(y_pred) > 0

    def test_byte_identical_rerun(self, demo, tmp_path):
        config = runner.config_from_dict(
            {**demo, "subset_sizes": [80], "groups": ["EDA", "BT"]}
        )
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        runner.run_grid(config, out1)
        runner.run_grid(config, out2)
        csv1 = Path(out1, "results.csv").read_bytes()
        csv2 = Path(out2, "results.csv").read_bytes()
        assert csv1 == csv2

    def test_cache_file_cold_then_warm(self, demo, tmp_path, capsys):
        # run_grid and the train command close the cache's append handle
        # (a leaked handle fails the suite as a ResourceWarning)
        cache = tmp_path / "translations.jsonl"
        raw = {**demo, "subset_sizes": [80], "groups": ["BT"],
               "cache_path": str(cache)}
        config = runner.config_from_dict(raw)
        runner.run_grid(config, str(tmp_path / "cold"))
        cold = cache.read_bytes()
        runner.run_grid(config, str(tmp_path / "warm"))
        assert cold
        assert cache.read_bytes() == cold
        assert (Path(tmp_path, "cold", "results.csv").read_bytes()
                == Path(tmp_path, "warm", "results.csv").read_bytes())
        cache.unlink()
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(raw))
        assert cli.main(["train", "--config", str(config_path),
                         "--dataset", "synth3", "--group", "BT", "--size", "80",
                         "--pct", "0.2", "--out", str(tmp_path / "single")]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "ok"
        assert cache.read_bytes()

    def test_shared_subsets_across_groups(self, run):
        # with sharing on (default), the baseline test split is identical
        # across groups, so baseline predictions files pair row-for-row
        config, out, rows = run
        from augbench.metrics import load_predictions

        for size in config.subset_sizes:
            trues = []
            for group in config.groups:
                fname = f"synth3_{group}_{size}_0.0_0.jsonl"
                y_true, _ = load_predictions(
                    os.path.join(out, "predictions", fname)
                )
                trues.append(y_true)
            assert all(t == trues[0] for t in trues)


class TestFailurePaths:
    def test_unreachable_translator_marks_aug_failed(self, demo, tmp_path,
                                                     capsys):
        # an outage is not a failed cell: the grid stops with exit 5
        cfg = {
            **demo,
            "groups": ["BT"],
            "subset_sizes": [80],
            "providers": {
                "translation": {
                    "http": {"url": "http://127.0.0.1:9/t", "max_retries": 0,
                             "backoff_base": 0.0, "timeout": 0.2}
                }
            },
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = cli.main(["run-grid", "--config", str(path), "--out", str(out)])
        assert code == 5
        assert "error[transport]" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_outage_in_later_unit_keeps_finished_units_log(
            self, demo, tmp_path, monkeypatch, capsys):
        # round 1's back-translations fail; round 0's unit has ended, so
        # its predictions and run-log records are on disk
        cfg = {**demo, "datasets": demo["datasets"][:1], "groups": ["BT"],
               "subset_sizes": [80], "rounds": 2}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        rounds = []
        run_unit, back_translate = runner.run_unit, runner.back_translate

        def recorded_run_unit(config, resources, cells):
            rounds.append(cells[0].round)
            return run_unit(config, resources, cells)

        def back_translate_down_in_round_1(*args, **kwargs):
            if rounds[-1] == 1:
                raise TransportError("translator down")
            return back_translate(*args, **kwargs)

        monkeypatch.setattr(runner, "run_unit", recorded_run_unit)
        monkeypatch.setattr(runner, "back_translate",
                            back_translate_down_in_round_1)
        out = tmp_path / "out"
        code = cli.main(["run-grid", "--config", str(path), "--out", str(out)])
        assert code == 5
        assert "error[transport]: translator down" in capsys.readouterr().err
        assert rounds == [0, 1]
        assert not (out / "results.csv").exists()
        events = [json.loads(line) for line in
                  (out / "run_log.jsonl").read_text().splitlines()]
        assert [e["event"] for e in events] == [
            "resources", "dataset", "baseline", "cell", "cell"]
        assert events[2]["subset"] == ["synth3", 80, 0]
        assert [(e["aug_pct"], e["round"], e["status"]) for e in events[3:]] == [
            (0.0, 0, "ok"), (0.2, 0, "ok")]
        assert sorted(p.name for p in (out / "predictions").iterdir()) == [
            "synth3_BT_80_0.0_0.jsonl", "synth3_BT_80_0.2_0.jsonl"]

    def test_all_oov_corpus_marks_train_failed(self, demo, tmp_path):
        # words missing from the embedding file give zero vectors for every
        # sentence, so gamma=scale is undefined
        corpus = tmp_path / "oov.csv"
        lines = ["text,label"] + [
            f"zz{i} yy{i},{'a' if i % 2 else 'b'}" for i in range(40)
        ]
        corpus.write_text("\n".join(lines) + "\n")
        cfg = runner.config_from_dict({
            **demo,
            "datasets": [{"name": "oov", "path": str(corpus)}],
            "groups": ["EDA"],
            "subset_sizes": [20],
            "aug_percentages": [0],
            "rounds": 1,
        })
        rows = runner.run_grid(cfg, str(tmp_path / "out"))
        assert [r.status for r in rows] == ["train_failed"]

    def test_solver_ceiling_marks_train_failed(self, demo, tmp_path, monkeypatch):
        # an unconverged solve is a failed cell, never a kept model
        monkeypatch.setattr(
            kernels, "smo_solve", functools.partial(kernels.smo_solve, max_iter=1)
        )
        cfg = runner.config_from_dict({
            **demo, "groups": ["EDA"], "subset_sizes": [80], "rounds": 1,
        })
        rows = runner.run_grid(cfg, str(tmp_path / "out"))
        assert len(rows) == len(runner.plan_grid(cfg))
        assert {r.status for r in rows} == {"train_failed"}


def count_svm_train(monkeypatch) -> list[int]:
    """Record the training-set size of every svm_train call the runner makes."""
    sizes: list[int] = []
    train = runner.svm_train

    def counted(X, y, cfg, **kwargs):
        sizes.append(len(y))
        return train(X, y, cfg, **kwargs)

    monkeypatch.setattr(runner, "svm_train", counted)
    return sizes


class TestUnitGrid:
    def test_one_grid_and_one_distance_matrix_per_unit(self, demo, monkeypatch):
        config = runner.config_from_dict(
            {**demo, "datasets": demo["datasets"][:1], "subset_sizes": [80]})
        resources = runner.load_resources(config)
        trained, predicted, computed = [], [], []
        train, predict = runner.svm_train, runner.svm_predict
        sq_distances = kernels.sq_distances
        monkeypatch.setattr(
            runner, "svm_train", lambda X, y, cfg, **kw:
            trained.append((X, kw["distances"])) or train(X, y, cfg, **kw))

        def predict_counted(model, distances):
            predicted.append(distances)
            before = len(computed)
            preds = predict(model, distances)
            assert len(computed) == before  # it gathers, it computes none
            return preds

        def sq_distances_counted(A, B):
            computed.append((A, B, sq_distances(A, B)))
            return computed[-1][2]

        monkeypatch.setattr(runner, "svm_predict", predict_counted)
        for module in (runner, kernels):
            monkeypatch.setattr(module, "sq_distances", sq_distances_counted)
        cells = runner.plan_grid(config)
        runner.run_unit(config, resources, cells)
        assert len(trained) == len(predicted) == 1 + sum(
            c.aug_pct > 0 for c in cells)
        # X_test, X_train and each cell's generated rows: one grid
        step = resources.embeddings.grid_step
        assert step == grid_step(resources.embeddings.matrix)
        for X in [X for X, _ in trained] + [M for A, B, _ in computed
                                            for M in (A, B)]:
            k = X / step
            assert np.array_equal(k, np.rint(k))
            assert np.abs(k).max(initial=0) <= 2 ** grid_bits(
                resources.embeddings.dim)
        # the originals' distances are computed once; each training adds
        # its own rows', none for the baseline
        base = trained[0][1].blocks[0][0]
        (X_train, B, _), = [c for c in computed if c[2] is base]
        assert B is X_train
        for X, distances in trained:
            assert distances.blocks[0][0] is base
            assert distances.shape == (len(X), len(X))
        assert all(d.blocks[1][0].shape == (len(X) - len(base), len(base))
                   for X, d in trained)
        assert len(trained[0][0]) == len(base)
        # so are the test rows' distances to the originals; each training
        # adds those to its own rows
        test_block = predicted[0].blocks[0][0]
        (X_test, B, _), = [c for c in computed if c[2] is test_block]
        assert B is X_train and test_block.shape == (len(X_test), len(base))
        for distances, (X, _) in zip(predicted, trained, strict=True):
            (first, second), = distances.blocks
            assert first is test_block
            assert second.shape == (len(X_test), len(X) - len(base))
        assert sum(A is X_test for A, _, _ in computed) == 1 + len(predicted)

    def test_augmented_solves_start_from_their_baseline_pair(self, demo,
                                                            monkeypatch):
        config = runner.config_from_dict({**demo, "subset_sizes": [140]})
        resources = runner.load_resources(config)
        solve, solved = kernels.smo_solve, []

        def spied(K, y, C, tol, **kw):
            result = solve(K, y, C, tol, **kw)
            solved.append((kw["start"], result[0]))
            return result

        monkeypatch.setattr(kernels, "smo_solve", spied)
        units = {}
        for cell in runner.plan_grid(config):
            units.setdefault(cell.unit_key(), []).append(cell)
        for cells in units.values():
            solved.clear()
            rows, _, _ = runner.run_unit(config, resources, cells)
            assert all(r.status == "ok" for r in rows)
            pairs = [start is None for start, _ in solved].index(False)
            base = [alpha for _, alpha in solved[:pairs]]
            augmented = solved[pairs:]
            assert len(augmented) == pairs * sum(c.aug_pct > 0 for c in cells)
            for number, (start, _) in enumerate(augmented):
                seed = base[number % pairs]
                assert start[:len(seed)].tobytes() == seed.tobytes()
                assert len(start) > len(seed) and not start[len(seed):].any()

    def test_cells_of_a_failed_baseline_train_cold(self, demo, monkeypatch):
        config = runner.config_from_dict(
            {**demo, "datasets": demo["datasets"][:1], "subset_sizes": [80]})
        resources = runner.load_resources(config)
        train, starts = runner.svm_train, []

        def baseline_fails(X, y, cfg, **kw):
            if not starts:
                starts.append("baseline")
                raise TrainingError("the baseline fails")
            starts.append(kw["start"])
            return train(X, y, cfg, **kw)

        solve, solve_starts = kernels.smo_solve, []
        monkeypatch.setattr(runner, "svm_train", baseline_fails)
        monkeypatch.setattr(kernels, "smo_solve", lambda *a, **kw:
                            solve_starts.append(kw["start"]) or solve(*a, **kw))
        rows, _, _ = runner.run_unit(config, resources, runner.plan_grid(config))
        assert [r.status for r in rows if r.aug_pct == 0] == ["train_failed"] * 3
        augmented = [r for r in rows if r.aug_pct > 0]
        assert [(r.status, r.gain) for r in augmented] == [("ok", None)] * 3
        assert starts[1:] == [None] * 3 and len(solve_starts) > 3
        assert all(start is None for start in solve_starts)

    def test_a_unit_scores_each_model_once(self, demo, monkeypatch):
        # the baseline is scored once, and every group's p=0 row reports it
        config = runner.config_from_dict(
            {**demo, "datasets": demo["datasets"][:1], "subset_sizes": [80]})
        resources = runner.load_resources(config)
        trained = count_svm_train(monkeypatch)
        scores, evaluate_counted = [], runner.evaluate
        monkeypatch.setattr(runner, "evaluate", lambda y_true, y_pred:
                            scores.append(evaluate_counted(y_true, y_pred))
                            or scores[-1])
        rows, _, _ = runner.run_unit(config, resources, runner.plan_grid(config))
        augmented = [r for r in rows if r.aug_pct > 0]
        assert len(config.groups) == 3 and all(r.f1 is not None for r in rows)
        assert len(scores) == len(trained) == 1 + len(augmented)
        baseline_f1 = scores[0].weighted_f1
        assert [r.f1 for r in rows if r.aug_pct == 0] == [baseline_f1] * 3
        assert all(r.baseline_f1 == baseline_f1 for r in augmented)


class TestSharedBaseline:
    def test_three_groups_train_each_baseline_once(self, demo, tmp_path,
                                                   monkeypatch):
        sizes = count_svm_train(monkeypatch)
        config = runner.config_from_dict(demo)
        rows = runner.run_grid(config, str(tmp_path / "out"))
        assert len(config.groups) == 3
        units = len(config.datasets) * len(config.subset_sizes) * config.rounds
        augmented = sum(1 for r in rows if r.aug_pct > 0)
        assert len(sizes) == units + augmented
        # a baseline trains on the split's 75% train part, nothing more
        assert sorted(n for n in sizes if n in (60, 105)) == [60, 60, 105, 105]

    def test_train_rows_and_files_match_grid(self, run, demo, tmp_path,
                                            capsys):
        # train runs the cell and its baseline through the grid path, so
        # each of its results.csv lines and prediction files is the grid's
        _, out, rows = run
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(demo))
        grid_lines = Path(out, "results.csv").read_text().splitlines()
        grid_line = {r.key(): line for r, line in zip(rows, grid_lines[1:])}
        for row in rows:
            train_out = tmp_path / "_".join(map(str, row.key()))
            assert cli.main([
                "train", "--config", str(config_path), "--dataset", row.dataset,
                "--group", row.group, "--size", str(row.subset_size),
                "--pct", str(row.aug_pct), "--round", str(row.round),
                "--out", str(train_out),
            ]) == 0
            assert json.loads(capsys.readouterr().out)["f1"] == row.f1
            path = train_out / "results.csv"
            lines = path.read_text().splitlines()
            trained = read_results_csv(str(path))
            # the baseline row, then the augmented one when p > 0
            assert [r.aug_pct for r in trained] == sorted({0.0, row.aug_pct})
            assert lines[0] == grid_lines[0]
            for r, line in zip(trained, lines[1:]):
                assert line == grid_line[r.key()]
            files = sorted((train_out / "predictions").iterdir())
            assert len(files) == len(trained)
            for f in files:
                assert f.read_bytes() == Path(out, "predictions", f.name).read_bytes()


class TestRunUnit:
    def test_writes_nothing_and_matches_grid_runner(self, demo, tmp_path,
                                                    monkeypatch):
        config = runner.config_from_dict(demo)
        plan = runner.plan_grid(config)
        cells = [c for c in plan if c.unit_key() == plan[0].unit_key()]
        resources = runner.load_resources(config)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)

        def no_file(*args, **kwargs):
            raise AssertionError(f"run_unit opened or made {args[:1]}")

        try:
            grid = runner.GridRunner(config, "out", resources)
            with monkeypatch.context() as m:
                for target in ("builtins.open", "io.open", "os.open",
                               "os.mkdir", "os.makedirs"):
                    m.setattr(target, no_file)
                rows, records, payloads = runner.run_unit(
                    config, resources, cells)
            assert list(cwd.iterdir()) == []
            assert grid.run(cells) == rows
        finally:
            resources.cache.close()
        out = cwd / "out"
        write_results_csv(str(tmp_path / "unit.csv"), rows)
        assert ((tmp_path / "unit.csv").read_bytes()
                == (out / "results.csv").read_bytes())
        assert len(payloads) == len(cells) == len(
            list((out / "predictions").iterdir()))
        for cell, y_true, y_pred in payloads:
            name = "_".join(map(str, cell)) + ".jsonl"
            save_predictions(str(tmp_path / name), y_true, y_pred)
            assert ((tmp_path / name).read_bytes()
                    == (out / "predictions" / name).read_bytes())
        # after the resources and dataset records, the unit's own
        logged = [json.loads(line) for line in
                  (out / "run_log.jsonl").read_text().splitlines()]
        assert [r["event"] for r in logged] == (
            ["resources"] + ["dataset"] * len(config.datasets)
            + ["baseline"] + ["cell"] * len(cells))
        assert ([{**r, "seconds": 0} for r in logged[-len(records):]]
                == [{**r, "seconds": 0} for r in records])


class TestInvariants:
    def test_dropped_original_row_exits_nonzero(self, demo, tmp_path,
                                                monkeypatch, capsys):
        augment = runner.augment_training_set

        def drops_first_original(train, targets, augmenter):
            augmented, failures = augment(train, targets, augmenter)
            examples = augmented.examples[1:] + augmented.examples[:1]
            return Dataset(name=augmented.name, examples=examples), failures

        monkeypatch.setattr(runner, "augment_training_set", drops_first_original)
        cfg = {**demo, "datasets": demo["datasets"][:1], "groups": ["EDA"],
               "subset_sizes": [80]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code = cli.main(["run-grid", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error[invariant]" in capsys.readouterr().err

    def test_extra_generated_row_breaks_purity(self, demo, tmp_path,
                                               monkeypatch):
        make = runner.make_augmenter

        def two_per_target(config, resources, cell):
            augment = make(config, resources, cell)

            def twice(examples):
                rows, skipped = augment(examples)
                return rows * 2, skipped

            return twice

        monkeypatch.setattr(runner, "make_augmenter", two_per_target)
        config = runner.config_from_dict({
            **demo, "datasets": demo["datasets"][:1], "groups": ["BT"],
            "subset_sizes": [80],
        })
        with pytest.raises(InvariantError, match="purity"):
            runner.run_grid(config, str(tmp_path / "out"))

    def test_overlapping_split_raises(self, demo, tmp_path, monkeypatch):
        real_split = runner.split

        def overlapping(subset, ratio, seed):
            pair = real_split(subset, ratio=ratio, seed=seed)
            return SplitPair(pair.train, pair.test, pair.train_indices,
                             pair.test_indices + pair.train_indices[:1])

        monkeypatch.setattr(runner, "split", overlapping)
        config = runner.config_from_dict({
            **demo, "datasets": demo["datasets"][:1], "groups": ["EDA"],
            "subset_sizes": [80],
        })
        with pytest.raises(InvariantError, match="overlap"):
            runner.run_grid(config, str(tmp_path / "out"))


class TestBlasThreads:
    def test_results_identical_with_one_blas_thread(self, tmp_path):
        # X @ X.T rounds differently with one OpenBLAS thread than with
        # several; the converged solve must absorb those last bits. This
        # grid's round-1 baseline changed F1 under the capped solver.
        cfg = synthdata.make_demo(str(tmp_path / "fx"), rows=2000, seed=7)
        cfg.update(datasets=[d for d in cfg["datasets"] if d["name"] == "synth2"],
                   groups=["EDA"], subset_sizes=[600], aug_percentages=[0],
                   rounds=2)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(cfg))
        src = os.path.dirname(os.path.dirname(runner.__file__))
        outputs = []
        for threads in (None, "1"):
            env = {k: v for k, v in os.environ.items() if k not in {
                "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}}
            env["PYTHONPATH"] = os.pathsep.join(
                [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"out-{threads or 'default'}"
            done = subprocess.run(
                [sys.executable, "-m", "augbench.cli", "run-grid",
                 "--config", str(config_path), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            outputs.append((out / "results.csv").read_bytes())
        assert outputs[0] == outputs[1]


def _run_log(cfg: dict, out) -> list[dict]:
    runner.run_grid(runner.config_from_dict(cfg), str(out))
    text = Path(out, "run_log.jsonl").read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines()]


class TestRunLog:
    """The run log keeps what the inputs' loaders and the augmenters
    return: it is the package's one event path."""

    @staticmethod
    def _demo(tmp_path, **overrides) -> dict:
        cfg = synthdata.make_demo(str(tmp_path / "fx"), rows=120, seed=4)
        cfg.update(datasets=cfg["datasets"][:1], subset_sizes=[60],
                   aug_percentages=[0, 0.2], rounds=1, **overrides)
        return cfg

    def test_input_summaries_in_run_log(self, tmp_path):
        cfg = self._demo(tmp_path)
        cfg["resources"]["resource_id"] = "demo-v1"
        paths = (cfg["datasets"][0]["path"], cfg["resources"]["embeddings"],
                 cfg["resources"]["ppdb"])
        for path, skipped_line in zip(paths, (",neg", "torto 1.0",
                                              "x ||| so um campo")):
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(skipped_line + "\n")
        events = _run_log(cfg, tmp_path / "out")
        ds = load_dataset(paths[0])
        store, synmap = load_embeddings(paths[1]), parse_ppdb(paths[2])
        assert ds.skipped == store.skipped == synmap.skipped == 1
        assert [e for e in events if e["event"] == "resources"] == [{
            "event": "resources", "resource_id": "demo-v1",
            "embeddings": {"dim": store.dim, "words": len(store),
                           "skipped": 1},
            "ppdb": {"entries": len(synmap), "skipped": 1},
        }]
        assert [e for e in events if e["event"] == "dataset"] == [{
            "event": "dataset", "name": "synth3", "rows": len(ds),
            "skipped_rows": 1,
            "label_histogram": dict(collections.Counter(ds.labels())),
        }]

    def test_bijective_bt_rows_all_unchanged(self, tmp_path):
        # the demo dictionary is a bijection, so every round trip comes
        # back unchanged; with no paraphrase file the map is not loaded
        cfg = self._demo(tmp_path, groups=["BT"])
        del cfg["resources"]["ppdb"]
        cfg["providers"]["syn_stages"] = ["embedding"]
        events = _run_log(cfg, tmp_path / "out")
        assert next(e for e in events if e["event"] == "resources")[
            "ppdb"] is None
        cells = [e for e in events if e["event"] == "cell"
                 and e["aug_pct"] > 0]
        assert [(c["generated_rows"], c["unchanged_rows"]) for c in cells] == [
            (9, 9)]  # 0.2 of the 45 training rows


    def test_failed_cells_carry_their_facts(self, tmp_path, monkeypatch):
        # the first EDA target fails, so the EDA cell is aug_failed; the
        # solver ceiling fails every training, the baseline's included
        eda_augment, eda_calls = runner.eda_augment, []

        def first_target_empty(sentence, *args):
            eda_calls.append(sentence)
            if len(eda_calls) == 1:
                raise EmptySentenceError("nothing to augment")
            return eda_augment(sentence, *args)

        monkeypatch.setattr(runner, "eda_augment", first_target_empty)
        monkeypatch.setattr(kernels, "smo_solve", functools.partial(
            kernels.smo_solve, max_iter=1))
        events = _run_log(self._demo(tmp_path, groups=["EDA", "Syn"]),
                          tmp_path / "out")
        assert [e["event"] for e in events[2:]] == ["baseline"] + ["cell"] * 4
        facts = [
            (e["group"], e["aug_pct"], e["status"], e.get("failed_targets"),
             isinstance(e.get("error"), str) and e["error"] != "")
            for e in events[3:]
        ]
        assert facts == [
            ("EDA", 0.0, "train_failed", None, True),
            ("EDA", 0.2, "aug_failed", 1, False),
            ("Syn", 0.0, "train_failed", None, True),
            ("Syn", 0.2, "train_failed", None, True),
        ]


class TestTrain:
    def test_reproduces_grid_row(self, demo, tmp_path, capsys):
        raw = {**demo, "subset_sizes": [80], "groups": ["Syn"]}
        grid_rows = runner.run_grid(runner.config_from_dict(raw),
                                    str(tmp_path / "grid"))
        wanted = next(r for r in grid_rows if r.aug_pct > 0)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(raw))
        assert cli.main([
            "train", "--config", str(config_path), "--dataset", wanted.dataset,
            "--group", wanted.group, "--size", str(wanted.subset_size),
            "--pct", str(wanted.aug_pct), "--round", str(wanted.round),
            "--out", str(tmp_path / "single"),
        ]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "dataset": wanted.dataset, "group": wanted.group,
            "subset_size": wanted.subset_size, "aug_pct": wanted.aug_pct,
            "round": wanted.round, "status": wanted.status, "f1": wanted.f1,
            "baseline_f1": wanted.baseline_f1, "gain": wanted.gain,
            "p_value": wanted.p_value,
        }


def fixture_rows():
    """36 augmented rows + baselines: 3 groups x 2 sizes x 3 pcts x 2 rounds."""
    rows = []
    gain_steps = {"EDA": 0.01, "Syn": -0.01, "BT": 0.0}
    pcts = (0.05, 0.1, 0.2)
    for group, step in gain_steps.items():
        for size in (500, 1000):
            for rnd in (0, 1):
                base_f1 = 0.80 if size == 500 else 0.84
                rows.append(ExperimentResult(
                    dataset="ds", group=group, subset_size=size, aug_pct=0.0,
                    round=rnd, f1=base_f1,
                ))
                for k, pct in enumerate(pcts):
                    f1 = base_f1 + step * (k + 1)
                    row = ExperimentResult(
                        dataset="ds", group=group, subset_size=size,
                        aug_pct=pct, round=rnd, f1=f1,
                        baseline_f1=base_f1, gain=f1 - base_f1,
                    )
                    if row.gain > 0:
                        row.b, row.c = 10, 2
                        row.chi2 = 49 / 12
                        row.p_value = 0.0433081428 if rnd == 0 else 0.3173
                    rows.append(row)
    return rows


class TestSummarize:
    def test_mean_gains_match_hand_computation(self, tmp_path):
        report.summarize(fixture_rows(), str(tmp_path))
        by_size = read_mean_gains(tmp_path / "mean_gain_by_group_size.csv")
        # EDA gains per (group, size): mean of 0.01, 0.02, 0.03 twice
        for size in (500, 1000):
            mean, n = by_size["ds", "EDA", size]
            assert n == 6
            assert mean == pytest.approx(0.02, abs=1e-12)
            mean, _ = by_size["ds", "Syn", size]
            assert mean == pytest.approx(-0.02, abs=1e-12)
            mean, _ = by_size["ds", "BT", size]
            assert mean == pytest.approx(0.0, abs=1e-12)

    def test_significance_flags(self, tmp_path):
        _, significant = report.summarize(fixture_rows(), str(tmp_path))
        # only EDA rows gain > 0; round 0 rows carry p = 0.0433 < 0.05
        assert len(significant) == 6
        assert all(r.group == "EDA" and r.round == 0 for r in significant)

    def test_null_tests_for_non_positive_gains(self, tmp_path):
        gains, _ = report.summarize(fixture_rows(), str(tmp_path))
        lines = (tmp_path / "pvalues.csv").read_text().splitlines()[1:]
        assert len(lines) == len(gains) == 36
        for r, line in zip(gains, lines):
            if r.gain <= 0:
                assert line.endswith(",,,")

    def test_emits_bundle_files(self, tmp_path):
        report.summarize(fixture_rows(), str(tmp_path))
        for name in (
            "mean_gain_by_group.csv", "mean_gain_by_group_size.csv",
            "pvalues.csv", "neg_log_p.csv", "summary.txt",
            "baseline_table_ds.csv", "pvalue_table_ds.csv",
        ):
            assert (tmp_path / name).exists(), name

    def test_baseline_table_layout(self, tmp_path):
        report.summarize(fixture_rows(), str(tmp_path))
        lines = (tmp_path / "baseline_table_ds.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "subset_size"
        assert "EDA_0.05" in header and "BT_0.2" in header
        assert [l.split(",")[0] for l in lines[1:]] == ["500", "1000"]

    def test_all_equal_f1_gives_zero_means(self, tmp_path):
        rows = [
            ExperimentResult("d", "EDA", 500, 0.0, 0, f1=0.9),
            ExperimentResult("d", "EDA", 500, 0.05, 0, f1=0.9,
                             baseline_f1=0.9, gain=0.0),
        ]
        report.summarize(rows, str(tmp_path))
        assert read_mean_gains(tmp_path / "mean_gain_by_group.csv") == {
            ("d", "EDA"): (0.0, 1), ("ALL", "EDA"): (0.0, 1)}

    def test_unpaired_rows_reported(self, tmp_path):
        rows = [
            ExperimentResult("d", "EDA", 500, 0.05, 0, f1=0.9),
            ExperimentResult("d", "EDA", 1000, 0.0, 0, f1=0.8),
            ExperimentResult("d", "EDA", 1000, 0.05, 0, f1=0.85,
                             baseline_f1=0.8, gain=0.05, b=4, c=1,
                             chi2=0.8, p_value=0.3711),
        ]
        gains, _ = report.summarize(rows, str(tmp_path))
        assert [r.key() for r in gains] == [("d", "EDA", 1000, 0.05, 0)]
        assert "unpaired augmented cells (no ok baseline): 1\n" in (
            tmp_path / "summary.txt").read_text(encoding="utf-8")

    def test_empty_input_rejected(self, tmp_path):
        with pytest.raises(DataError):
            report.summarize([], str(tmp_path))
