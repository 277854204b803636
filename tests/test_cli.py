import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from augbench import cli, runner, synthdata
from augbench.cli import main
from augbench.corpus import load_dataset, tokenize
from augbench.errors import ConfigError, DataError, ResourceError
from augbench.metrics import load_predictions, save_predictions
from augbench.providers import (
    DictTranslationProvider, TranslationCache, load_contextual_table,
)
from augbench.resources import load_embeddings, parse_ppdb
from augbench.results import (
    CSV_COLUMNS, ExperimentResult, read_results_csv, write_results_csv,
)


@pytest.fixture(scope="module")
def demo_config(tmp_path_factory):
    root = tmp_path_factory.mktemp("clidemo")
    cfg = synthdata.make_demo(str(root), rows=600, seed=9)
    cfg["subset_sizes"] = [80]
    cfg["aug_percentages"] = [0, 0.2]
    cfg["rounds"] = 1
    path = root / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path), cfg


MAGNITUDES = pytest.mark.parametrize(
    "entries, top", [("huge", "1e+160"), ("tiny", "3.84278e-200")])


def out_of_bounds_embeddings(tmp_path, cfg, entries, top):
    """(config path, expected stderr) of the demo config with its
    embedding file changed: one entry of 1e160 ("huge") overflows the
    squared distances, and every entry times 1e-200 ("tiny") underflows
    them to zero."""
    header, *rows = Path(cfg["resources"]["embeddings"]).read_text(
        encoding="utf-8").splitlines()
    if entries == "huge":
        word, _, *rest = rows[0].split()
        rows[0] = " ".join([word, "1e160", *rest])
    else:
        rows = [" ".join([word, *(repr(float(v) * 1e-200) for v in values)])
                for word, *values in map(str.split, rows)]
    vec = tmp_path / f"{entries}.vec"
    vec.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    cfg_path = tmp_path / f"{entries}.json"
    cfg_path.write_text(json.dumps(
        {**cfg, "resources": {**cfg["resources"], "embeddings": str(vec)}}))
    return cfg_path, (
        f"error[resource]: embedding entries up to {top} leave squared "
        f"distances outside float64: exact distances need the largest "
        f"|entry| in [2^-515, 2^508)\n")


class TestMcnemarCommand:
    def test_identical_files_p_one(self, tmp_path, capsys):
        y = ["a", "b", "a", "b"]
        p1, p2 = str(tmp_path / "p1.jsonl"), str(tmp_path / "p2.jsonl")
        save_predictions(p1, y, ["a", "b", "b", "b"])
        save_predictions(p2, y, ["a", "b", "b", "b"])
        assert main(["mcnemar", p1, p2]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["p_value"] == 1.0
        assert out["b"] == 0 and out["c"] == 0
        assert out["significant"] is False

    def test_disagreeing_truths_is_data_error(self, tmp_path, capsys):
        p1, p2 = str(tmp_path / "p1.jsonl"), str(tmp_path / "p2.jsonl")
        save_predictions(p1, ["a", "b"], ["a", "b"])
        save_predictions(p2, ["a", "a"], ["a", "b"])
        assert main(["mcnemar", p1, p2]) == 3
        assert "error[data]" in capsys.readouterr().err

    def test_missing_file_nonzero(self, tmp_path, capsys):
        assert main(["mcnemar", str(tmp_path / "x"), str(tmp_path / "y")]) != 0

    def test_malformed_line_is_data_error(self, tmp_path, capsys):
        p1, p2 = str(tmp_path / "p1.jsonl"), str(tmp_path / "p2.jsonl")
        save_predictions(p1, ["a", "b"], ["a", "b"])
        with open(p2, "w", encoding="utf-8") as fh:
            fh.write('{"index": 0, "true_label": "a"}\nnot json\n')
        assert main(["mcnemar", p1, p2]) == 3
        assert "error[data]" in capsys.readouterr().err

    @pytest.mark.parametrize("record", [
        {"index": 1.7, "true_label": "5", "predicted_label": "True"},
        {"index": 1.0, "true_label": "5", "predicted_label": "True"},
        {"index": True, "true_label": "5", "predicted_label": "True"},
        {"index": "1", "true_label": "5", "predicted_label": "True"},
        {"index": 1, "true_label": 5, "predicted_label": "True"},
        {"index": 1, "true_label": "5", "predicted_label": True},
        {"index": 1, "true_label": "5", "predicted_label": None},
        {"index": 1, "true_label": "5", "predicted_label": "True", "extra": 1},
        {"index": 1, "true_label": "5"},
        [1, "5", "True"],
    ], ids=["float-index", "integral-float-index", "bool-index",
            "string-index", "int-label", "bool-label", "null-label",
            "extra-key", "missing-key", "array"])
    def test_record_save_predictions_would_not_write_is_data_error(
            self, tmp_path, capsys, record):
        # each would otherwise read as index 1 with labels "5" and "True"
        # (or "None"), and pair silently with p1
        p1, p2 = str(tmp_path / "p1.jsonl"), str(tmp_path / "p2.jsonl")
        save_predictions(p1, ["a", "5"], ["a", "True"])
        with open(p2, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"index": 0, "true_label": "a",
                                 "predicted_label": "a"}) + "\n")
            fh.write(json.dumps(record) + "\n")
        assert main(["mcnemar", p1, p2]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error[data]: {p2}: line 2: not a prediction record")
        assert captured.out == ""

    @pytest.mark.parametrize("indices", [[0, 0], [0, 2], [1, 2], [-1, 0]],
                             ids=["repeated", "gap", "from-one", "negative"])
    def test_indices_other_than_0_to_n_are_data_error(self, tmp_path, capsys,
                                                      indices):
        # with index 0 twice, the labels still agree with p1's, and the
        # pairs would be taken from misaligned rows
        p1, p2 = str(tmp_path / "p1.jsonl"), str(tmp_path / "p2.jsonl")
        save_predictions(p1, ["a", "b"], ["a", "b"])
        with open(p2, "w", encoding="utf-8") as fh:
            for index, label in zip(indices, ["a", "b"]):
                fh.write(json.dumps({"index": index, "true_label": label,
                                     "predicted_label": label}) + "\n")
        assert main(["mcnemar", p1, p2]) == 3
        assert "prediction indices are not 0..1" in capsys.readouterr().err

    def test_records_in_any_order_load_in_index_order(self, tmp_path):
        path = tmp_path / "p.jsonl"
        save_predictions(str(path), ["a", "b", "c"], ["b", "c", "a"])
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[::-1]) + "\n", encoding="utf-8")
        assert load_predictions(str(path)) == (["a", "b", "c"], ["b", "c", "a"])


class TestRunGridCommand:
    def test_one_cell_grid(self, tmp_path, capsys, demo_config):
        path, cfg = demo_config
        small = dict(cfg)
        small["datasets"] = cfg["datasets"][:1]
        small["groups"] = ["EDA"]
        small["aug_percentages"] = [0]
        cfg_path = tmp_path / "one.json"
        cfg_path.write_text(json.dumps(small))
        out_dir = str(tmp_path / "out")
        assert main(["run-grid", "--config", str(cfg_path), "--out", out_dir]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cells"] == 1
        assert os.path.exists(os.path.join(out_dir, "results.csv"))

    def test_dimension_without_exact_distances_exit_4(self, tmp_path, capsys,
                                                      demo_config):
        _, cfg = demo_config
        dim = 2 ** 19 + 1
        wide = tmp_path / "wide.vec"
        wide.write_text(f"1 {dim}\nbom" + " 0" * dim + "\n", encoding="utf-8")
        cfg_path = tmp_path / "wide.json"
        cfg_path.write_text(json.dumps(
            {**cfg, "resources": {**cfg["resources"], "embeddings": str(wide)}}))
        assert main(["run-grid", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err.startswith(
            "error[resource]: embedding dimension 524289 leaves 15 grid bits")
        assert not (tmp_path / "out").exists()

    @MAGNITUDES
    def test_embedding_magnitude_without_exact_distances_exit_4(
            self, tmp_path, capsys, demo_config, monkeypatch, entries, top):
        cfg_path, err = out_of_bounds_embeddings(
            tmp_path, demo_config[1], entries, top)
        monkeypatch.setattr(runner, "svm_train", lambda *a, **kw: pytest.fail(
            "trained on embeddings without exact distances"))
        assert main(["run-grid", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err == err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run-grid", "train"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_that_cannot_be_a_directory_exit_3(self, tmp_path, capsys,
                                                   demo_config, command, under):
        path, _ = demo_config
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / "sub" if under else tmp_path / "taken"
        cell = ["--dataset", "synth3", "--group", "EDA", "--size", "80",
                "--pct", "0.2"]
        assert main([command, "--config", path, *(cell if command == "train"
                                                   else []),
                     "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == (f"error[data]: cannot make output directory: "
                                f"{out / 'predictions'}: Not a directory\n")
        assert captured.out == ""

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{}")
        assert main(["run-grid", "--config", str(cfg_path)]) == 2
        assert "error[config]" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [False, "", [], {}],
                             ids=["false", "empty-string", "list", "mapping"])
    def test_non_number_rate_exit_2(self, tmp_path, capsys, demo_config, value):
        # null is no cap; a value that is merely falsy is not a number
        _, cfg = demo_config
        cfg_path = tmp_path / "rate.json"
        cfg_path.write_text(json.dumps({**cfg, "providers": {
            **cfg["providers"], "translation": {
                "http": {"url": "http://localhost:1", "rate_per_second": value}}}}))
        assert main(["run-grid", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error[config]: providers.translation.http.rate_per_second must "
            f"be a finite number, not {value!r}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["augment", "run-grid"])
    def test_int_path_exit_2(self, tmp_path, capsys, demo_config, command):
        # open() takes an int for a file descriptor: 2 is stderr
        _, cfg = demo_config
        cfg_path = tmp_path / "fd.json"
        cfg_path.write_text(json.dumps(
            {**cfg, "resources": {**cfg["resources"], "embeddings": 2}}))
        args = ["--dataset", "synth3", "--group", "Syn", "--pct", "0.1"]
        assert main([command, "--config", str(cfg_path),
                     *(args if command == "augment" else []),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error[config]: resources.embeddings must be a string path, "
            "not 2\n")

    @pytest.mark.parametrize("command", ["augment", "run-grid"])
    @pytest.mark.parametrize("name", ["a/b", "a\\b"])
    def test_dataset_name_with_path_separator_exit_2(self, tmp_path, capsys,
                                                     demo_config, command,
                                                     name):
        # output file names start with the name; with no dataset to read,
        # exit 3 would mean the inputs were opened
        _, cfg = demo_config
        cfg_path = tmp_path / "sep.json"
        cfg_path.write_text(json.dumps({**cfg, "datasets": [
            cfg["datasets"][0],
            {"name": name, "path": str(tmp_path / "absent.csv")}]}))
        args = ["--dataset", name, "--group", "EDA", "--pct", "1.0"]
        assert main([command, "--config", str(cfg_path),
                     *(args if command == "augment" else []),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error[config]: datasets[1].name {name!r} holds a path "
            "separator; output file names are made from it\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["augment", "run-grid"])
    def test_dataset_named_all_exit_2(self, tmp_path, capsys, demo_config,
                                      command):
        # the report's mean-gain rows over every dataset are keyed "ALL"
        _, cfg = demo_config
        cfg_path = tmp_path / "all.json"
        cfg_path.write_text(json.dumps({**cfg, "datasets": [
            cfg["datasets"][0], {**cfg["datasets"][0], "name": "ALL"}]}))
        args = ["--dataset", "ALL", "--group", "EDA", "--pct", "1.0"]
        assert main([command, "--config", str(cfg_path),
                     *(args if command == "augment" else []),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error[config]: datasets[1].name 'ALL' names the report's rows "
            "over all datasets\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [
        ("resources.embeddings", "{}"), ("resources.ppdb", "{}"),
        ("cache_path", "{}"), ("datasets[0].path", "{}"),
        ("providers.translation", "dict:{}"),
        ("providers.contextual", "stub:{}"),
    ])
    def test_nul_in_a_path_exit_2(self, tmp_path, capsys, demo_config, key,
                                  value):
        # open() raises ValueError on a NUL
        cfg = json.loads(json.dumps(demo_config[1]))  # a copy to change
        path = str(tmp_path / "a\0b")
        section, _, name = key.rpartition(".")
        target = (cfg if not section else cfg["datasets"][0]
                  if section == "datasets[0]" else cfg[section])
        target[name] = value.format(path)
        cfg_path = tmp_path / "nul.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run-grid", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error[config]: {key} {path!r} holds a NUL character\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["augment", "run-grid"])
    def test_dataset_name_with_a_nul_exit_2(self, tmp_path, capsys,
                                            demo_config, command):
        # saving a prediction file, whose name starts with the dataset's,
        # would raise ValueError after the first unit trained
        _, cfg = demo_config
        cfg_path = tmp_path / "nul.json"
        cfg_path.write_text(json.dumps({**cfg, "datasets": [
            cfg["datasets"][0], {**cfg["datasets"][0], "name": "a\0b"}]}))
        args = ["--dataset", "a\0b", "--group", "EDA", "--pct", "1.0"]
        assert main([command, "--config", str(cfg_path),
                     *(args if command == "augment" else []),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error[config]: datasets[1].name 'a\\x00b' holds a NUL character; "
            "output file names are made from it\n")
        assert not (tmp_path / "o").exists()

    def test_pivot_equal_to_source_lang_exit_2(self, tmp_path, capsys,
                                               demo_config):
        # both hops would take the dictionary's forward side
        _, cfg = demo_config
        cfg_path = tmp_path / "pivot.json"
        cfg_path.write_text(json.dumps(
            {**cfg, "providers": {**cfg["providers"], "pivot": "pt"}}))
        assert main(["augment", "--config", str(cfg_path), "--dataset",
                     "synth3", "--group", "BT", "--pct", "0.2",
                     "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error[config]: providers.pivot equals providers.source_lang\n")
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_label_column_equal_to_text_column_exit_2(self, tmp_path, capsys,
                                                      demo_config):
        # each row would be its own class
        _, cfg = demo_config
        cfg_path = tmp_path / "label.json"
        cfg_path.write_text(json.dumps({**cfg, "datasets": [
            {**cfg["datasets"][0], "label_column": "text"}]}))
        assert main(["train", "--config", str(cfg_path), "--dataset",
                     "synth3", "--group", "EDA", "--size", "40", "--pct",
                     "0.2", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error[config]: datasets[0].label_column equals its text_column\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["augment", "train", "run-grid"])
    def test_bad_translation_spec_exit_2_before_inputs(self, tmp_path, capsys,
                                                       demo_config, command):
        # with no dataset to read, exit 3 would mean the inputs were opened
        _, cfg = demo_config
        cfg_path = tmp_path / "bogus.json"
        cfg_path.write_text(json.dumps({
            **cfg,
            "datasets": [{**d, "path": str(tmp_path / "absent.csv")}
                         for d in cfg["datasets"]],
            "providers": {**cfg["providers"], "translation": "bogus"},
        }))
        args = {"augment": ["--dataset", "synth3", "--group", "BT",
                            "--pct", "0.1"],
                "train": ["--dataset", "synth3", "--group", "BT",
                          "--size", "80", "--pct", "0.2"],
                "run-grid": []}[command]
        assert main([command, "--config", str(cfg_path), *args,
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error[config]: unusable translation provider config: 'bogus'\n")

    @pytest.mark.parametrize("change, message", [
        ({"svm": []}, "svm must be a mapping, not []"),
        ({"groups": "EDA"}, "groups must be a list, not 'EDA'"),
    ])
    def test_malformed_section_exit_2(self, tmp_path, capsys, demo_config,
                                      change, message):
        _, cfg = demo_config
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({**cfg, **change}))
        assert main(["augment", "--config", str(cfg_path), "--dataset",
                     "synth3", "--group", "EDA", "--pct", "0.1",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error[config]: {message}\n"

    @pytest.mark.parametrize("command", ["augment", "run-grid"])
    @pytest.mark.parametrize("change, key, near", [
        (lambda cfg: {"svm": {"c": 0.001}}, "svm.c", "svm.C"),
        (lambda cfg: {"svm": {"Gamma": 5}}, "svm.Gamma", "svm.gamma"),
        (lambda cfg: {"eda": {"naug": 16}}, "eda.naug", "eda.n_aug"),
        (lambda cfg: {"split_ration": 0.5}, "split_ration", "split_ratio"),
        (lambda cfg: {"datasets": [{**cfg["datasets"][0], "text_col": "t"}]},
         "datasets[0].text_col", "datasets[0].text_column"),
        (lambda cfg: {"providers": {**cfg["providers"], "translation": {
            "http": {"url": "http://127.0.0.1:9/t", "keyenv": "KEY"}}}},
         "providers.translation.http.keyenv",
         "providers.translation.http.key_env"),
    ], ids=["svm.c", "svm.Gamma", "eda.naug", "split_ration", "text_col",
            "keyenv"])
    def test_unknown_key_exit_2_names_nearest_key(self, tmp_path, capsys,
                                                  demo_config, command,
                                                  change, key, near):
        # a misspelled optional key would run the grid on its default
        _, cfg = demo_config
        cfg_path = tmp_path / "typo.json"
        cfg_path.write_text(json.dumps({**cfg, **change(cfg)}))
        args = ["--dataset", "synth3", "--group", "EDA", "--pct", "0.1"]
        assert main([command, "--config", str(cfg_path),
                     *(args if command == "augment" else []),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error[config]: unknown config key {key!r}; "
            f"did you mean {near!r}?\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["augment", "run-grid"])
    @pytest.mark.parametrize("repeat, key", [
        (', "rounds": 1}', "rounds"),
        (', "svm": {"C": 1, "C": 2}}', "C"),
    ], ids=["rounds", "svm.C"])
    def test_repeated_key_exit_2(self, tmp_path, capsys, demo_config, command,
                                 repeat, key):
        # json.load would keep the last value: one round, not the first's
        _, cfg = demo_config
        cfg_path = tmp_path / "twice.json"
        cfg_path.write_text(json.dumps(cfg)[:-1] + repeat)
        args = ["--dataset", "synth3", "--group", "EDA", "--pct", "0.1"]
        assert main([command, "--config", str(cfg_path),
                     *(args if command == "augment" else []),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error[config]: repeated config key {key!r}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["augment", "train", "run-grid"])
    def test_empty_syn_stages_exit_2_before_output(self, tmp_path, capsys,
                                                   demo_config, command):
        # the grid's EDA cells would have run before its first Syn cell
        _, cfg = demo_config
        cfg_path = tmp_path / "no_stages.json"
        cfg_path.write_text(json.dumps({
            **cfg, "groups": ["EDA", "Syn"],
            "providers": {**cfg["providers"], "syn_stages": []}}))
        args = {"augment": ["--dataset", "synth3", "--group", "Syn",
                            "--pct", "0.1"],
                "train": ["--dataset", "synth3", "--group", "Syn",
                          "--size", "80", "--pct", "0.2"],
                "run-grid": []}[command]
        assert main([command, "--config", str(cfg_path), *args,
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error[config]: providers.syn_stages must not be empty\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run-grid", "train"])
    @pytest.mark.parametrize("size, ratio, message", [
        (601, 0.75, "synth3: subset size 601 out of range 1..600"),
        (2, 0.75, "subset of 2 is too small to split"),
        (10, 0.95,
         "split ratio 0.95 of a subset of 10 leaves the test side empty"),
        (10, 0.04,
         "split ratio 0.04 of a subset of 10 leaves the train side empty"),
    ], ids=["above-rows", "below-4", "empty-test", "empty-train"])
    def test_unusable_subset_exit_3_before_output(self, tmp_path, capsys,
                                                  demo_config, command, size,
                                                  ratio, message):
        # the usable size 80 comes first: its units would have run before
        # the unusable one failed
        _, cfg = demo_config
        cfg_path = tmp_path / "sizes.json"
        cfg_path.write_text(json.dumps(
            {**cfg, "subset_sizes": [80, size], "split_ratio": ratio}))
        args = ["--dataset", "synth3", "--group", "EDA", "--pct", "0.2",
                "--size", str(size)]
        assert main([command, "--config", str(cfg_path),
                     *(args if command == "train" else []),
                     "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"error[data]: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_bytes(b'{"datasets": "\xff\xfe"}')
        assert main(["run-grid", "--config", str(cfg_path)]) == 2
        assert "error[config]" in capsys.readouterr().err


class CellCommandChecks:
    """What `augment` and `train` share: the dataset and group are
    checked against the config, and only that dataset is read.

    Each subclass runs these tests with its own ``command``."""

    command: str
    # fields of the printed line when the command reads synth3 as EDA
    printed: dict

    def _main(self, config_path, dataset, group, out, pct="0.1") -> int:
        extra = ["--size", "80"] if self.command == "train" else []
        return main([
            self.command, "--config", str(config_path), "--dataset", dataset,
            "--group", group, "--pct", pct, *extra, "--out", str(out),
        ])

    def test_unknown_dataset_exit_2(self, tmp_path, capsys, demo_config):
        path, _ = demo_config
        assert self._main(path, "nope", "EDA", tmp_path) == 2
        assert "dataset 'nope' not in config" in capsys.readouterr().err

    def test_reads_only_its_own_dataset(self, tmp_path, capsys, demo_config):
        _, cfg = demo_config
        absent = {"name": "absent", "path": str(tmp_path / "absent.csv")}
        cfg_path = tmp_path / "two.json"
        cfg_path.write_text(json.dumps(
            {**cfg, "datasets": cfg["datasets"] + [absent]}))
        assert self._main(cfg_path, "synth3", "EDA", tmp_path / "o") == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed.items() >= self.printed.items()

    def test_group_outside_config_exit_2(self, tmp_path, capsys):
        # the config was checked only for its own groups: BT without a
        # translation provider must not run
        cfg = synthdata.make_demo(str(tmp_path / "fx"), rows=60, seed=2)
        cfg_path = tmp_path / "eda_only.json"
        cfg_path.write_text(json.dumps({**cfg, "groups": ["EDA"], "providers": {}}))
        assert self._main(cfg_path, "synth3", "BT", tmp_path / "o",
                          pct="1.0") == 2
        captured = capsys.readouterr()
        assert "error[config]" in captured.err
        assert "group 'BT' not in config" in captured.err
        assert captured.out == ""

    def test_pct_outside_unit_interval_exit_2(self, tmp_path, capsys,
                                              demo_config):
        # checked before any input is read: reading the missing dataset
        # file would be exit 3
        _, cfg = demo_config
        cfg_path = tmp_path / "missing.json"
        cfg_path.write_text(json.dumps({**cfg, "datasets": [
            {"name": "synth3", "path": str(tmp_path / "missing.csv")}]}))
        assert self._main(cfg_path, "synth3", "EDA", tmp_path / "o") == 3
        capsys.readouterr()
        for pct in ("-0.1", "1.5", "nan"):
            assert self._main(cfg_path, "synth3", "EDA", tmp_path / "o",
                              pct=pct) == 2
            captured = capsys.readouterr()
            assert captured.err == (
                f"error[config]: --pct {float(pct)} outside [0, 1]\n")
            assert captured.out == ""


    def test_extra_generated_row_exit_1(self, tmp_path, capsys, demo_config,
                                        monkeypatch):
        # both commands augment through the grid's purity check
        path, _ = demo_config
        make = runner.make_augmenter

        def two_per_target(config, resources, cell):
            augment = make(config, resources, cell)

            def twice(examples):
                rows, skipped = augment(examples)
                return rows * 2, skipped

            return twice

        monkeypatch.setattr(runner, "make_augmenter", two_per_target)
        assert self._main(path, "synth3", "EDA", tmp_path / "o") == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error[invariant]: augmentation purity violated for ")
        assert captured.out == ""
        assert list((tmp_path / "o").glob("*.csv")) == []


class TestAugmentCommand(CellCommandChecks):
    command = "augment"
    printed = {"input_rows": 600}

    @MAGNITUDES
    def test_embedding_magnitude_without_exact_distances_exit_4(
            self, tmp_path, capsys, demo_config, entries, top):
        # the embedding Syn stage gets the grid's verdict on the same
        # file, before the store computes a norm or a similarity
        cfg_path, err = out_of_bounds_embeddings(
            tmp_path, demo_config[1], entries, top)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert self._main(cfg_path, "synth3", "Syn", tmp_path / "out") == 4
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert capsys.readouterr().err == err
        assert not (tmp_path / "out").exists()

    def test_count_law(self, tmp_path, capsys, demo_config):
        path, cfg = demo_config
        out_dir = str(tmp_path / "aug")
        code = main([
            "augment", "--config", path, "--dataset", "synth3",
            "--group", "Syn", "--pct", "0.2", "--out", out_dir,
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["input_rows"] == 600
        assert payload["targets"] == 120
        assert payload["output_rows"] == 720
        with open(payload["path"], encoding="utf-8") as fh:
            assert sum(1 for _ in fh) == 721  # header + rows

    def test_bt_cache_cold_then_warm(self, tmp_path, capsys, demo_config):
        _, cfg = demo_config
        cache = tmp_path / "translations.jsonl"
        cfg_path = tmp_path / "cached.json"
        cfg_path.write_text(json.dumps({**cfg, "cache_path": str(cache)}))
        outputs, cache_bytes = [], []
        for run in ("cold", "warm"):
            code = main([
                "augment", "--config", str(cfg_path), "--dataset", "synth3",
                "--group", "BT", "--pct", "0.2", "--out", str(tmp_path / run),
            ])
            assert code == 0
            payload = json.loads(capsys.readouterr().out)
            outputs.append(Path(payload["path"]).read_bytes())
            cache_bytes.append(cache.read_bytes())
        assert cache_bytes[0]
        assert outputs[0] == outputs[1]
        assert cache_bytes[1] == cache_bytes[0]

    @pytest.mark.parametrize("where", ["directory", "in_missing_directory"])
    def test_unusable_cache_path_exit_3(self, tmp_path, capsys, demo_config,
                                        where):
        # a directory fails the load; a path whose directory is missing
        # loads as an empty cache and fails at the first write
        _, cfg = demo_config
        cache = tmp_path if where == "directory" else tmp_path / "no" / "t.jsonl"
        cfg_path = tmp_path / "cached.json"
        cfg_path.write_text(json.dumps({**cfg, "cache_path": str(cache)}))
        assert main([
            "augment", "--config", str(cfg_path), "--dataset", "synth3",
            "--group", "BT", "--pct", "0.2", "--out", str(tmp_path / "o"),
        ]) == 3
        err = capsys.readouterr().err
        assert err == f"error[data]: cannot open cache file: {cache}\n"

    @pytest.mark.parametrize("under, reason", [
        (False, "File exists"), (True, "Not a directory"),
    ], ids=["file", "under-file"])
    def test_out_that_cannot_be_a_directory_exit_3(self, tmp_path, capsys,
                                                   demo_config, monkeypatch,
                                                   under, reason):
        # the directory is made after the inputs load and before any work
        _, cfg = demo_config
        cache = tmp_path / "translations.jsonl"
        cfg_path = tmp_path / "cached.json"
        cfg_path.write_text(json.dumps({**cfg, "cache_path": str(cache)}))
        monkeypatch.setattr(runner, "augment_training_set", lambda *a, **kw:
                            pytest.fail("augmented before making --out"))
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / "sub" if under else tmp_path / "taken"
        for group in ("EDA", "BT"):
            assert self._main(cfg_path, "synth3", group, out) == 3
            captured = capsys.readouterr()
            assert captured.err == (
                f"error[data]: cannot make output directory: {out}: {reason}\n")
            assert captured.out == ""
        assert not cache.exists()

    def test_oversized_csv_field_exit_3(self, tmp_path, capsys, demo_config):
        _, cfg = demo_config
        data = tmp_path / "big.csv"
        data.write_text("text,label\nbom,a\n" + "x" * 200_000 + ",b\n",
                        encoding="utf-8")
        cfg_path = tmp_path / "big.json"
        cfg_path.write_text(json.dumps(
            {**cfg, "datasets": [{"name": "synth3", "path": str(data)}]}))
        assert main([
            "augment", "--config", str(cfg_path), "--dataset", "synth3",
            "--group", "EDA", "--pct", "0.1", "--out", str(tmp_path / "o"),
        ]) == 3
        err = capsys.readouterr().err
        assert "error[data]" in err and f"{data}: malformed CSV at line 3" in err

    def test_byte_order_mark_is_not_written(self, tmp_path, capsys,
                                            demo_config):
        _, cfg = demo_config
        text = "text,label\nbom dia,a\nmuito ruim,b\notimo produto,a\n"
        data = tmp_path / "bom.csv"
        data.write_text("\ufeff" + text, encoding="utf-8")
        cfg_path = tmp_path / "bom.json"
        cfg_path.write_text(json.dumps(
            {**cfg, "datasets": [{"name": "synth3", "path": str(data)}]}))
        assert main([
            "augment", "--config", str(cfg_path), "--dataset", "synth3",
            "--group", "EDA", "--pct", "0", "--out", str(tmp_path / "o"),
        ]) == 0
        path = json.loads(capsys.readouterr().out)["path"]
        assert Path(path).read_bytes() == text.encode("utf-8")

    @pytest.mark.parametrize("loader, code, label", [
        ("dataset", 3, "data"),
        ("embeddings", 4, "resource"),
        ("ppdb", 4, "resource"),
        ("dictionary", 4, "resource"),
    ])
    def test_non_utf8_input(self, tmp_path, capsys, demo_config,
                            loader, code, label):
        _, cfg = demo_config
        cfg = json.loads(json.dumps(cfg))

        def corrupt(path):
            bad = tmp_path / ("bad_" + os.path.basename(path))
            bad.write_bytes(Path(path).read_bytes() + b"\xff\xfe\n")
            return str(bad)

        if loader == "dataset":
            cfg["datasets"][0]["path"] = corrupt(cfg["datasets"][0]["path"])
        elif loader == "dictionary":
            dic = cfg["providers"]["translation"][len("dict:"):]
            cfg["providers"]["translation"] = "dict:" + corrupt(dic)
        else:
            cfg["resources"][loader] = corrupt(cfg["resources"][loader])
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        group = {"dataset": "EDA", "ppdb": "EDA", "embeddings": "Syn",
                 "dictionary": "BT"}[loader]  # a group that reads the file
        assert main([
            "augment", "--config", str(cfg_path), "--dataset", "synth3",
            "--group", group, "--pct", "0.1", "--out", str(tmp_path / "o"),
        ]) == code
        err = capsys.readouterr().err
        assert f"error[{label}]" in err and "not UTF-8" in err

    @staticmethod
    def _augment(tmp_path, cfg, group, out):
        """Exit code of one augment command and its output bytes, or None."""
        cfg_path = tmp_path / f"{out}.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main([
            "augment", "--config", str(cfg_path), "--dataset", "synth3",
            "--group", group, "--pct", "0.1", "--out", str(tmp_path / out),
        ])
        path = tmp_path / out / f"synth3_{group}_augmented.csv"
        return code, path.read_bytes() if code == 0 else None

    @staticmethod
    def _originals_and_generated(cfg, output: bytes):
        originals = [tuple(ex) for ex in load_dataset(cfg["datasets"][0]["path"])]
        rows = [tuple(row) for row in
                csv.reader(io.StringIO(output.decode("utf-8")))][1:]
        assert rows[:len(originals)] == originals
        return originals, rows[len(originals):]

    def test_contextual_stage_draws_from_its_table(self, tmp_path, capsys,
                                                   demo_config):
        _, cfg = demo_config
        table = tmp_path / "contextual.tsv"
        table.write_text("".join(f"{w}\t{w}_a,{w}_b\n"
                                 for w in synthdata.VOCABULARY),
                         encoding="utf-8")
        replaced = {f"{w}_{s}": w for w in synthdata.VOCABULARY for s in "ab"}
        code, output = self._augment(tmp_path, {**cfg, "providers": {
            **cfg["providers"], "contextual": f"stub:{table}",
            "syn_stages": ["contextual"]}}, "Syn", "ctx")
        assert code == 0
        originals, generated = self._originals_and_generated(cfg, output)
        sources = {(" ".join(tokenize(text)), label)
                   for text, label in originals}
        assert len(generated) == 60
        for text, label in generated:
            tokens = text.split(" ")
            # each changed word is a candidate the table lists for it
            assert any(t in replaced for t in tokens)
            assert (" ".join(replaced.get(t, t) for t in tokens),
                    label) in sources

    def test_identity_translation_returns_its_sources(self, tmp_path, capsys,
                                                      demo_config):
        _, cfg = demo_config
        code, output = self._augment(tmp_path, {**cfg, "providers": {
            **cfg["providers"], "translation": "identity"}}, "BT", "identity")
        assert code == 0
        originals, generated = self._originals_and_generated(cfg, output)
        assert len(generated) == 60
        # the targets in ascending order: a sub-sequence of the originals
        remaining = iter(originals)
        assert all(row in remaining for row in generated)

    @pytest.mark.parametrize("missing, reads", [
        ("embeddings", "Syn"),
        ("dictionary", "BT"),
    ])
    def test_group_reads_only_its_inputs(self, tmp_path, capsys, demo_config,
                                         missing, reads):
        _, cfg = demo_config
        absent = str(tmp_path / "absent")
        if missing == "embeddings":
            broken = {**cfg, "resources": {**cfg["resources"], "embeddings": absent}}
        else:
            broken = {**cfg, "providers": {**cfg["providers"],
                                           "translation": "dict:" + absent}}
        for group in ("EDA", "Syn", "BT"):
            code, got = self._augment(tmp_path, broken, group, f"{group}_broken")
            if group == reads:
                assert code == 4
                assert "error[resource]" in capsys.readouterr().err
            else:
                assert code == 0
                assert got == self._augment(tmp_path, cfg, group, group)[1]

    @pytest.mark.parametrize("command", ["augment", "train"])
    def test_unreachable_translator_exit_5(self, tmp_path, capsys, demo_config,
                                           command):
        _, cfg = demo_config
        cfg = {**cfg, "providers": {**cfg["providers"], "translation": {
            "http": {"url": "http://127.0.0.1:9/t", "max_retries": 0,
                     "backoff_base": 0.0, "timeout": 0.2}}}}
        cfg_path = tmp_path / "down.json"
        cfg_path.write_text(json.dumps(cfg))
        args = ["--dataset", "synth3", "--group", "BT", "--pct", "0.2"]
        if command == "train":
            args += ["--size", "80"]
        code = main([command, "--config", str(cfg_path), *args,
                     "--out", str(tmp_path / "o")])
        assert code == 5
        assert "error[transport]" in capsys.readouterr().err

    def test_failed_target_counted_not_written_to_stderr(self, tmp_path,
                                                         demo_config):
        # pytest installs logging handlers of its own, so only a fresh
        # process shows what the command writes to stderr
        _, cfg = demo_config
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("text,label\nbom produto,a\n!!! ???,b\n",
                          encoding="utf-8")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(
            {**cfg, "datasets": [{"name": "tiny", "path": str(corpus)}]}))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]]
                     if os.environ.get("PYTHONPATH") else [])))
        done = subprocess.run(
            [sys.executable, "-m", "augbench.cli", "augment",
             "--config", str(cfg_path), "--dataset", "tiny", "--group", "EDA",
             "--pct", "1.0", "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["failed_targets"] == 1
        assert done.stderr == ""

    def test_zero_neighbors_exit_2_for_eda(self, tmp_path, capsys, demo_config):
        _, cfg = demo_config
        cfg = {**cfg, "providers": {**cfg["providers"], "embedding_neighbors_k": 0}}
        assert self._augment(tmp_path, cfg, "EDA", "o")[0] == 2
        err = capsys.readouterr().err
        assert "error[config]" in err and "embedding_neighbors_k" in err


class TestTrainCommand(CellCommandChecks):
    command = "train"
    printed = {"dataset": "synth3", "group": "EDA", "status": "ok"}

    def test_single_cell(self, tmp_path, capsys, demo_config):
        path, _ = demo_config
        code = main([
            "train", "--config", path, "--dataset", "synth3",
            "--group", "BT", "--size", "80", "--pct", "0.2", "--round", "0",
            "--out", str(tmp_path / "cell"),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ok"
        assert payload["baseline_f1"] is not None
        assert payload["gain"] == pytest.approx(
            payload["f1"] - payload["baseline_f1"]
        )


    def test_negative_round_exit_2(self, tmp_path, capsys, demo_config):
        # checked before any input is read, as --pct is
        _, cfg = demo_config
        cfg_path = tmp_path / "missing.json"
        cfg_path.write_text(json.dumps({**cfg, "datasets": [
            {"name": "synth3", "path": str(tmp_path / "missing.csv")}]}))
        args = ["train", "--config", str(cfg_path), "--dataset", "synth3",
                "--group", "EDA", "--size", "80", "--pct", "0.2",
                "--out", str(tmp_path / "o")]
        assert main([*args, "--round", "0"]) == 3
        capsys.readouterr()
        assert main([*args, "--round", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error[config]: --round -1 is negative\n"
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("group, code", [("BT", 0), ("EDA", 4)])
    def test_reads_only_its_groups_inputs(self, tmp_path, capsys, demo_config,
                                          group, code):
        _, cfg = demo_config
        cfg_path = tmp_path / "no_ppdb.json"
        cfg_path.write_text(json.dumps({**cfg, "resources": {
            **cfg["resources"], "ppdb": str(tmp_path / "absent.txt")}}))
        out = tmp_path / "o"
        assert self._main(cfg_path, "synth3", group, out) == code
        if code:
            assert "cannot open paraphrase file" in capsys.readouterr().err
            return
        assert json.loads(capsys.readouterr().out)["status"] == "ok"
        with open(out / "run_log.jsonl", encoding="utf-8") as fh:
            first = json.loads(fh.readline())
        assert first["event"] == "resources" and first["ppdb"] is None

    def test_syn_without_ppdb_stage_needs_no_ppdb(self, tmp_path, capsys,
                                                  demo_config):
        _, cfg = demo_config
        resources = {k: v for k, v in cfg["resources"].items() if k != "ppdb"}
        cfg_path = tmp_path / "syn_only.json"
        cfg_path.write_text(json.dumps({
            **cfg, "groups": ["Syn"], "resources": resources,
            "providers": {**cfg["providers"], "syn_stages": ["embedding"]}}))
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg_path), "--dataset", "synth3",
                     "--group", "Syn", "--size", "300", "--pct", "0.2",
                     "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "ok"
        with open(out / "run_log.jsonl", encoding="utf-8") as fh:
            first = json.loads(fh.readline())
        assert first["event"] == "resources" and first["ppdb"] is None


class TestReportCommand:
    def test_report_from_grid_csv(self, tmp_path, capsys, demo_config):
        path, _ = demo_config
        out_dir = str(tmp_path / "g")
        assert main(["run-grid", "--config", path, "--out", out_dir]) == 0
        capsys.readouterr()
        rep_dir = str(tmp_path / "rep")
        code = main([
            "report", "--results", os.path.join(out_dir, "results.csv"),
            "--out", rep_dir,
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gain_records"] > 0
        assert os.path.exists(os.path.join(rep_dir, "summary.txt"))

    def test_missing_results_nonzero(self, tmp_path):
        assert main(["report", "--results", str(tmp_path / "no.csv")]) != 0

    def test_wrong_header_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("dataset,group\nsynth3,EDA\n")
        assert main(["report", "--results", str(path)]) == 3
        assert "error[data]" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, fields", [
        (lambda line: line + ",EXTRA,MORE", 15),
        (lambda line: line.rsplit(",", 2)[0], 11),
    ], ids=["extra-fields", "short-row"])
    def test_row_of_another_field_count_exit_3(self, tmp_path, capsys,
                                               edit, fields):
        path = tmp_path / "results.csv"
        write_results_csv(str(path), [
            ExperimentResult("synth3", "EDA", 80, 0.0, 0, f1=0.7),
            ExperimentResult("synth3", "EDA", 80, 0.2, 0, f1=0.7,
                             baseline_f1=0.7, gain=0.0, b=1, c=1, chi2=0.0,
                             p_value=1.0),
        ])
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = edit(lines[2])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["report", "--results", str(path), "--out",
                     str(tmp_path / "r")])
        assert code == 3
        err = capsys.readouterr().err
        assert "error[data]" in err
        assert f"line 3: {fields} fields, the header has 13" in err


    def test_oversized_csv_field_exit_3(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + "x" * 200_000 + "\n",
                        encoding="utf-8")
        code = main(["report", "--results", str(path), "--out",
                     str(tmp_path / "r")])
        assert code == 3
        err = capsys.readouterr().err
        assert "error[data]" in err and "field larger than field limit" in err

    @pytest.mark.parametrize("name", ["a/b", "a\\b"], ids=["slash", "backslash"])
    def test_dataset_name_with_a_path_separator_exit_3(self, tmp_path, capsys,
                                                       name):
        # the report's file names are made from it
        path = str(tmp_path / "results.csv")
        write_results_csv(path, [
            ExperimentResult("synth3", "EDA", 80, 0.0, 0, f1=0.7),
            ExperimentResult(name, "EDA", 80, 0.0, 0, f1=0.7),
        ])
        code = main(["report", "--results", path, "--out", str(tmp_path / "r")])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == (
            f"error[data]: {path}: line 3: dataset {name!r} holds a path "
            "separator; output file names are made from it\n")
        assert not (tmp_path / "r").exists()

    def test_dataset_named_all_exit_3(self, tmp_path, capsys):
        # its rows would be merged into the mean-gain rows over every dataset
        path = str(tmp_path / "results.csv")
        write_results_csv(path, [
            ExperimentResult("x", "EDA", 80, 0.0, 0, f1=0.7),
            ExperimentResult("ALL", "EDA", 80, 0.0, 0, f1=0.7),
        ])
        code = main(["report", "--results", path, "--out", str(tmp_path / "r")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error[data]: {path}: line 3: dataset 'ALL' names the report's "
            "rows over all datasets\n")
        assert not (tmp_path / "r").exists()

    def test_dataset_name_with_a_nul_exit_3(self, tmp_path, capsys):
        # the report's file names are made from it
        path = str(tmp_path / "results.csv")
        write_results_csv(path, [
            ExperimentResult("synth3", "EDA", 80, 0.0, 0, f1=0.7),
            ExperimentResult("a\0b", "EDA", 80, 0.0, 0, f1=0.7),
        ])
        code = main(["report", "--results", path, "--out", str(tmp_path / "r")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error[data]: {path}: line 3: dataset 'a\\x00b' holds a NUL "
            "character; output file names are made from it\n")
        assert not (tmp_path / "r").exists()

    def test_positive_gain_without_test_exit_3(self, tmp_path, capsys):
        path = str(tmp_path / "merged.csv")
        write_results_csv(path, [
            ExperimentResult("synth3", "EDA", 80, 0.0, 0, f1=0.7),
            ExperimentResult("synth3", "EDA", 80, 0.2, 0, f1=0.9,
                             baseline_f1=0.7, gain=0.2),
        ])
        code = main(["report", "--results", path, "--out", str(tmp_path / "r")])
        assert code == 3
        assert "error[data]" in capsys.readouterr().err


    @pytest.mark.parametrize("under, reason", [
        (False, "File exists"), (True, "Not a directory"),
    ], ids=["file", "under-file"])
    def test_out_that_cannot_be_a_directory_exit_3(self, tmp_path, capsys,
                                                   under, reason):
        path = str(tmp_path / "results.csv")
        write_results_csv(path, [
            ExperimentResult("synth3", "EDA", 80, 0.0, 0, f1=0.7)])
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / "sub" if under else tmp_path / "taken"
        assert main(["report", "--results", path, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            f"error[data]: cannot make output directory: {out}: {reason}\n")
        assert captured.out == ""

    def test_repeated_key_exit_3(self, tmp_path, capsys):
        path = str(tmp_path / "twice.csv")
        baseline = ExperimentResult("synth3", "EDA", 80, 0.0, 0, f1=0.7)
        write_results_csv(path, [baseline, baseline])
        code = main(["report", "--results", path, "--out", str(tmp_path / "r")])
        assert code == 3
        err = capsys.readouterr().err
        assert "error[data]" in err and "repeated cell key" in err

    def test_train_csv_reports_its_own_gain(self, tmp_path, capsys,
                                            demo_config):
        path, _ = demo_config
        cell = str(tmp_path / "cell")
        assert main([
            "train", "--config", path, "--dataset", "synth3", "--group", "EDA",
            "--size", "80", "--pct", "0.2", "--out", cell,
        ]) == 0
        trained = json.loads(capsys.readouterr().out)
        rep_dir = tmp_path / "rep"
        assert main(["report", "--results", os.path.join(cell, "results.csv"),
                     "--out", str(rep_dir)]) == 0
        assert json.loads(capsys.readouterr().out)["gain_records"] == 1
        text = (rep_dir / "summary.txt").read_text()
        assert "gain records: 1\n" in text
        assert "unpaired augmented cells (no ok baseline): 0\n" in text
        mean_line = (rep_dir / "mean_gain_by_group.csv").read_text().splitlines()[1]
        assert mean_line == f"ALL,EDA,{trained['gain']!r},1"


# Each input file: the loader that reads it, the name its errors give it
# and the error it raises, whose exit code the CLI maps.
INPUTS = {
    "config": (runner.load_config, "config", ConfigError),
    "dataset": (load_dataset, "dataset file", DataError),
    "cache": (TranslationCache, "cache file", DataError),
    "predictions": (load_predictions, "predictions file", DataError),
    "results": (read_results_csv, "results file", DataError),
    "paraphrase": (parse_ppdb, "paraphrase file", ResourceError),
    "embedding": (load_embeddings, "embedding file", ResourceError),
    "dictionary": (DictTranslationProvider.from_file, "dictionary file",
                   ResourceError),
    "contextual": (load_contextual_table, "contextual table", ResourceError),
}
EXIT_CODES = {ConfigError: 2, DataError: 3, ResourceError: 4}


class TestInputFiles:
    @staticmethod
    def _exit_code(error) -> int:
        return next(code for etype, code, _ in cli._EXIT_CODES
                    if isinstance(error, etype))

    # a missing cache file is an empty cache (the cold run of
    # test_bt_cache_cold_then_warm)
    @pytest.mark.parametrize("name", sorted(set(INPUTS) - {"cache"}))
    def test_missing_file(self, tmp_path, name):
        load, what, error = INPUTS[name]
        path = str(tmp_path / "missing")
        with pytest.raises(error) as info:
            load(path)
        assert str(info.value) == f"cannot open {what}: {path}"
        assert self._exit_code(info.value) == EXIT_CODES[error]

    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_non_utf8_file(self, tmp_path, name):
        load, what, error = INPUTS[name]
        path = tmp_path / "latin1"
        path.write_bytes("ótimo\n".encode("latin-1"))
        with pytest.raises(error) as info:
            load(str(path))
        assert str(info.value).startswith(f"{what} is not UTF-8: {path}: ")
        assert self._exit_code(info.value) == EXIT_CODES[error]


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_subcommand(self):
        assert main([]) == 2

    def test_bare_value_error_propagates(self, tmp_path, monkeypatch):
        def broken(args):
            raise ValueError("a bug, not bad input")

        monkeypatch.setattr(cli, "_cmd_report", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["report", "--results", str(tmp_path / "r.csv")])

    def test_seed_override_changes_results(self, tmp_path, demo_config, capsys):
        path, cfg = demo_config
        small = dict(cfg)
        small["datasets"] = cfg["datasets"][:1]
        small["groups"] = ["EDA"]
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(small))
        out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
        main(["run-grid", "--config", str(cfg_path), "--out", out1])
        main(["run-grid", "--config", str(cfg_path), "--out", out2,
              "--seed", "424242"])
        csv1 = Path(out1, "results.csv").read_text()
        csv2 = Path(out2, "results.csv").read_text()
        assert csv1 != csv2
