import json
import os
from pathlib import Path

import pytest

from augbench import cli, synthdata
from augbench.cli import main
from augbench.metrics import save_predictions
from augbench.results import ExperimentResult, write_results_csv


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

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{}")
        assert main(["run-grid", "--config", str(cfg_path)]) == 2
        assert "error[config]" in capsys.readouterr().err

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_bytes(b'{"datasets": "\xff\xfe"}')
        assert main(["run-grid", "--config", str(cfg_path)]) == 2
        assert "error[config]" in capsys.readouterr().err


class TestAugmentCommand:
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

    def test_unknown_dataset_exit_2(self, tmp_path, capsys, demo_config):
        path, _ = demo_config
        code = main([
            "augment", "--config", path, "--dataset", "nope",
            "--group", "EDA", "--pct", "0.1", "--out", str(tmp_path),
        ])
        assert code == 2


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
        assert main([
            "augment", "--config", str(cfg_path), "--dataset", "synth3",
            "--group", "EDA", "--pct", "0.1", "--out", str(tmp_path / "o"),
        ]) == code
        err = capsys.readouterr().err
        assert f"error[{label}]" in err and "not UTF-8" in err


class TestTrainCommand:
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
