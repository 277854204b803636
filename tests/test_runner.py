import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from augbench import cli, kernels, report, runner, synthdata
from augbench.corpus import Dataset, SplitPair
from augbench.errors import ConfigError, DataError, InvariantError
from augbench.metrics import load_predictions
from augbench.results import (
    ExperimentResult, read_results_csv, write_results_csv,
)


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
        assert cfg.share_subsets_across_groups

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

    @pytest.mark.parametrize("providers", [
        {"embedding_neighbors_k": "five"},
        {"syn_rate": None},
    ])
    def test_bad_provider_scalars_rejected(self, demo, providers):
        with pytest.raises(ConfigError):
            runner.config_from_dict(
                {**demo, "providers": {**demo["providers"], **providers}}
            )

    def test_zero_neighbors_rejected(self, demo):
        cfg = runner.config_from_dict(
            {**demo, "providers": {**demo["providers"],
                                   "embedding_neighbors_k": 0}}
        )
        with pytest.raises(ConfigError, match="embedding_neighbors_k"):
            runner.load_resources(cfg)

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
        seeds1 = [runner.derive_seed(cfg.master_seed, *c.key()) for c in cells1]
        seeds2 = [runner.derive_seed(cfg.master_seed, *c.key()) for c in cells2]
        assert seeds1 == seeds2

    def test_seed_distinct_per_cell(self, demo):
        cfg = runner.config_from_dict(demo)
        cells = runner.plan_grid(cfg)
        seeds = {runner.derive_seed(cfg.master_seed, *c.key()) for c in cells}
        assert len(seeds) == len(cells)


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
            assert cell.key() == row.key()

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
        assert all(l["purity_ok"] for l in cell_lines)
        assert len(cell_lines) == len(rows)

    def test_results_csv_round_trip(self, run):
        _, out, rows = run
        path = os.path.join(out, "results.csv")
        parsed = read_results_csv(path)
        assert parsed == rows
        second = path + ".again"
        write_results_csv(second, parsed)
        assert Path(path).read_bytes() == Path(second).read_bytes()

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

    def test_cache_file_cold_then_warm(self, demo, tmp_path):
        # run_grid and run_single_cell close the cache's append handle
        # (a leaked handle fails the suite as a ResourceWarning)
        cache = tmp_path / "translations.jsonl"
        config = runner.config_from_dict(
            {**demo, "subset_sizes": [80], "groups": ["BT"],
             "cache_path": str(cache)}
        )
        runner.run_grid(config, str(tmp_path / "cold"))
        cold = cache.read_bytes()
        runner.run_grid(config, str(tmp_path / "warm"))
        assert cold
        assert cache.read_bytes() == cold
        assert (Path(tmp_path, "cold", "results.csv").read_bytes()
                == Path(tmp_path, "warm", "results.csv").read_bytes())
        cache.unlink()
        runner.run_single_cell(config, str(tmp_path / "single"),
                               "synth3", "BT", 80, 0.2, 0)
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
    def test_unreachable_translator_marks_aug_failed(self, demo, tmp_path):
        cfg = runner.config_from_dict({
            **demo,
            "groups": ["BT"],
            "subset_sizes": [80],
            "providers": {
                "translation": {
                    "http": {"url": "http://127.0.0.1:9/t", "max_retries": 0,
                             "backoff_base": 0.0, "timeout": 0.2}
                }
            },
        })
        rows = runner.run_grid(cfg, str(tmp_path / "out"))
        assert all(r.status == "aug_failed" for r in rows if r.aug_pct > 0)
        assert all(r.status == "ok" for r in rows if r.aug_pct == 0)
        assert len(rows) == len(runner.plan_grid(cfg))

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

    def counted(X, y, cfg):
        sizes.append(len(y))
        return train(X, y, cfg)

    monkeypatch.setattr(runner, "svm_train", counted)
    return sizes


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

    def test_baseline_rows_and_files_match_run_single_cell(self, run, tmp_path):
        config, out, rows = run
        for row in rows:
            if row.aug_pct != 0.0:
                continue
            single_out = tmp_path / f"{row.dataset}-{row.group}-{row.subset_size}"
            single = runner.run_single_cell(
                config, str(single_out), row.dataset, row.group,
                row.subset_size, 0.0, row.round,
            )
            assert single == row
            name = (f"{row.dataset}_{row.group}_{row.subset_size}_"
                    f"0.0_{row.round}.jsonl")
            grid_file = os.path.join(out, "predictions", name)
            single_file = single_out / "predictions" / name
            assert single_file.read_bytes() == Path(grid_file).read_bytes()

    def test_unshared_subsets_give_each_group_its_own_baseline(
            self, demo, tmp_path, monkeypatch):
        sizes = count_svm_train(monkeypatch)
        config = runner.config_from_dict({
            **demo, "datasets": demo["datasets"][:1], "subset_sizes": [80],
            "share_subsets_across_groups": False,
        })
        out = tmp_path / "grid"
        rows = runner.run_grid(config, str(out))
        # one baseline and one augmented model per group
        assert len(sizes) == 2 * len(config.groups)
        assert sorted(sizes)[:3] == [60, 60, 60]
        truths = set()
        for row in rows:
            if row.aug_pct != 0.0:
                continue
            single = runner.run_single_cell(
                config, str(tmp_path / row.group), row.dataset, row.group,
                row.subset_size, 0.0, row.round,
            )
            assert single == row
            name = f"{row.dataset}_{row.group}_80_0.0_0.jsonl"
            y_true, _ = load_predictions(str(out / "predictions" / name))
            truths.add(tuple(y_true))
        assert len(truths) == len(config.groups)


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


class TestRunSingleCell:
    def test_reproduces_grid_row(self, demo, tmp_path):
        config = runner.config_from_dict(
            {**demo, "subset_sizes": [80], "groups": ["Syn"]}
        )
        grid_rows = runner.run_grid(config, str(tmp_path / "grid"))
        wanted = next(r for r in grid_rows if r.aug_pct > 0)
        single = runner.run_single_cell(
            config, str(tmp_path / "single"), wanted.dataset, wanted.group,
            wanted.subset_size, wanted.aug_pct, wanted.round,
        )
        assert single == wanted

    def test_unknown_dataset(self, demo, tmp_path):
        config = runner.config_from_dict(demo)
        with pytest.raises(ConfigError):
            runner.run_single_cell(
                config, str(tmp_path / "x"), "nope", "EDA", 80, 0.0, 0
            )


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
        summary = report.summarize(fixture_rows(), str(tmp_path))
        # EDA gains per (group, size): mean of 0.01, 0.02, 0.03 twice
        for size in (500, 1000):
            mean, n = summary.mean_gain_by_group_size[("ds", "EDA", size)]
            assert n == 6
            assert mean == pytest.approx(0.02, abs=1e-12)
            mean, _ = summary.mean_gain_by_group_size[("ds", "Syn", size)]
            assert mean == pytest.approx(-0.02, abs=1e-12)
            mean, _ = summary.mean_gain_by_group_size[("ds", "BT", size)]
            assert mean == pytest.approx(0.0, abs=1e-12)

    def test_significance_flags(self, tmp_path):
        summary = report.summarize(fixture_rows(), str(tmp_path))
        # only EDA rows gain > 0; round 0 rows carry p = 0.0433 < 0.05
        assert len(summary.significant) == 6
        assert all(s.key[1] == "EDA" and s.key[4] == 0
                   for s in summary.significant)

    def test_null_tests_for_non_positive_gains(self, tmp_path):
        summary = report.summarize(fixture_rows(), str(tmp_path))
        for s in summary.screen:
            if s.gain <= 0:
                assert s.test is None

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
        summary = report.summarize(rows, str(tmp_path))
        assert summary.mean_gain_by_group[("d", "EDA")] == (0.0, 1)

    def test_unpaired_rows_reported(self, tmp_path):
        rows = [
            ExperimentResult("d", "EDA", 500, 0.05, 0, f1=0.9),
            ExperimentResult("d", "EDA", 1000, 0.0, 0, f1=0.8),
            ExperimentResult("d", "EDA", 1000, 0.05, 0, f1=0.85,
                             baseline_f1=0.8, gain=0.05, b=4, c=1,
                             chi2=0.8, p_value=0.3711),
        ]
        summary = report.summarize(rows, str(tmp_path))
        assert summary.unpaired == [("d", "EDA", 500, 0.05, 0)]

    def test_empty_input_rejected(self, tmp_path):
        with pytest.raises(DataError):
            report.summarize([], str(tmp_path))
