import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from augbench import report
from augbench.errors import DataError
from augbench.results import ExperimentResult
from augbench.stats import (
    ContingencyTable, TestResult, chi2_sf_1dof, contingency, mcnemar,
)
from oracles import contingency_branches, read_mean_gains


def row(dataset="d", group="EDA", size=500, pct=0.05, rnd=0, f1=0.8,
        status="ok", **kw):
    return ExperimentResult(
        dataset=dataset, group=group, subset_size=size, aug_pct=pct,
        round=rnd, status=status, f1=f1, **kw,
    )


class TestContingency:
    def test_identical_predictions(self):
        t = contingency(["a", "b"], ["a", "a"], ["a", "a"])
        assert (t.b, t.c) == (0, 0)

    def test_enumerated_four_cases(self):
        y = ["A", "A", "A", "A"]
        base = ["A", "A", "B", "B"]
        aug = ["A", "B", "A", "B"]
        t = contingency(y, base, aug)
        assert (t.a, t.b, t.c, t.d) == (1, 1, 1, 1)

    def test_total_invariant(self):
        import random

        rng = random.Random(4)
        for _ in range(50):
            n = rng.randint(1, 40)
            y = [rng.choice("ab") for _ in range(n)]
            p1 = [rng.choice("ab") for _ in range(n)]
            p2 = [rng.choice("ab") for _ in range(n)]
            t = contingency(y, p1, p2)
            assert t.a + t.b + t.c + t.d == n

    @given(
        rows=st.lists(st.tuples(*[st.sampled_from("abc")] * 3),
                      min_size=1, max_size=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_branches(self, rows):
        y, base, aug = (list(col) for col in zip(*rows))
        assert contingency(y, base, aug) == contingency_branches(y, base, aug)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            contingency(["a"], ["a", "b"], ["a"])

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ContingencyTable(a=-1, b=0, c=0, d=0)


class TestChi2Sf:
    def test_zero(self):
        assert chi2_sf_1dof(0.0) == 1.0

    def test_critical_value(self):
        assert chi2_sf_1dof(3.841459) == pytest.approx(0.05, abs=1e-6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            chi2_sf_1dof(-0.1)

    def test_monotone_decreasing(self):
        xs = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0]
        ps = [chi2_sf_1dof(x) for x in xs]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    @given(st.floats(min_value=0, max_value=60))
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy(self, x):
        # independent oracle: regularized incomplete gamma, not erfc
        assert chi2_sf_1dof(x) == pytest.approx(
            float(scipy_stats.chi2.sf(x, 1)), rel=1e-9, abs=1e-300
        )


class TestMcnemar:
    def test_no_discordant_pairs(self):
        result = mcnemar(ContingencyTable(a=5, b=0, c=0, d=5))
        assert result.chi2 == 0.0
        assert result.p_value == 1.0
        assert not result.significant

    def test_b10_c2(self):
        result = mcnemar(ContingencyTable(a=0, b=10, c=2, d=0))
        assert result.chi2 == pytest.approx(49 / 12, rel=1e-12)
        assert result.p_value == pytest.approx(0.0433081428, abs=1e-9)
        assert result.significant

    def test_continuity_floor(self):
        # |b - c| < 1 floors the corrected numerator at zero
        result = mcnemar(ContingencyTable(a=0, b=5, c=5, d=0))
        assert result.chi2 == 0.0
        assert result.p_value == 1.0

    def test_symmetric_in_b_c(self):
        for b, c in [(10, 2), (3, 9), (0, 4)]:
            r1 = mcnemar(ContingencyTable(a=1, b=b, c=c, d=1))
            r2 = mcnemar(ContingencyTable(a=1, b=c, c=b, d=1))
            assert r1.chi2 == r2.chi2
            assert r1.p_value == r2.p_value

    def test_exhaustive_oracle_equivalence(self):
        # every table with b + c <= 20 against the scipy oracle
        checked = 0
        for s in range(21):
            for b in range(s + 1):
                c = s - b
                result = mcnemar(ContingencyTable(a=0, b=b, c=c, d=0))
                if b + c == 0:
                    expected_chi2, expected_p = 0.0, 1.0
                else:
                    expected_chi2 = max(abs(b - c) - 1, 0) ** 2 / (b + c)
                    expected_p = float(scipy_stats.chi2.sf(expected_chi2, 1))
                assert result.chi2 == pytest.approx(expected_chi2, rel=1e-12)
                assert result.p_value == pytest.approx(
                    expected_p, rel=1e-9, abs=1e-300
                )
                checked += 1
        assert checked == 231

    def test_p_decreasing_in_imbalance(self):
        for total in (4, 10, 20):
            ps = [
                mcnemar(ContingencyTable(a=0, b=b, c=total - b, d=0)).p_value
                for b in range(total // 2, total + 1)
            ]
            assert all(a >= b for a, b in zip(ps, ps[1:]))


def paired(base_f1, f1, dataset="d", group="EDA", size=500, pct=0.05, rnd=0,
           **kw):
    """An augmented row as the runner writes it: gain = f1 - baseline_f1."""
    return row(dataset=dataset, group=group, size=size, pct=pct, rnd=rnd,
               f1=f1, baseline_f1=base_f1, gain=f1 - base_f1, **kw)


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def unpaired_count(out_dir) -> int:
    """The unpaired augmented cells that summary.txt counts."""
    line = (out_dir / "summary.txt").read_text(encoding="utf-8").splitlines()[2]
    prefix = "unpaired augmented cells (no ok baseline): "
    assert line.startswith(prefix)
    return int(line[len(prefix):])


class TestComputeGains:
    """Gain records, as report.summarize reads them from the rows."""

    def test_basic_pairing(self, tmp_path):
        rows = [
            row(pct=0.0, f1=0.83),
            paired(0.83, 0.85, pct=0.05, b=4, c=1, chi2=0.8, p_value=0.37),
            paired(0.83, 0.83, pct=0.1),
        ]
        gains, _ = report.summarize(rows, str(tmp_path))
        assert gains == rows[1:]
        assert gains[0].gain == pytest.approx(0.02)
        assert gains[1].gain == 0.0
        mean, n = read_mean_gains(tmp_path / "mean_gain_by_group.csv")[
            "d", "EDA"]
        assert n == 2
        assert mean == (rows[1].gain + rows[2].gain) / 2

    def test_paper_shaped_fixture(self, tmp_path):
        # Tweets-like baseline 0.83 at N=500 paired with its augmented run
        rows = [
            row(dataset="tweets", size=500, pct=0.0, f1=0.83),
            paired(0.83, 0.84, dataset="tweets", size=500, pct=0.05,
                   b=3, c=5, chi2=0.125, p_value=0.72),
        ]
        gains, _ = report.summarize(rows, str(tmp_path))
        assert gains[0].baseline_f1 == 0.83
        assert gains[0].gain == pytest.approx(0.01)
        table = read_csv(tmp_path / "baseline_table_tweets.csv")
        assert table == [["subset_size", "EDA_0.05"], ["500", "0.83"]]

    def test_missing_baseline_is_unpaired(self, tmp_path):
        # what the runner writes when the unit's baseline failed
        rows = [row(pct=0.0, f1=None, status="train_failed"),
                row(pct=0.05, f1=0.9)]
        assert report.summarize(rows, str(tmp_path)) == ([], [])
        assert unpaired_count(tmp_path) == 1

    def test_failed_cells_ignored(self, tmp_path):
        rows = [
            row(pct=0.0, f1=0.8),
            row(pct=0.05, f1=None, status="train_failed"),
        ]
        assert report.summarize(rows, str(tmp_path)) == ([], [])
        assert unpaired_count(tmp_path) == 0

    def test_bijection_over_pairable_cells(self, tmp_path):
        rows = [row(pct=0.0, f1=0.8)]
        rows += [paired(0.8, 0.8 + p, pct=p, chi2=1.0, p_value=0.3)
                 for p in (0.05, 0.1)]
        rows += [row(rnd=1, pct=0.0, f1=0.7),
                 paired(0.7, 0.75, rnd=1, pct=0.05, chi2=1.0, p_value=0.3)]
        gains, _ = report.summarize(rows, str(tmp_path))
        keys = {g.key() for g in gains}
        expected = {r.key() for r in rows if r.aug_pct > 0}
        assert keys == expected


class TestSignificanceScreen:
    """Only a positive gain is tested; pvalues.csv and the significant rows."""

    def screen(self, tmp_path, rows):
        _, significant = report.summarize(rows, str(tmp_path))
        return significant, read_csv(tmp_path / "pvalues.csv")[1:]

    def test_negative_gain_null_test(self, tmp_path):
        # a test on the row is not reported for a gain <= 0
        rows = [row(pct=0.0, f1=0.85),
                paired(0.85, 0.84, chi2=4.0, p_value=0.01)]
        significant, screen = self.screen(tmp_path, rows)
        assert screen[0][6:] == ["", "", ""]
        assert significant == []

    def test_zero_gain_null_test(self, tmp_path):
        rows = [row(pct=0.0, f1=0.85), paired(0.85, 0.85)]
        significant, screen = self.screen(tmp_path, rows)
        assert screen[0][5:] == ["0.0", "", "", ""]
        assert significant == []

    def test_positive_gain_attached(self, tmp_path):
        test = mcnemar(ContingencyTable(a=0, b=10, c=2, d=0))
        rows = [row(pct=0.0, f1=0.83),
                paired(0.83, 0.85, b=10, c=2, chi2=test.chi2,
                       p_value=test.p_value)]
        significant, screen = self.screen(tmp_path, rows)
        assert float(screen[0][7]) == pytest.approx(0.0433081428, abs=1e-9)
        assert screen[0][8] == "true"
        assert significant == [rows[1]]

    def test_positive_gain_missing_test_raises(self, tmp_path):
        rows = [row(pct=0.0, f1=0.83), paired(0.83, 0.85)]
        with pytest.raises(DataError, match="without chi2/p_value"):
            report.summarize(rows, str(tmp_path))


class TestTestResult:
    def test_significance_threshold_strict(self, tmp_path):
        assert TestResult(chi2=4.0, p_value=0.0499).significant
        assert not TestResult(chi2=4.0, p_value=0.05).significant
        rows = [row(pct=0.0, f1=0.8)] + [
            paired(0.8, 0.9, pct=pct, chi2=4.0, p_value=p)
            for pct, p in ((0.05, 0.0499), (0.1, 0.05))
        ]
        _, significant = report.summarize(rows, str(tmp_path))
        assert significant == [rows[1]]
        flags = [r[8] for r in read_csv(tmp_path / "pvalues.csv")[1:]]
        assert flags == ["true", "false"]
