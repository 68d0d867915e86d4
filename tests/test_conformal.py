import math
import random

import pytest

from elicitbench.conformal import (
    ConformalConfig,
    apply,
    calibrate_groups,
    conformal_quantile,
    evaluate,
    fit,
    nonconformity,
    split,
)
from elicitbench.corpus import TargetKind
from elicitbench.errors import ConfigError
from elicitbench.synthetic import SyntheticSuiteConfig

from helpers import as_columns, make_scored, scored_suite
from oracles import quantile_oracle


class TestSplit:
    def test_sizes(self):
        cal, test = split(list(range(10)), 0.3, seed=0)
        assert len(cal) == 3 and len(test) == 7

    def test_deterministic(self):
        assert split(list(range(40)), 0.3, seed=5) == split(list(range(40)), 0.3, seed=5)

    def test_partition(self):
        items = list(range(25))
        cal, test = split(items, 0.3, seed=2)
        assert sorted(cal + test) == items
        assert not set(cal) & set(test)

    def test_single_record_gives_empty_cal(self):
        cal, test = split([42], 0.3, seed=0)
        assert cal == [] and test == [42]
        result = fit([], 0.05, 15)
        assert result.flag == "insufficient_data"
        assert math.isinf(result.q_hat)
        assert result.flag_detail == "empty_calibration_set"


def one_row(value, lower, upper, truth, kind=TargetKind.CONTINUOUS):
    """The columns of one scored row."""
    (columns,) = as_columns([make_scored(value, lower, upper, truth_value=truth, kind=kind)])
    return columns


class TestNonconformity:
    def test_zero_at_truth(self):
        assert nonconformity(one_row(10, 8, 12, 10.0), 0) == 0.0

    def test_unit_example(self):
        assert nonconformity(one_row(10, 8, 12, 14.0), 0) == 1.0

    def test_zero_width_floor(self):
        s = nonconformity(one_row(10, 10, 10, 11.0), 0)
        assert math.isfinite(s) and s > 1e4


class TestFit:
    def test_n19_takes_max(self):
        scores = [float(i) for i in range(1, 20)]
        random.Random(0).shuffle(scores)
        result = fit(scores, 0.05, 15)
        assert result.q_hat == 19.0
        assert conformal_quantile(scores, 0.05)[1] == 19
        assert result.flag == "ok"

    def test_n10_is_infinite(self):
        result = fit([1.0] * 10, 0.05, 15)
        assert math.isinf(result.q_hat)
        assert result.flag == "insufficient_data"
        assert result.flag_detail == "quantile_index_exceeds_n_cal"

    def test_alpha_half_order_statistic(self):
        result = fit([1.0, 2.0, 3.0, 4.0], 0.5, 1)
        assert result.q_hat == 3.0

    def test_min_cal_band_is_insufficient_via_infinite_quantile(self):
        # 15 <= n <= 18 at alpha=0.05 can never yield a finite quantile
        for n in (15, 16, 17, 18):
            result = fit([1.0] * n, 0.05, 15)
            assert result.flag == "insufficient_data"
            assert math.isinf(result.q_hat)

    def test_thin_but_finite_flag_detail(self):
        result = fit([float(i) for i in range(1, 20)], 0.05, min_cal=25)
        assert result.flag == "insufficient_data"
        assert result.flag_detail == "n_cal_below_minimum"

    def test_matches_oracle_on_random_sets(self):
        rng = random.Random(3)
        for _ in range(200):
            scores = [rng.expovariate(1.0) for _ in range(rng.randint(1, 80))]
            for alpha in (0.5, 0.2, 0.1, 0.05):
                got, m_got = conformal_quantile(scores, alpha)
                want, m_want = quantile_oracle(scores, alpha)
                assert m_got == m_want
                assert got == want or (math.isinf(got) and math.isinf(want))

    def test_monotone_in_confidence(self):
        rng = random.Random(7)
        scores = [rng.random() for _ in range(50)]
        qs = [conformal_quantile(scores, a)[0] for a in (0.5, 0.2, 0.1, 0.05, 0.01)]
        assert all(a <= b for a, b in zip(qs, qs[1:]))

    def test_order_invariance(self):
        scores = [3.0, 1.0, 2.0, 5.0, 4.0] * 8
        shuffled = scores[:]
        random.Random(9).shuffle(shuffled)
        assert fit(scores, 0.05, 15).q_hat == fit(shuffled, 0.05, 15).q_hat

    def test_rejects_bad_scores(self):
        with pytest.raises(ConfigError):
            fit([1.0, -0.5], 0.05, 15)
        with pytest.raises(ConfigError):
            fit([math.inf], 0.05, 15)


class TestApply:
    def record(self, value=10.0, lower=8.0, upper=12.0, truth=10.0, kind=TargetKind.CONTINUOUS):
        return one_row(value, lower, upper, truth, kind=kind)

    def test_q_half_recovers_original(self):
        f = fit([0.5] * 60, 0.05, 15)
        cal = apply(f, self.record(), 0)
        assert cal.new_lower == pytest.approx(8.0)
        assert cal.new_upper == pytest.approx(12.0)
        assert cal.calibrated

    def test_q_two_expands(self):
        f = fit([2.0] * 60, 0.05, 15)
        cal = apply(f, self.record(), 0)
        assert (cal.new_lower, cal.new_upper) == (pytest.approx(2.0), pytest.approx(18.0))

    def test_proportion_clipped(self):
        f = fit([3.0] * 60, 0.05, 15)
        cal = apply(f, self.record(value=5.0, lower=3.0, upper=7.0, truth=5.0,
                                   kind=TargetKind.PROPORTION), 0)
        assert cal.new_lower == 0.0
        assert cal.new_upper == pytest.approx(17.0)

    def test_insufficient_passes_through(self):
        f = fit([1.0] * 5, 0.05, 15)
        rec = self.record(truth=11.0)
        cal = apply(f, rec, 0)
        assert not cal.calibrated
        assert (cal.new_lower, cal.new_upper) == (rec.lower[0], rec.upper[0])
        assert cal.covered_after == (rec.lower[0] <= 11.0 <= rec.upper[0])

    def test_symmetry_before_clipping(self):
        f = fit([1.7] * 60, 0.05, 15)
        rec = self.record(value=4.0, lower=1.0, upper=5.0, truth=3.0)
        cal = apply(f, rec, 0)
        assert cal.new_upper - 4.0 == pytest.approx(4.0 - cal.new_lower)


class TestEvaluate:
    def test_infinite_q_hat_flags_and_undefines_after(self):
        f = fit([1.0] * 10, 0.05, 15)
        ev = evaluate(f, one_row(10, 8, 12, 10.0), [0])
        assert ev.coverage_after is None
        assert ev.flag == "insufficient_data"
        assert ev.coverage_before == 1.0

    def test_full_coverage_after(self):
        f = fit([2.0] * 60, 0.05, 15)
        (columns,) = as_columns([make_scored(10, 9, 11, truth_value=t) for t in (8.0, 11.0, 12.0)])
        ev = evaluate(f, columns, range(3))
        assert ev.coverage_after == 1.0
        assert ev.coverage_before == pytest.approx(1 / 3)


class TestWidthShrinkageInversion:
    def test_q_hat_tracks_half_the_shrink_factor(self):
        # widths reported k-times too narrow need q_hat -> 0.5 * k to recover
        for k in (2, 4, 8):
            cfg = SyntheticSuiteConfig(n_questions=2000, seed=13, width_shrink=float(k),
                                       noise_sd=0.0)
            (columns,) = as_columns(scored_suite(cfg))
            f = fit([nonconformity(columns, i) for i in range(len(columns))], 0.05, 15)
            assert abs(f.q_hat / (0.5 * k) - 1.0) <= 0.15, (k, f.q_hat)


class TestMarginalCoverage:
    def test_mean_coverage_in_band_fast(self):
        # 50-seed spot check of the exchangeability guarantee (full version in
        # the acceptance suite)
        covs = []
        for seed in range(50):
            cfg = SyntheticSuiteConfig(n_questions=200, seed=seed, width_shrink=4.0,
                                       noise_sd=5.0)
            (columns,) = as_columns(scored_suite(cfg))
            cal, test = split(range(len(columns)), 0.30, seed=seed)
            f = fit([nonconformity(columns, i) for i in cal], 0.05, 15)
            ev = evaluate(f, columns, test)
            assert ev.n_cal == 60 and ev.n_test == 140
            covs.append(ev.coverage_after)
        mean = sum(covs) / len(covs)
        assert 0.93 <= mean <= 0.98


class TestCalibrateGroups:
    def test_groups_processed_independently_and_sorted(self):
        rng = random.Random(1)
        records = []
        for model in ("b-model", "a-model"):
            for i in range(40):
                v = rng.uniform(0, 100)
                records.append(
                    make_scored(v, v - 2, v + 2, truth_value=rng.uniform(0, 100),
                                model=model, qid=f"{model}-{i}")
                )
        results = calibrate_groups(as_columns(records), ConformalConfig(seed=0))
        assert [r.evaluation.model for r in results] == ["a-model", "b-model"]
        only_a = calibrate_groups(
            as_columns([r for r in records if r.model_id == "a-model"]), ConformalConfig(seed=0)
        )
        assert only_a[0].evaluation.q_hat == results[0].evaluation.q_hat
        assert only_a[0].evaluation == results[0].evaluation

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ConformalConfig(alpha=1.5)
        with pytest.raises(ConfigError):
            ConformalConfig(cal_fraction=0.0)
