import math
import random

import numpy as np
import pytest
from scipy import stats as sps

from elicitbench.errors import InputError
from elicitbench.stats import (
    bonferroni,
    chi2_sf,
    midranks,
    normal_sf,
    rank_biserial,
    spearman,
    t_sf,
    wilcoxon_signed_rank,
)

from oracles import (
    naive_midranks,
    rank_biserial_oracle,
    spearman_oracle,
    wilcoxon_oracle,
)


class TestTailProbabilities:
    def test_chi2_matches_scipy_to_1e10(self):
        for x in (0.1, 1.0, 3.7, 7.2, 15.0, 40.0, 200.0, 600.0):
            for df in (1, 2, 5, 10, 101, 400):
                ref = float(sps.chi2.sf(x, df))
                assert abs(chi2_sf(x, df) - ref) <= 1e-10 * max(ref, 1e-300)

    def test_normal_matches_scipy_to_1e10(self):
        for z in (-4.0, -1.0, 0.0, 0.5, 1.96, 3.2, 6.0):
            ref = float(sps.norm.sf(z))
            assert abs(normal_sf(z) - ref) <= 1e-10 * max(ref, 1e-300)

    def test_t_matches_scipy_to_1e10(self):
        for t in (-2.0, 0.0, 0.7, 2.1, 4.5, 12.0, 20.0):
            for df in (1, 2, 5, 23, 101, 2001):
                ref = float(sps.t.sf(t, df))
                assert abs(t_sf(t, df) - ref) <= 1e-10 * max(ref, 1e-300)


class TestMidranks:
    def test_matches_naive(self):
        rng = random.Random(0)
        for _ in range(50):
            data = [float(rng.randint(0, 5)) for _ in range(rng.randint(1, 25))]
            assert list(midranks(data)) == naive_midranks(data)


class TestWilcoxon:
    def test_symmetric_differences(self):
        result = wilcoxon_signed_rank([1, -1, 2, -2])
        assert result.p_value == pytest.approx(1.0)

    def test_all_positive_n12_exact(self):
        result = wilcoxon_signed_rank(list(range(1, 13)))
        assert result.statistic == 0.0
        assert result.p_value == pytest.approx(2 / 4096, abs=1e-12)
        assert "exact" in result.method_note

    def test_all_zero(self):
        result = wilcoxon_signed_rank([0.0, 0.0, 0.0])
        assert result.p_value == 1.0
        assert result.n == 0

    def test_zeros_dropped(self):
        with_zeros = wilcoxon_signed_rank([0.0, 1.0, -2.0, 0.0, 3.0])
        without = wilcoxon_signed_rank([1.0, -2.0, 3.0])
        assert with_zeros.statistic == without.statistic
        assert with_zeros.p_value == without.p_value
        assert with_zeros.n == 3

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            wilcoxon_signed_rank([])

    def test_matches_oracle_exact_and_approx(self):
        rng = random.Random(25)
        # Every |d| tied, one sign; W+ = W-, so z > 0; those ties and one larger |d|.
        cases = [[1.0] * 13, [1.0, -1.0] * 7, [1.0, -1.0] * 7 + [2.0]]
        for trial in range(30):
            n = rng.choice([5, 8, 12, 13, 20, 40])
            diffs = [rng.gauss(0.3, 1) for _ in range(n)]
            if rng.random() < 0.4:  # force ties in |d|
                diffs = [round(d, 0) for d in diffs]
            if not all(d == 0 for d in diffs):
                cases.append(diffs)
        for diffs in cases:
            result = wilcoxon_signed_rank(diffs)
            w_o, p_o = wilcoxon_oracle(diffs)
            assert result.statistic == pytest.approx(w_o, abs=1e-6)
            assert result.p_value == pytest.approx(p_o, abs=1e-4)

    def test_method_note_switches_at_12(self):
        small = wilcoxon_signed_rank([1.0] * 12)
        large = wilcoxon_signed_rank([1.0] * 13)
        assert "exact" in small.method_note
        assert "normal approximation" in large.method_note

    def test_sign_preserving_transform_invariance(self):
        rng = random.Random(26)
        diffs = [rng.gauss(0, 2) for _ in range(15)]
        base = wilcoxon_signed_rank(diffs)
        cubed = wilcoxon_signed_rank([d**3 for d in diffs])
        assert base.statistic == pytest.approx(cubed.statistic, abs=1e-9)


class TestSpearman:
    def test_perfect_monotone(self):
        up = spearman([1, 2, 3, 4, 5], [10, 20, 30, 40, 50])
        down = spearman([1, 2, 3, 4, 5], [5, 4, 3, 2, 1])
        assert up.statistic == 1.0 and up.p_value == 0.0
        assert down.statistic == -1.0 and down.p_value == 0.0

    def test_hand_computed_fixture(self):
        result = spearman([1, 2, 3, 4], [2, 1, 4, 3])
        assert result.statistic == pytest.approx(0.6, abs=1e-12)
        assert result.p_value == pytest.approx(0.4, abs=1e-9)

    def test_constant_rejected(self):
        with pytest.raises(InputError):
            spearman([1, 1, 1], [1, 2, 3])

    def test_too_short_rejected(self):
        with pytest.raises(InputError):
            spearman([1, 2], [2, 1])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(InputError, match="equal length"):
            spearman([1, 2, 3, 4], [1, 2, 3])

    def test_matches_oracle_and_scipy(self):
        rng = random.Random(27)
        for _ in range(25):
            n = rng.randint(4, 50)
            x = [float(rng.randint(0, 8)) for _ in range(n)]
            y = [xi + rng.gauss(0, 3) for xi in x]
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            result = spearman(x, y)
            rho_o, p_o = spearman_oracle(x, y)
            assert result.statistic == pytest.approx(rho_o, abs=1e-6)
            assert result.p_value == pytest.approx(p_o, abs=1e-4)
            ref = sps.spearmanr(x, y)
            assert result.statistic == pytest.approx(float(ref.statistic), abs=1e-9)

    def test_monotone_transform_invariance(self):
        rng = random.Random(28)
        x = [rng.gauss(0, 1) for _ in range(20)]
        y = [rng.gauss(0, 1) for _ in range(20)]
        base = spearman(x, y)
        transformed = spearman([math.exp(v) for v in x], y)
        assert base.statistic == pytest.approx(transformed.statistic, abs=1e-12)


class TestBonferroni:
    def test_scales(self):
        assert bonferroni([0.01], 3) == [pytest.approx(0.03)]

    def test_caps_at_one(self):
        assert bonferroni([0.5], 3) == [1.0]

    def test_zero_stays_zero(self):
        assert bonferroni([0.0], 1000) == [0.0]

    def test_m_too_small_rejected(self):
        with pytest.raises(InputError):
            bonferroni([0.1, 0.2, 0.3], 2)


class TestRankBiserial:
    def test_all_positive(self):
        assert rank_biserial([1, 2, 3]) == 1.0

    def test_all_negative(self):
        assert rank_biserial([-1, -2, -3]) == -1.0

    def test_hand_computed(self):
        assert rank_biserial([1, -2]) == pytest.approx(-1 / 3)

    def test_all_zero_undefined(self):
        assert rank_biserial([0.0, 0.0]) is None

    def test_matches_oracle(self):
        rng = random.Random(29)
        for _ in range(25):
            diffs = [rng.gauss(0.2, 1) for _ in range(rng.randint(2, 30))]
            assert rank_biserial(diffs) == pytest.approx(
                rank_biserial_oracle(diffs), abs=1e-9
            )
