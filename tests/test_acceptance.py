"""Acceptance gate: every criterion at its stated tolerance, no network.

Each test prints one `[ACCEPTANCE] <name>: PASS/FAIL` line (visible with
pytest -s). Everything is deterministic: fixed seeds, no wall-clock
dependence beyond the one stated runtime bound.
"""
import math
import random
import string
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from elicitbench.conformal import (
    apply,
    conformal_quantile,
    evaluate,
    fit,
    nonconformity,
    split,
)
from elicitbench.corpus import TargetKind, Z_95, continuous_ci, proportion_ci
from elicitbench.extraction import ParseOutcome, extract_triplet
from elicitbench.metrics import (
    baseline_win_rate,
    interval_covers,
    median_of,
    nll_binomial,
    nll_gaussian,
    rate,
    relative_sharpness,
)
from elicitbench.stats import rank_biserial, spearman, wilcoxon_signed_rank
from elicitbench.synthetic import SyntheticSuiteConfig

from helpers import as_columns, make_scored, make_triplet, make_truth_binomial, scored_suite
from oracles import (
    coverage_oracle,
    cv_oracle,
    mdape_oracle,
    nll_binomial_oracle,
    nll_gaussian_oracle,
    quantile_oracle,
    rank_biserial_oracle,
    spearman_oracle,
    wilcoxon_oracle,
    winrate_oracle,
)

SIGMA_TRUE = 5.0


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {name}: PASS")


def overconfident_suite(seed, n, noise_sd, width_shrink=4.0):
    return SyntheticSuiteConfig(
        n_questions=n, seed=seed, sigma_true=SIGMA_TRUE,
        width_shrink=width_shrink, noise_sd=noise_sd,
    )


def test_cp_coverage_guarantee():
    """Mean calibrated coverage over 200 seeds lands in [0.94, 0.97], under 30 s."""
    with criterion("CP coverage guarantee (200 seeds, n_cal=60, n_test=140)"):
        started = time.monotonic()
        coverages = []
        for seed in range(200):
            records = scored_suite(overconfident_suite(seed, 200, noise_sd=SIGMA_TRUE))
            (columns,) = as_columns(records)
            cal, test = split(range(len(columns)), 0.30, seed=seed)
            f = fit([nonconformity(columns, i) for i in cal], 0.05, 15)
            ev = evaluate(f, columns, test)
            assert ev.n_cal == 60 and ev.n_test == 140
            assert ev.flag == "ok"
            coverages.append(ev.coverage_after)
        elapsed = time.monotonic() - started
        mean_cov = sum(coverages) / len(coverages)
        assert 0.94 <= mean_cov <= 0.97, mean_cov
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s"


def test_overconfidence_signature():
    """4x-shrunk intervals: raw coverage in [0.24, 0.32] for the noisy oracle
    (analytic value 2*Phi(z/(4*sqrt(2))) - 1 = 0.271); q_hat in [1.7, 2.3] at
    n_cal = 2000 for the pure width-miscalibration oracle (limit 0.5*4 = 2)."""
    with criterion("Overconfidence signature (width_shrink=4)"):
        records = scored_suite(overconfident_suite(17, 10000, noise_sd=SIGMA_TRUE))
        raw = rate(r.covered for r in records)
        assert 0.24 <= raw <= 0.32, raw

        (columns,) = as_columns(scored_suite(overconfident_suite(13, 2000, noise_sd=0.0)))
        f = fit([nonconformity(columns, i) for i in range(len(columns))], 0.05, 15)
        assert f.n_cal == 2000
        assert 1.7 <= f.q_hat <= 2.3, f.q_hat


def test_honest_oracle_fixed_point():
    """Exact 95% reporter: q_hat -> 0.5 and calibrated widths within 20%."""
    with criterion("Honest-oracle fixed point (q_hat ~ 0.5)"):
        config = SyntheticSuiteConfig(
            n_questions=2200, seed=11, sigma_true=SIGMA_TRUE, width_shrink=1.0, noise_sd=0.0
        )
        records = scored_suite(config)
        (columns,) = as_columns(records)
        cal, test = range(2000), range(2000, len(records))
        f = fit([nonconformity(columns, i) for i in cal], 0.05, 15)
        assert 0.42 <= f.q_hat <= 0.58, f.q_hat
        for i in test:
            record, calibrated = records[i], apply(f, columns, i)
            old_width = record.triplet.upper - record.triplet.lower
            new_width = calibrated.new_upper - calibrated.new_lower
            assert abs(new_width / old_width - 1.0) <= 0.20


def test_quantile_formula_exactness():
    """fit equals a brute-force sort-and-index oracle on 1000 random score sets."""
    with criterion("Quantile formula exactness (1000 random sets)"):
        rng = random.Random(42)
        for _ in range(1000):
            n = rng.randint(1, 120)
            scores = [rng.expovariate(0.7) for _ in range(n)]
            for alpha in (0.5, 0.2, 0.1, 0.05):
                got, m_got = conformal_quantile(scores, alpha)
                want, m_want = quantile_oracle(scores, alpha)
                assert m_got == m_want
                if math.isinf(want):
                    assert math.isinf(got)
                else:
                    assert got == want
        q, _ = conformal_quantile([1.0] * 10, 0.05)
        assert math.isinf(q)


def test_metric_oracles():
    """Coverage/CV/MdAPE/win rate match brute force exactly; NLLs to 1e-9."""
    with criterion("Metric oracles (1000 fixtures exact, NLL to 1e-9)"):
        rng = random.Random(99)
        for _ in range(1000):
            items = []
            pairs = []
            for _ in range(rng.randint(1, 25)):
                a, b = sorted((rng.uniform(0, 100), rng.uniform(0, 100)))
                truth = rng.uniform(0.5, 99.5)
                items.append((a, b, truth))
                pairs.append((rng.uniform(0, 100), truth))
            assert rate(interval_covers(*t) for t in items) == coverage_oracle(items)
            assert median_of(
                100.0 * abs(p - t) / abs(t) for p, t in pairs
            ) == mdape_oracle(pairs)
            assert baseline_win_rate(pairs) == winrate_oracle(pairs)
            v, lo, hi = pairs[0][0], items[0][0], items[0][1]
            t = make_triplet(v, lo, hi)
            cv = relative_sharpness(t)
            assert cv == cv_oracle(v, lo, hi)

        for _ in range(100):
            v = rng.uniform(-40, 140)
            width = rng.uniform(0.0, 30.0)
            y = rng.uniform(-50, 150)
            t = make_triplet(v, v - width / 2, v + width / 2)
            assert nll_gaussian(t, y) == pytest.approx(
                nll_gaussian_oracle(v, v - width / 2, v + width / 2, y), abs=1e-9
            )
            n = rng.randint(1, 2000)
            k = rng.randint(0, n)
            pv = rng.uniform(0, 100)
            tp = make_triplet(pv, max(0.0, pv - 5), min(100.0, pv + 5),
                              kind=TargetKind.PROPORTION)
            assert nll_binomial(tp, make_truth_binomial(k, n)) == pytest.approx(
                nll_binomial_oracle(pv, n, k), abs=1e-9
            )


def test_parser_corpus_and_fuzz():
    """Annotated corpus parses 100%; 100k random strings never raise."""
    with criterion("Parser corpus (100% of annotated fixtures; 1e5 fuzz)"):
        import json

        fixtures = Path(__file__).parent / "data" / "parser_fixtures.jsonl"
        with fixtures.open(encoding="utf-8") as lines:
            cases = [json.loads(line) for line in lines]
        assert len(cases) >= 60
        for case in cases:
            out = extract_triplet(case["raw_text"], case["kind"])
            expect = case["expected_outcome"]
            if expect["outcome"] == "valid":
                assert out.valid, case["raw_text"]
                assert (out.triplet.value, out.triplet.lower, out.triplet.upper) == (
                    expect["value"], expect["lower"], expect["upper"]
                ), case["raw_text"]
                assert out.triplet.bounds_reordered == expect["bounds_reordered"]
                assert out.triplet.value_outside_interval == expect["value_outside_interval"]
            else:
                assert not out.valid and out.reason.value == expect["reason"], case["raw_text"]

        rng = random.Random(31337)
        alphabet = string.printable + "−–—%€$🙂éß中値"
        for _ in range(100000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 50)))
            out = extract_triplet(text, "proportion")
            assert isinstance(out, ParseOutcome)
            assert out.valid or out.reason is not None


def test_stats_oracles():
    """Rank tests match the independent oracle on >= 20 fixtures."""
    with criterion("Stats oracles (>=20 fixtures, 1e-6 stats, 1e-4 p)"):
        rng = random.Random(7)
        checked = 0
        for trial in range(24):
            n = rng.randint(4, 35)
            if trial % 3 == 0:
                data = [float(rng.randint(-3, 3)) for _ in range(n)]  # heavy ties
            else:
                data = [rng.gauss(0, 2) for _ in range(n)]
            # The draws of a retired three-group fixture, so the fixtures below keep their inputs.
            for _ in data:
                rng.gauss(0.5, 1)
            for _ in range(rng.randint(4, 20)):
                rng.gauss(1, 2)

            diffs = [rng.gauss(0.4, 1.2) for _ in range(n)]
            if trial % 4 == 0:
                diffs = [round(d) for d in diffs]
            if any(d != 0 for d in diffs):
                w, p = wilcoxon_oracle(diffs)
                result = wilcoxon_signed_rank(diffs)
                assert abs(result.statistic - w) <= 1e-6
                assert abs(result.p_value - p) <= 1e-4
                assert abs(rank_biserial(diffs) - rank_biserial_oracle(diffs)) <= 1e-6

            x = [rng.gauss(0, 1) for _ in range(max(n, 4))]
            y = [xi + rng.gauss(0, 1.5) for xi in x]
            rho, p = spearman_oracle(x, y)
            result = spearman(x, y)
            assert abs(result.statistic - rho) <= 1e-6
            assert abs(result.p_value - p) <= 1e-4
            checked += 1
        assert checked >= 20

        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]).statistic == 1.0
        assert spearman([1, 2, 3, 4], [9, 7, 5, 3]).statistic == -1.0


def test_pipeline_determinism(tmp_path):
    """generate -> simulate -> extract -> score -> calibrate -> report twice:
    byte-identical outputs."""
    with criterion("Determinism (byte-identical pipeline reruns)"):
        from test_cli import ALL_OUTPUTS, run_synthetic_chain

        a = run_synthetic_chain(tmp_path / "a", seed=5)
        b = run_synthetic_chain(tmp_path / "b", seed=5)
        report_files = sorted(p.name for p in (a / "report").iterdir())
        assert report_files  # at least the three unconditional sections
        for rel in ALL_OUTPUTS + [f"report/{name}" for name in report_files]:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_ground_truth_cis():
    """Wilson bounds in [0, 100] with exact edges; Gaussian half-width exact."""
    with criterion("Ground-truth CIs (Wilson edges, Gaussian half-width)"):
        rng = random.Random(3)
        for _ in range(500):
            n = rng.randint(1, 20000)
            k = rng.randint(0, n)
            lower, upper = proportion_ci(k, n)
            assert 0.0 <= lower <= upper <= 100.0
        assert proportion_ci(0, 250)[0] == 0.0
        assert proportion_ci(250, 250)[1] == 100.0
        lower, upper = proportion_ci(500, 1000)
        assert lower + upper == pytest.approx(100.0, abs=1e-9)

        import statistics

        for _ in range(200):
            values = [rng.gauss(50, 12) for _ in range(rng.randint(2, 400))]
            mean, lower, upper, n = continuous_ci(values)
            half = Z_95 * statistics.stdev(values) / math.sqrt(n)
            assert upper - mean == pytest.approx(half, abs=1e-9)
            assert mean - lower == pytest.approx(half, abs=1e-9)
