import dataclasses
import json
import math
import random

import pytest

from elicitbench.corpus import (CIFamily, GroundTruth, Question, TargetKind, TruthColumns, Z_95,
                               binomial_truth)
from elicitbench.extraction import Outcome, ParsedRecord, Triplet, Units
from elicitbench.jsonlio import canonical_dumps, load_row
from elicitbench.metrics import (
    GroupSummary,
    ScoredRecord,
    ape,
    baseline_win_rate,
    floored_width,
    group_by,
    interval_covers,
    median_of,
    nll_binomial,
    nll_gaussian,
    rate,
    relative_sharpness,
    score_record,
    sigma_from_interval,
    summarize_group,
)

from elicitbench.report import summary_section

from helpers import as_columns, make_scored, make_triplet, make_truth_binomial, make_truth_gaussian
from oracles import (
    coverage_oracle,
    cv_oracle,
    mdape_oracle,
    nll_binomial_oracle,
    nll_gaussian_oracle,
    winrate_oracle,
)


class TestGroupBy:
    def test_keys_in_first_appearance_order_and_items_in_input_order(self):
        groups = group_by(iter(["b1", "a1", "b2", "c1", "a2", "b3"]), lambda s: s[0])
        assert list(groups) == ["b", "a", "c"]
        assert groups == {"b": ["b1", "b2", "b3"], "a": ["a1", "a2"], "c": ["c1"]}

    def test_no_items_no_groups(self):
        assert group_by([], lambda s: s) == {}


class TestCoverage:
    def test_all_covered(self):
        items = [(0, 10, 5)] * 4
        assert rate(interval_covers(*t) for t in items) == 1.0

    def test_boundary_counts(self):
        assert rate(interval_covers(*t) for t in [(0.0, 7.0, 7.0)]) == 1.0
        assert rate(interval_covers(*t) for t in [(7.0, 9.0, 7.0)]) == 1.0

    def test_half(self):
        assert rate(interval_covers(*t) for t in [(0, 10, 5), (60, 70, 50)]) == 0.5

    def test_empty_undefined(self):
        assert rate([]) is None

    def test_matches_brute_force_on_random_sets(self):
        rng = random.Random(4)
        for _ in range(300):
            items = []
            for _ in range(rng.randint(1, 30)):
                a, b = sorted((rng.uniform(-5, 5), rng.uniform(-5, 5)))
                items.append((a, b, rng.uniform(-5, 5)))
            assert rate(interval_covers(*t) for t in items) == coverage_oracle(items)


class TestSharpness:
    def test_basic(self):
        assert relative_sharpness(make_triplet(50, 40, 60)) == pytest.approx(0.4)

    def test_zero_width(self):
        assert relative_sharpness(make_triplet(10, 10, 10)) == 0.0

    def test_zero_value_undefined(self):
        assert relative_sharpness(make_triplet(0.0, -1, 1)) is None


class TestGaussianNLL:
    def test_zero_at_unit_density(self):
        width = 2 * Z_95 / math.sqrt(2 * math.pi)
        t = make_triplet(3.0, 3.0 - width / 2, 3.0 + width / 2)
        assert nll_gaussian(t, 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_centered_reduces_to_log_term(self):
        for width in (0.5, 2.0, 11.0):
            t = make_triplet(7.0, 7.0 - width / 2, 7.0 + width / 2)
            sigma = width / (2 * Z_95)
            assert nll_gaussian(t, 7.0) == pytest.approx(
                0.5 * math.log(2 * math.pi * sigma**2), abs=1e-12
            )

    def test_frozen_example(self):
        # independent log-density evaluation: sigma = 2 / z, y = 14
        t = make_triplet(10, 8, 12)
        assert nll_gaussian(t, 14.0) == pytest.approx(8.622077257313933, abs=1e-9)

    def test_matches_oracle(self):
        rng = random.Random(8)
        for _ in range(100):
            v = rng.uniform(-50, 50)
            w = rng.uniform(0, 20)
            t = make_triplet(v, v - w / 2, v + w / 2)
            y = rng.uniform(-60, 60)
            assert nll_gaussian(t, y) == pytest.approx(
                nll_gaussian_oracle(v, v - w / 2, v + w / 2, y), abs=1e-9
            )

    def test_minimized_at_truth(self):
        t0 = 5.0
        best = nll_gaussian(make_triplet(t0, t0 - 2, t0 + 2), t0)
        for mu in (-3.0, 0.0, 4.0, 5.5, 9.0):
            t = make_triplet(mu, mu - 2, mu + 2)
            assert nll_gaussian(t, t0) >= best - 1e-12

    def test_decreasing_in_sigma_below_residual(self):
        y, mu = 10.0, 2.0  # |y - mu| = 8
        nlls = []
        for sigma in (0.5, 1.0, 2.0, 4.0, 7.0):
            width = 2 * Z_95 * sigma
            nlls.append(nll_gaussian(make_triplet(mu, mu - width / 2, mu + width / 2), y))
        assert all(a > b for a, b in zip(nlls, nlls[1:]))

    def test_zero_width_floor_is_finite(self):
        t = make_triplet(10, 10, 10)
        assert math.isfinite(nll_gaussian(t, 11.0))


class TestBinomialNLL:
    def test_frozen_example(self):
        truth = make_truth_binomial(5, 10)
        t = make_triplet(50, 40, 60, kind=TargetKind.PROPORTION)
        assert nll_binomial(t, truth) == pytest.approx(1.4020427180880297, abs=1e-9)

    def test_clamp_keeps_extreme_answers_finite(self):
        truth = make_truth_binomial(7, 10)
        t = make_triplet(0.0, 0.0, 1.0, kind=TargetKind.PROPORTION)
        nll = nll_binomial(t, truth)
        assert math.isfinite(nll) and nll > 50

    def test_near_certain_event(self):
        truth = make_truth_binomial(1, 1)
        t = make_triplet(100.0, 99.0, 100.0, kind=TargetKind.PROPORTION)
        assert nll_binomial(t, truth) == pytest.approx(1e-6, abs=1e-8)

    def test_mle_minimality(self):
        truth = make_truth_binomial(12, 40)
        best = nll_binomial(make_triplet(30.0, 20, 40, kind=TargetKind.PROPORTION), truth)
        for guess in range(1, 100):
            t = make_triplet(float(guess), guess - 5, guess + 5, kind=TargetKind.PROPORTION)
            assert nll_binomial(t, truth) >= best - 1e-12

    def test_matches_oracle(self):
        rng = random.Random(9)
        for _ in range(100):
            n = rng.randint(1, 2000)
            k = rng.randint(0, n)
            truth = make_truth_binomial(k, n)
            v = rng.uniform(0, 100)
            t = make_triplet(v, max(0, v - 5), min(100, v + 5), kind=TargetKind.PROPORTION)
            assert nll_binomial(t, truth) == pytest.approx(
                nll_binomial_oracle(v, n, k), abs=1e-9
            )


class TestMdape:
    def test_odd(self):
        pairs = [(110, 100), (120, 100), (130, 100)]
        assert median_of(ape(p, t) for p, t in pairs) == 20.0

    def test_perfect(self):
        assert median_of([0.0, 0.0, 0.0]) == 0.0

    def test_even_midpoint(self):
        assert median_of([10.0, 20.0]) == 15.0

    def test_zero_truth_excluded(self):
        assert ape(5.0, 0.0) is None
        assert median_of([None, 10.0]) == 10.0
        assert median_of([None]) is None


class TestBaselineWinRate:
    def test_win(self):
        assert baseline_win_rate([(45.0, 40.0)]) == 1.0

    def test_tie_is_not_a_win(self):
        assert baseline_win_rate([(30.0, 40.0)]) == 0.0

    def test_constant_fifty_never_wins(self):
        assert baseline_win_rate([(50.0, t) for t in (10.0, 40.0, 90.0)]) == 0.0

    def test_matches_oracle(self):
        rng = random.Random(10)
        for _ in range(200):
            pairs = [(rng.uniform(0, 100), rng.uniform(0.1, 100)) for _ in range(rng.randint(1, 40))]
            assert baseline_win_rate(pairs) == winrate_oracle(pairs)


class TestTruthColumns:
    @pytest.mark.parametrize("kind, truth", [
        (TargetKind.PROPORTION, binomial_truth(2**69 + 3, 2**70)),  # a count beyond 64 bits
        (TargetKind.CONTINUOUS, make_truth_gaussian(103.25, half=4.5)),
    ], ids=["binomial_2_70", "gaussian"])
    def test_a_truth_scores_as_its_hydrated_record(self, kind, truth):
        hydrated = load_row(GroundTruth, json.loads(canonical_dumps(truth)))
        columns = TruthColumns()
        columns.append(make_truth_binomial(7, 20))  # so that the row is not the first
        row = columns.append(hydrated)
        assert row == 1
        assert columns[row] == hydrated
        parsed = ParsedRecord("q", "m", "low", False, "d", kind, Outcome.VALID,
                              triplet=make_triplet(51.0, 40.0, 62.0, kind=kind))
        assert (canonical_dumps(score_record(parsed, columns[row]))
                == canonical_dumps(score_record(parsed, hydrated)))


class TestScoredRecordsAndSummary:
    def test_score_record_families(self):
        prop = make_scored(40, 30, 50, truth_value=40.0, kind=TargetKind.PROPORTION)
        assert prop.nll_family is CIFamily.BINOMIAL
        cont = make_scored(40, 30, 50, truth_value=40.0, kind=TargetKind.CONTINUOUS)
        assert cont.nll_family is CIFamily.GAUSSIAN
        assert cont.covered and prop.covered

    @pytest.mark.parametrize(
        "record, load",
        [
            (make_triplet(40.0, 30.0, 50.0, kind=TargetKind.PROPORTION, bounds_reordered=True),
             lambda row: load_row(Triplet, row)),
            (Question("q1", "d", {"age": "30-39"}, "What share?", TargetKind.PROPORTION,
                      make_truth_binomial(450, 1000)), Question.from_dict),
            (Question("q2", "d", {}, "How many?", TargetKind.CONTINUOUS,
                      make_truth_gaussian(12.5)), Question.from_dict),
            (make_scored(40.0, 30.0, 50.0, truth_value=45.0, kind=TargetKind.PROPORTION),
             ScoredRecord.from_dict),
            (make_scored(0.0, -1.0, 1.0, truth_value=0.0), ScoredRecord.from_dict),
        ],
        ids=["triplet", "question_binomial", "question_gaussian_k_none", "scored",
             "scored_cv_ape_none"],
    )
    def test_round_trip_serialization(self, record, load):
        row = json.loads(canonical_dumps(record))
        assert load(row) == record
        assert canonical_dumps(load(row)) == canonical_dumps(record)

    def test_absent_field_takes_its_default(self):
        truth = make_truth_gaussian(3.0)
        row = json.loads(canonical_dumps(truth))
        del row["k"]
        assert load_row(GroundTruth, row) == truth

    @pytest.mark.parametrize(
        "n_valid, n_invalid, expected",
        [(100, 0, 0.0), (75, 25, 0.25)],
        ids=["zero", "quarter"],
    )
    def test_invalid_rate(self, n_valid, n_invalid, expected):
        summary = GroupSummary("m", "low", "d", n_valid, n_invalid, None, None, None, None)
        assert summary.invalid_rate == expected

    def test_fraction_scale_answers_counted_in_summary(self):
        records = [
            make_scored(0.4, 0.3, 0.5, truth_value=40.0, kind=TargetKind.PROPORTION, qid="q1"),
            make_scored(40.0, 30.0, 50.0, truth_value=40.0, kind=TargetKind.PROPORTION, qid="q2"),
            make_scored(0.4, 0.3, 0.5, truth_value=40.0, qid="q3"),  # continuous: never suspect
        ]
        table = summary_section(as_columns(records))
        (row,) = table.rows
        assert dict(zip(table.columns, row))["n_suspect_scale"] == 1

    def test_summary_matches_oracles(self):
        rng = random.Random(11)
        records = []
        for i in range(60):
            truth = rng.uniform(10, 90)
            v = rng.uniform(0, 100)
            records.append(
                make_scored(v, v - rng.uniform(0, 10), v + rng.uniform(0, 10),
                            truth_value=truth, kind=TargetKind.PROPORTION, qid=f"q{i}")
            )
        (columns,) = as_columns(records)
        s = summarize_group("m", "low", "d", [dataclasses.replace(columns, n_invalid=20)])
        assert s.n_valid == 60 and s.n_invalid == 20
        assert s.invalid_rate == 0.25
        assert s.coverage == coverage_oracle(
            [(r.triplet.lower, r.triplet.upper, r.truth.value) for r in records]
        )
        assert s.mdape == mdape_oracle(
            [(r.triplet.value, r.truth.value) for r in records]
        )

    def test_permutation_invariance(self):
        rng = random.Random(12)
        records = [
            make_scored(v, v - 3, v + 3, truth_value=rng.uniform(10, 90),
                        kind=TargetKind.PROPORTION, qid=f"q{i}")
            for i, v in enumerate(rng.uniform(1, 99) for _ in range(25))
        ]
        shuffled = records[:]
        rng.shuffle(shuffled)
        a = summarize_group("m", "low", "d", as_columns(records))
        b = summarize_group("m", "low", "d", as_columns(shuffled))
        assert a == b


class TestSigmaFloors:
    def test_floored_width_positive(self):
        t = make_triplet(10, 10, 10)
        assert floored_width(t.lower, t.upper, t.value) == pytest.approx(1e-5, rel=1e-12)  # 1e-6 * |10|

    def test_sigma_floor_absolute(self):
        t = make_triplet(0.0, 0.0, 0.0)
        assert sigma_from_interval(t) == 1e-9
