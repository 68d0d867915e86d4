import csv
import random
from pathlib import Path

import pytest

from elicitbench.corpus import (
    CIFamily,
    CorpusConfig,
    DatasetConfig,
    Question,
    QuestionTemplate,
    TargetKind,
    Z_95,
    continuous_ci,
    enumerate_candidates,
    filter_by_sample_size,
    generate_corpus,
    load_table,
    proportion_ci,
    question_id_for,
    sample_corpus,
)
from elicitbench.errors import ConfigError, InputError, SchemaError

from oracles import wilson_oracle

DATA = Path(__file__).parent / "data"


def template(**kwargs):
    defaults = dict(
        template_id="t",
        prompt="Share of {sex}? Provide three numbers: value, lower, upper.",
        axes={"sex": ["M", "F"]},
        kind=TargetKind.PROPORTION,
        target_column="flag",
        min_group_size=1,
    )
    defaults.update(kwargs)
    return QuestionTemplate(**defaults)


class TestProportionCI:
    def test_zero_successes_lower_is_exactly_zero(self):
        lower, upper = proportion_ci(0, 100)
        assert lower == 0.0
        assert upper > 0.0

    def test_symmetric_about_fifty_at_half(self):
        lower, upper = proportion_ci(50, 100)
        assert lower + upper == pytest.approx(100.0, abs=1e-9)

    def test_frozen_example(self):
        # precomputed with the Wilson formula in a one-off script
        lower, upper = proportion_ci(50, 100)
        assert lower == pytest.approx(40.383153036599566, abs=1e-9)
        assert upper == pytest.approx(59.61684696340044, abs=1e-9)

    def test_matches_oracle_on_grid(self):
        for n in (1, 7, 50, 333, 5000):
            for k in sorted({0, 1, n // 3, n // 2, n}):
                assert proportion_ci(k, n) == pytest.approx(wilson_oracle(k, n), abs=1e-9)

    def test_bounds_stay_in_percent_range(self):
        rng = random.Random(0)
        for _ in range(500):
            n = rng.randint(1, 10000)
            k = rng.randint(0, n)
            lower, upper = proportion_ci(k, n)
            assert 0.0 <= lower <= 100.0 * k / n <= upper <= 100.0

    def test_width_monotone_in_n_for_fixed_ratio(self):
        for num, den in ((1, 10), (3, 10), (5, 10), (9, 10)):
            widths = []
            for n in (10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000):
                k = n * num // den
                lower, upper = proportion_ci(k, n)
                widths.append(upper - lower)
            assert all(a >= b for a, b in zip(widths, widths[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(InputError):
            proportion_ci(1, 0)
        with pytest.raises(InputError):
            proportion_ci(5, 3)


class TestContinuousCI:
    def test_constant_values_collapse(self):
        assert continuous_ci([3.5] * 7) == (3.5, 3.5, 3.5, 7)

    def test_frozen_half_width(self):
        mean, lower, upper, n = continuous_ci([1.0, 2.0, 3.0])
        assert mean == 2.0 and n == 3
        # s = 1 exactly; half-width z/sqrt(3) verified independently
        assert upper - mean == pytest.approx(1.1315857340761715, abs=1e-9)
        assert mean - lower == pytest.approx(upper - mean, abs=1e-12)

    def test_half_width_formula(self):
        rng = random.Random(1)
        import statistics, math
        for _ in range(50):
            values = [rng.gauss(10, 3) for _ in range(rng.randint(2, 40))]
            mean, lower, upper, n = continuous_ci(values)
            expected = Z_95 * statistics.stdev(values) / math.sqrt(n)
            assert upper - mean == pytest.approx(expected, abs=1e-9)


def rows_for_axes(pairs, flag_of=lambda i: i % 2):
    rows = []
    i = 0
    for combo_rows in pairs:
        rows.extend(combo_rows)
    return rows


class TestEnumerate:
    def test_two_sexes_two_candidates(self):
        rows = [{"sex": "M", "flag": "1"}, {"sex": "F", "flag": "0"}] * 3
        cands = enumerate_candidates(template(), rows, "d")
        assert len(cands) == 2

    def test_product_size_three_by_five(self):
        rows = []
        for c in ("a", "b", "c"):
            for t in ("t1", "t2", "t3", "t4", "t5"):
                rows += [{"country": c, "trait": t, "flag": "1"},
                         {"country": c, "trait": t, "flag": "0"}]
        tpl = template(
            prompt="{country} {trait}? three numbers: value, lower, upper.",
            axes={"country": ["a", "b", "c"], "trait": ["t1", "t2", "t3", "t4", "t5"]},
        )
        assert len(enumerate_candidates(tpl, rows, "d")) == 15

    def test_binary_column_count(self, tmp_path):
        path = tmp_path / "binary.csv"
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["cohort", "flag"])
            for i in range(1000):
                w.writerow(["all", 1 if i < 400 else 0])
        rows = load_table(path)
        tpl = template(axes={"cohort": ["all"]},
                       prompt="{cohort}: value, lower, upper.")
        (cand,) = enumerate_candidates(tpl, rows, "d")
        assert cand.truth.value == 40.0
        assert cand.truth.k == 400
        assert cand.truth.n == 1000

    def test_missing_column_schema_error(self):
        with pytest.raises(SchemaError):
            enumerate_candidates(template(), [{"sex": "M"}], "d")

    def test_empty_subgroups_skipped(self):
        rows = [{"sex": "M", "flag": "1"}] * 4
        cands = enumerate_candidates(template(), rows, "d")
        assert [c.params["sex"] for c in cands] == ["M"]

    def test_padded_axis_cells_join_their_subgroup(self):
        rows = [{"sex": " M", "flag": "1"}, {"sex": "F", "flag": "0"},
                {"sex": "M\t", "flag": "0"}, {"sex": " F ", "flag": "1"},
                {"sex": "M", "flag": "1"}, {"sex": "  M  ", "flag": "1"}]
        m, f = enumerate_candidates(template(), rows, "d")
        assert (m.params, m.truth.n, m.truth.k) == ({"sex": "M"}, 4, 3)
        assert (f.params, f.truth.n, f.truth.k) == ({"sex": "F"}, 2, 1)

    def test_non_numeric_continuous_cell_rejected(self):
        tpl = template(kind=TargetKind.CONTINUOUS, target_column="bmi")
        rows = [{"sex": "M", "bmi": "22.0"}, {"sex": "M", "bmi": "oops"}]
        with pytest.raises(SchemaError):
            enumerate_candidates(tpl, rows, "d")

    def test_blank_target_cells_are_missing_data(self, tmp_path):
        # F keeps one number of its two cells, too few for a CI, so it gives no question.
        path = tmp_path / "bmi.csv"
        path.write_text("sex,bmi\nM,20\n\nM,\nM,30\nF,25\nF,\n")
        tpl = template(kind=TargetKind.CONTINUOUS, target_column="bmi")
        (m,) = enumerate_candidates(tpl, load_table(path), "d")
        assert (m.params, m.truth.n, m.truth.value) == ({"sex": "M"}, 2, 25.0)


class TestFilter:
    def make(self, n):
        from elicitbench.corpus import GroundTruth, Question

        truth = GroundTruth(value=10.0, lower=5.0, upper=15.0, n=n,
                            family=CIFamily.BINOMIAL, k=n // 10)
        return Question(question_id=f"q{n}", dataset_id="d", params={"sex": "M"},
                        prompt="M: value, lower, upper.", kind=TargetKind.PROPORTION, truth=truth)

    def test_inclusive_threshold(self):
        kept = filter_by_sample_size([self.make(500)], 500)
        assert len(kept) == 1

    def test_boundary_dropped(self):
        assert filter_by_sample_size([self.make(499)], 500) == []

    def test_empty_input(self):
        assert filter_by_sample_size([], 500) == []

    def test_order_preserved(self):
        cands = [self.make(n) for n in (600, 100, 700, 800, 200)]
        kept = filter_by_sample_size(cands, 500)
        assert [c.truth.n for c in kept] == [600, 700, 800]


class TestSample:
    def pool(self, count):
        rows = [{"g": str(i), "flag": str(i % 2)} for i in range(count) for _ in range(2)]
        tpl = template(axes={"g": [str(i) for i in range(count)]},
                       prompt="{g}: value, lower, upper.")
        return enumerate_candidates(tpl, rows, "d")

    def test_full_draw_is_permutation(self):
        cands = self.pool(20)
        questions, took_all = sample_corpus(cands, 20, seed=3)
        assert took_all
        assert {q.params["g"] for q in questions} == {c.params["g"] for c in cands}

    def test_same_seed_same_ids(self):
        cands = self.pool(50)
        a, _ = sample_corpus(cands, 10, seed=7)
        b, _ = sample_corpus(cands, 10, seed=7)
        assert [q.question_id for q in a] == [q.question_id for q in b]

    def test_different_seeds_differ(self):
        cands = self.pool(1000)
        a, _ = sample_corpus(cands, 100, seed=1)
        b, _ = sample_corpus(cands, 100, seed=2)
        assert {q.question_id for q in a} != {q.question_id for q in b}

    def test_oversample_takes_all_with_flag(self):
        cands = self.pool(5)
        questions, took_all = sample_corpus(cands, 50, seed=0)
        assert took_all and len(questions) == 5

    def test_question_ids_deterministic(self):
        assert question_id_for("t", {"a": "1", "b": "2"}) == question_id_for(
            "t", {"b": "2", "a": "1"}
        )
        assert question_id_for("t", {"a": "1"}) != question_id_for("t2", {"a": "1"})


class TestTemplateValidation:
    def test_unknown_placeholder(self):
        with pytest.raises(ConfigError):
            template(prompt="{nope}: value, lower, upper.")

    def test_duplicate_axis_values(self):
        with pytest.raises(ConfigError):
            template(axes={"sex": ["M", "M"]})

    def test_empty_axis(self):
        with pytest.raises(ConfigError):
            template(axes={"sex": []})


def demo_config():
    tables = DATA / "health_fixture.csv"
    templates = [
        QuestionTemplate(
            template_id="smoking-rate",
            prompt=(
                "What percentage of {sex} respondents aged {age_group} smoke? "
                "Provide the percentage and a 95% confidence interval as three "
                "numbers: value, lower, upper."
            ),
            axes={"sex": ["male", "female"], "age_group": ["18-39", "40plus"]},
            kind=TargetKind.PROPORTION,
            target_column="smoked",
            min_group_size=250,
        ),
        QuestionTemplate(
            template_id="mean-bmi",
            prompt=(
                "Mean BMI of {sex} respondents aged {age_group}? Provide your "
                "estimate and a 95% confidence interval as three numbers: "
                "value, lower, upper."
            ),
            axes={"sex": ["male", "female"], "age_group": ["18-39", "40plus"]},
            kind=TargetKind.CONTINUOUS,
            target_column="bmi",
            min_group_size=250,
        ),
    ]
    return CorpusConfig(
        datasets=[DatasetConfig(dataset_id="healthfix", table=str(tables), templates=templates)],
        seed=20250810,
        questions_per_dataset=6,
    )


class TestGenerateCorpus:
    def test_pure_function_of_config(self):
        a, _ = generate_corpus(demo_config())
        b, _ = generate_corpus(demo_config())
        assert a == b

    def test_question_invariants(self):
        questions, meta = generate_corpus(demo_config())
        assert meta["datasets"]["healthfix"]["candidates"] == 8
        assert len(questions) == 6
        assert len({q.question_id for q in questions}) == 6
        for q in questions:
            assert q.truth.lower <= q.truth.value <= q.truth.upper
            if q.kind is TargetKind.PROPORTION:
                assert 0.0 <= q.truth.lower and q.truth.upper <= 100.0
            assert "{" not in q.prompt and "}" not in q.prompt

    def test_ground_truth_matches_brute_force_counting(self):
        questions, _ = generate_corpus(demo_config())
        rows = load_table(DATA / "health_fixture.csv")
        for q in questions:
            subgroup = [
                r for r in rows
                if r["sex"] == q.params["sex"] and r["age_group"] == q.params["age_group"]
            ]
            assert q.truth.n == len(subgroup)
            if q.kind is TargetKind.PROPORTION:
                k = sum(1 for r in subgroup if r["smoked"] == "1")
                assert q.truth.k == k
                assert q.truth.value == 100.0 * k / len(subgroup)
            else:
                mean = sum(float(r["bmi"]) for r in subgroup) / len(subgroup)
                assert q.truth.value == pytest.approx(mean, abs=1e-9)


class TestLoadTable:
    def test_tab_delimited(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tb\n1\t2\n")
        assert load_table(path) == [{"a": "1", "b": "2"}]

    def test_a_blank_line_is_skipped(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("a,b\n1,2\n\n3,4\n")
        assert load_table(path) == [{"a": "1", "b": "2"}, {"a": "3", "b": "4"}]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(InputError):
            load_table(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n")
        with pytest.raises(InputError):
            load_table(path)


class TestQuestionTruthFamily:
    """A question's kind fixes its truth's family, checked when a corpus row loads."""

    ROW = {"question_id": "q", "dataset_id": "d", "params": {}, "prompt": "p"}
    GAUSSIAN = {"value": 40.0, "lower": 30.0, "upper": 50.0, "n": 100, "family": "gaussian"}
    BINOMIAL = {**GAUSSIAN, "family": "binomial", "k": 40}

    @pytest.mark.parametrize("kind, truth, needed", [
        ("proportion", GAUSSIAN, "binomial"), ("continuous", BINOMIAL, "gaussian"),
    ], ids=["proportion_gaussian", "continuous_binomial"])
    def test_other_family_rejected(self, kind, truth, needed):
        with pytest.raises(InputError) as exc:
            Question.from_dict({**self.ROW, "kind": kind, "truth": truth})
        assert str(exc.value) == (f"a {kind} question needs a {needed} truth, "
                                  f"not a {truth['family']} one")
