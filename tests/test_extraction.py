import json
import random
import string
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elicitbench.corpus import TargetKind
from elicitbench.extraction import (
    InvalidReason,
    ParseOutcome,
    Triplet,
    Units,
    canonical_triplet_text,
    extract_triplet,
    find_numbers,
    looks_fraction_scale,
)

FIXTURES = Path(__file__).parent / "data" / "parser_fixtures.jsonl"


def load_fixtures():
    with FIXTURES.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestFixtureCorpus:
    def test_corpus_is_large_and_diverse(self):
        cases = load_fixtures()
        assert len(cases) >= 60
        reasons = {
            c["expected_outcome"]["reason"] for c in cases if c["expected_outcome"]["outcome"] == "invalid"
        }
        assert reasons == {r.value for r in InvalidReason}

    @pytest.mark.parametrize("case", load_fixtures(), ids=lambda c: c["raw_text"][:40] or "<empty>")
    def test_annotated_outcome(self, case):
        outcome = extract_triplet(case["raw_text"], case["kind"])
        expect = case["expected_outcome"]
        if expect["outcome"] == "valid":
            assert outcome.valid, f"expected valid, got {outcome.reason}"
            t = outcome.triplet
            assert (t.value, t.lower, t.upper) == (
                expect["value"], expect["lower"], expect["upper"],
            )
            assert t.bounds_reordered == expect["bounds_reordered"]
            assert t.value_outside_interval == expect["value_outside_interval"]
            wanted_units = Units.PERCENT if case["kind"] == "proportion" else Units.DATASET
            assert t.units is wanted_units
        else:
            assert not outcome.valid
            assert outcome.reason.value == expect["reason"]


class TestGrammar:
    def test_labels_beat_bare_numbers(self):
        out = extract_triplet("Ranges 1 2 3 4; value: 20, lower: 17, upper: 23", "proportion")
        assert (out.triplet.value, out.triplet.lower, out.triplet.upper) == (20, 17, 23)

    def test_reversed_bounds_swapped_and_flagged(self):
        out = extract_triplet("value: 10, lower: 14, upper: 6", "proportion")
        assert out.triplet.lower == 6 and out.triplet.upper == 14
        assert out.triplet.bounds_reordered

    def test_value_outside_kept_and_flagged(self):
        out = extract_triplet("2, 5, 9", "proportion")
        assert out.triplet.value_outside_interval
        assert out.triplet.value == 2

    def test_thousands_and_percent_tokens(self):
        assert find_numbers("1,234,567.5 and 12% and -3") == [1234567.5, 12.0, -3.0]

    def test_hyphen_range_is_not_negative(self):
        assert find_numbers("range 15-25") == [15.0, 25.0]

    @pytest.mark.parametrize(
        "text, expected",
        [("10%-14%", [10.0, 14.0]),
         ("12%, 10%-14%", [12.0, 10.0, 14.0]),
         ("-5%, -8%", [-5.0, -8.0])],
    )
    def test_percent_range_is_not_negative(self, text, expected):
        assert find_numbers(text) == expected

    @pytest.mark.parametrize(
        "text, lower, upper",
        [("12%, 10%-14%", 10.0, 14.0),
         ("42% (95% CI: 30%-50%)", 30.0, 50.0)],
    )
    def test_percent_range_bounds(self, text, lower, upper):
        t = extract_triplet(text, "proportion").triplet
        assert (t.lower, t.upper) == (lower, upper)
        assert not t.bounds_reordered

    @pytest.mark.parametrize(
        "text, expected",
        [("My estimate is 42 with a 95% CI of 30 to 50", (42.0, 30.0, 50.0)),
         ("42% (95% CI: 30%-50%)", (42.0, 30.0, 50.0)),
         ("Estimate: 42, 95% CI [30, 50]", (42.0, 30.0, 50.0)),
         ("About 42 (95% interval 30-50)", (42.0, 30.0, 50.0)),
         ("95 (90% CI: 93-97)", (95.0, 93.0, 97.0)),
         ("42, with a 90% credible interval of 30 to 50", (42.0, 30.0, 50.0)),
         ("42; 80% prediction interval 30-50", (42.0, 30.0, 50.0)),
         ("42% (30–50% credible interval)", (42.0, 30.0, 50.0)),
         ("42, with a 30-50% CI", (42.0, 30.0, 50.0)),
         ("My best estimate is 42%, with a 30–50% credible interval", (42.0, 30.0, 50.0)),
         ("42, 30 to 50% interval", (42.0, 30.0, 50.0)),
         ("42 (30 – 50% CI)", (42.0, 30.0, 50.0)),
         ("value: 42, lower: 30, upper: 50 (high 95% confidence)", (42.0, 30.0, 50.0)),
         ("42 (95 % CI: 30-50)", (42.0, 30.0, 50.0)),
         ("Estimate 42; 95%-CI 30-50", (42.0, 30.0, 50.0)),
         ("Estimate 42 (95 percent CI 30-50)", (42.0, 30.0, 50.0)),
         ("Estimate 42 (95 Percent CI 30-50)", (42.0, 30.0, 50.0)),
         ("42, 95% CIs: 30-50", (42.0, 30.0, 50.0)),
         ("42, 30-50 percent CI", (42.0, 30.0, 50.0)),
         ("42, 30 to 50 percent interval", (42.0, 30.0, 50.0)),
         ("- Estimate: 42%\n- Credible interval: 30%–50%", (42.0, 30.0, 50.0)),
         ("Estimate: 42 percent\nConfidence interval: 30 to 50 percent", (42.0, 30.0, 50.0))],
    )
    def test_confidence_level_is_not_a_number(self, text, expected):
        t = extract_triplet(text, "proportion").triplet
        assert (t.value, t.lower, t.upper) == expected
        assert not t.value_outside_interval

    @pytest.mark.parametrize(
        "text, expected",
        [("My estimate is 40, with range 30\u221250% CI", (40.0, 30.0, 50.0)),
         ("40% (30\u221250% interval)", (40.0, 30.0, 50.0)),
         ("Estimate 40, 95\u00a0% CI 30 to 50", (40.0, 30.0, 50.0)),
         ("Estimate 40, 95\u2009% CI 30 to 50", (40.0, 30.0, 50.0)),
         ("Estimate 40, 95\u202f% CI 30 to 50", (40.0, 30.0, 50.0)),
         ("value: \u22123, lower: \u22125, upper: \u22121", (-3.0, -5.0, -1.0)),
         ("\u22123 (\u22125 to \u22121)", (-3.0, -5.0, -1.0))],
        ids=["minus_range_ci", "minus_range_interval", "no_break_space", "thin_space",
             "narrow_no_break_space", "minus_labeled", "minus_positional"],
    )
    def test_typographic_minus_and_spaces_read_as_ascii(self, text, expected):
        # U+2212 is "-" and U+00A0, U+2009 and U+202F are a space before any rule reads the text
        ascii_text = text.translate({0x2212: "-", 0xA0: " ", 0x2009: " ", 0x202F: " "})
        assert extract_triplet(text, "continuous") == extract_triplet(ascii_text, "continuous")
        t = extract_triplet(text, "continuous").triplet
        assert (t.value, t.lower, t.upper) == expected
        assert not t.value_outside_interval

    def test_value_label_after_the_bounds(self):
        t = extract_triplet("30 to 50, estimate 42", "proportion").triplet
        assert (t.value, t.lower, t.upper) == (42.0, 30.0, 50.0)

    def test_value_label_with_one_bound_label(self):
        # One bound label does not settle the labels: the value-only rule reads the
        # labelled value among the last three numbers, wherever it stands.
        t = extract_triplet("Estimate: 42, lower: 30, and the top of my range is 55",
                            "continuous").triplet
        assert (t.value, t.lower, t.upper) == (42.0, 30.0, 55.0)
        out = extract_triplet("lower: 30, 55, estimate 42", "continuous")
        assert out.triplet == Triplet(42.0, 30.0, 55.0, Units.DATASET)
        out = extract_triplet("estimate 42, lb 30", "continuous")
        assert out.reason is InvalidReason.INCOMPLETE_TRIPLET

    def test_scientific_notation(self):
        assert find_numbers("1.5e-3 2E+2") == [0.0015, 200.0]


class TestInvalidTaxonomy:
    def test_empty_and_whitespace(self):
        assert extract_triplet("", "proportion").reason is InvalidReason.EMPTY_OUTPUT
        assert extract_triplet(" \n ", "proportion").reason is InvalidReason.EMPTY_OUTPUT

    def test_clarification_requires_few_numbers(self):
        out = extract_triplet("Which cohort? 10, 20, 30", "proportion")
        assert out.valid  # three numbers win over the question mark

    def test_counts(self):
        assert extract_triplet("no digits here", "proportion").reason is InvalidReason.NO_NUMBERS
        assert (
            extract_triplet("only 2 numbers 3", "proportion").reason
            is InvalidReason.INCOMPLETE_TRIPLET
        )


class TestRoundTrip:
    def test_canonical_example(self):
        t = Triplet(40.38, 35.5, 45.21, Units.PERCENT)
        out = extract_triplet(canonical_triplet_text(t), TargetKind.PROPORTION)
        assert out.triplet.value == t.value
        assert out.triplet.lower == t.lower
        assert out.triplet.upper == t.upper

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_round_trip_property(self, value, a, b):
        lower, upper = min(a, b), max(a, b)
        t = Triplet(value, lower, upper, Units.DATASET)
        out = extract_triplet(canonical_triplet_text(t), TargetKind.CONTINUOUS)
        assert out.valid
        assert out.triplet.value == value
        assert out.triplet.lower == lower
        assert out.triplet.upper == upper
        assert not out.triplet.bounds_reordered
        assert out.triplet.value_outside_interval == (not lower <= value <= upper)


# Domain of the phrasing property: 0 <= lower <= value <= upper <= 1e6, each
# with at most two decimals and no thousands separators. A number is drawn in
# hundredths and written as repr(hundredths / 100), which parses back to the
# same float.
_hundredths = st.integers(min_value=0, max_value=100_000_000)
_ordered_triplets = st.tuples(_hundredths, _hundredths, _hundredths).map(
    lambda t: tuple(h / 100 for h in sorted(t))
)

PHRASINGS = [
    "value: {v}, lower: {l}, upper: {u}",
    "Estimate: {v}\nLower bound: {l}\nUpper bound: {u}",
    "My estimate is {v}, between {l} and {u}",
    "{v} ({l}–{u})",
    "{v} ({l}-{u})",
    "Estimate: {v}, 95% CI [{l}, {u}]",
    "My estimate is {v} with a 95% CI of {l} to {u}",
    "{v}% (95% CI: {l}%-{u}%)",
    "{v} (95 % CI: {l}-{u})",
    "Estimate {v}; 95%-CI {l}-{u}",
    "Estimate {v} (95 percent CI {l}-{u})",
    "{v}, 95% CIs: {l}-{u}",
    "{v}, {l}-{u} percent CI",
    "- Estimate: {v}%\n- Credible interval: {l}%–{u}%",
    "Estimate: {v} percent\nConfidence interval: {l} to {u} percent",
    "95% CI: {l} to {u}; point estimate {v}",
]


class TestPhrasingProperty:
    @pytest.mark.parametrize("phrasing", PHRASINGS)
    @settings(max_examples=300, deadline=None)
    @given(_ordered_triplets)
    @example((0.86, 862.38, 15716.2))
    def test_phrasing_parses_back_exactly(self, phrasing, triplet):
        lower, value, upper = triplet
        text = phrasing.format(v=repr(value), l=repr(lower), u=repr(upper))
        out = extract_triplet(text, "proportion")
        assert out.valid, text
        assert (out.triplet.value, out.triplet.lower, out.triplet.upper) == (
            value, lower, upper,
        ), text
        assert not out.triplet.bounds_reordered
        assert not out.triplet.value_outside_interval


class TestFuzz:
    def test_never_raises_and_always_classifies(self):
        rng = random.Random(20250810)
        alphabet = string.printable + "−–%€🙂éß中"
        for _ in range(20000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
            out = extract_triplet(text, "proportion")
            assert isinstance(out, ParseOutcome)
            assert out.valid or out.reason is not None

    def test_deterministic(self):
        text = "value 12 or maybe 13? 1, 2, 3"
        assert extract_triplet(text, "proportion") == extract_triplet(text, "proportion")


class TestFractionScaleFlag:
    def test_suspect(self):
        t = Triplet(0.62, 0.55, 0.70, Units.PERCENT)
        assert looks_fraction_scale(t, TargetKind.PROPORTION, truth_value=62.0)

    def test_not_for_continuous(self):
        t = Triplet(0.62, 0.55, 0.70, Units.DATASET)
        assert not looks_fraction_scale(t, TargetKind.CONTINUOUS, truth_value=62.0)

    def test_not_when_truth_tiny(self):
        t = Triplet(0.62, 0.55, 0.70, Units.PERCENT)
        assert not looks_fraction_scale(t, TargetKind.PROPORTION, truth_value=0.8)

    def test_not_for_percent_scale_answers(self):
        t = Triplet(62.0, 55.0, 70.0, Units.PERCENT)
        assert not looks_fraction_scale(t, TargetKind.PROPORTION, truth_value=62.0)
