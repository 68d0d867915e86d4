"""Parse free-text responses into (value, lower, upper) triplets.

Precedence: labeled fields win over bare numbers; when all three of a
value/lower/upper label family are present anywhere in the text, those are
taken (last occurrence of each label). Otherwise, when the value label is
present and its number is one of the last three numeric tokens, that number
is the value and the other two, in reading order, are (lower, upper), so
"lower: 30, 55, estimate 42" reads (42, 30, 55). Otherwise the last three
bare numeric tokens, in reading order, are read as (value, lower, upper). A
confidence level such as the 95 of "95% CI" is never one of those numbers.
Reversed bounds are repaired and flagged; a value outside its own interval is
kept and flagged. Anything without three parseable numbers is invalid, with
refusals that ask a question or request details classified as clarifications.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from math import isfinite
from typing import Iterable

from .corpus import TargetKind
from .errors import SchemaError


class Units(str, Enum):
    PERCENT = "percent"
    DATASET = "dataset"


class InvalidReason(str, Enum):
    NO_NUMBERS = "no_numbers"
    INCOMPLETE_TRIPLET = "incomplete_triplet"
    MALFORMED = "malformed"
    EMPTY_OUTPUT = "empty_output"
    CLARIFICATION = "clarification"


@dataclass(frozen=True)
class Triplet:
    value: float
    lower: float
    upper: float
    units: Units
    bounds_reordered: bool = False
    value_outside_interval: bool = False


@dataclass(frozen=True)
class ParseOutcome:
    triplet: Triplet | None
    reason: InvalidReason | None

    @property
    def valid(self) -> bool:
        return self.triplet is not None


class Outcome(str, Enum):
    VALID = "valid"
    INVALID = "invalid"
    TRANSPORT_FAILED = "transport_failed"


@dataclass(frozen=True)
class ParsedRecord:
    """A `parsed.v1` row, with a triplet exactly when its outcome is valid.

    Without the triplet, it is also the `scores.v1` row of an answer that was not scored.
    """

    question_id: str
    model_id: str
    effort: str
    tools_enabled: bool
    dataset_id: str
    kind: TargetKind
    outcome: Outcome
    reason: InvalidReason | None = None
    triplet: Triplet | None = None
    failure_reason: str | None = None  # why the transport failed

    def __post_init__(self) -> None:
        if (self.triplet is None) == (self.outcome is Outcome.VALID):
            raise SchemaError(f"ParsedRecord row: outcome {self.outcome.value!r} "
                              f"with{'out' if self.triplet is None else ''} a triplet")


# Numeric token: optional sign, thousands grouping, decimals, exponent,
# trailing percent. A sign or leading digit is only taken where it does not
# continue a word or another number, so "10%-14%" is a range, not 10 and -14.
_NUMBER_RE = re.compile(
    r"""(?<![\w.%])
        [-+]?
        (?:
            \d{1,3}(?:,\d{3})+(?:\.\d+)?
          | \d+\.?\d*
          | \.\d+
        )
        (?:[eE][-+]?\d+)?
        %?
    """,
    re.VERBOSE,
)

# A confidence level ("95% CI", "95 % CI", "95%-CI", "95 percent CI", "90%
# credible interval") is not a candidate number: it is blanked out before
# labels and the last-three rule are read. The upper end of a range
# ("30-50% CI", "30 to 50% interval", "30-50 percent CI") is kept. A level
# and its interval word share a line, so an estimate ending one line of a
# list ("- Estimate: 42%\n- Credible interval: ...") stays a number.
_LEVEL_RE = re.compile(
    r"(?<![-–])(?<![-–]\s)(?<!\bto\s)"
    + _NUMBER_RE.pattern
    + r"""(?:(?<=%)|[ \t]*%|[ \t]*percent\b)
        (?=(?:-|[ \t]*)(?:CIs?|confidence|credible|(?:prediction[ \t]+)?interval)\b)""",
    re.VERBOSE | re.IGNORECASE,
)

_EMPH = r"(?:\*\*|__|`)?"
# A bare dash only acts as a label separator when followed by whitespace, so
# "value -3.2" keeps its sign while "value - 3.2" still reads as labeled.
_CONNECT = r"(?:[:=–>]|-(?=\s)|is)?"


def _label_re(words: Iterable[str]) -> re.Pattern:
    alts = "|".join(words)
    return re.compile(
        rf"\b(?:{alts})(?:\s+bound)?\b\s*{_EMPH}\s*{_CONNECT}\s*{_EMPH}\s*"
        rf"({_NUMBER_RE.pattern})",
        re.IGNORECASE | re.VERBOSE,
    )

_VALUE_RE = _label_re(["value", "estimate", "point"])
_LOWER_RE = _label_re(["lower", "low", "lb"])
_UPPER_RE = _label_re(["upper", "high", "ub"])

# The minus sign reads as "-" and the no-break and thin spaces as a space,
# before any rule reads the text.
_TYPOGRAPHY = str.maketrans({"\u2212": "-", "\u00a0": " ", "\u2009": " ", "\u202f": " "})

_CLARIFICATION_RE = re.compile(
    r"\?|clarif|could you|can you|please (?:provide|specify|share)"
    r"|more (?:information|context|details)|do you mean|what do you mean"
    r"|need to know|rephrase",
    re.IGNORECASE,
)


def _to_float(token: str) -> float:
    return float(token.replace(",", "").rstrip("%"))


def find_numbers(text: str) -> list[float]:
    """All numeric tokens in reading order (percent signs stripped); a minus is the ASCII "-"."""
    return [_to_float(m.group(0)) for m in _NUMBER_RE.finditer(text)]


def _labeled_fields(text: str) -> tuple[float, float, float] | None:
    """(value, lower, upper) read from labels, or None when the labels do not settle it."""
    value = list(_VALUE_RE.finditer(text))
    if not value:
        return None
    lower = list(_LOWER_RE.finditer(text))
    upper = list(_UPPER_RE.finditer(text))
    if lower and upper:
        return tuple(_to_float(found[-1].group(1)) for found in (value, lower, upper))
    # Not both bounds are labelled ("95% CI: 30 to 50; point estimate 42"): when
    # the value's number is one of the last three, the other two are the bounds.
    last_three = list(_NUMBER_RE.finditer(text))[-3:]
    starts = [number.start() for number in last_three]
    if len(last_three) < 3 or value[-1].start(1) not in starts:
        return None
    numbers = [_to_float(number.group(0)) for number in last_three]
    labelled = numbers.pop(starts.index(value[-1].start(1)))
    return labelled, numbers[0], numbers[1]


def _normalize(value: float, lower: float, upper: float, units: Units) -> ParseOutcome:
    if not (isfinite(value) and isfinite(lower) and isfinite(upper)):
        return ParseOutcome(None, InvalidReason.MALFORMED)
    reordered = lower > upper
    if reordered:
        lower, upper = upper, lower
    return ParseOutcome(
        Triplet(
            value=value,
            lower=lower,
            upper=upper,
            units=units,
            bounds_reordered=reordered,
            value_outside_interval=not lower <= value <= upper,
        ),
        None,
    )


def extract_triplet(raw_text: str, target_kind: TargetKind | str) -> ParseOutcome:
    """Total, deterministic parse of a response into a triplet or an invalid reason."""
    kind = TargetKind(target_kind)
    units = Units.PERCENT if kind is TargetKind.PROPORTION else Units.DATASET
    if not raw_text.strip():
        return ParseOutcome(None, InvalidReason.EMPTY_OUTPUT)
    if not raw_text.isascii():
        raw_text = raw_text.translate(_TYPOGRAPHY)

    # Every level ends in "%" or "percent", so a text with neither skips the scan.
    has_level = "%" in raw_text or "percent" in raw_text.lower()
    text = _LEVEL_RE.sub(" ", raw_text) if has_level else raw_text
    labeled = _labeled_fields(text)
    if labeled is not None:
        return _normalize(*labeled, units=units)

    numbers = find_numbers(text)
    if len(numbers) >= 3:
        return _normalize(numbers[-3], numbers[-2], numbers[-1], units=units)

    if _CLARIFICATION_RE.search(raw_text):
        return ParseOutcome(None, InvalidReason.CLARIFICATION)
    if not numbers:
        return ParseOutcome(None, InvalidReason.NO_NUMBERS)
    return ParseOutcome(None, InvalidReason.INCOMPLETE_TRIPLET)


def canonical_triplet_text(triplet: Triplet) -> str:
    """Render a triplet in the canonical labeled form the parser round-trips."""
    return f"value: {triplet.value!r}, lower: {triplet.lower!r}, upper: {triplet.upper!r}"


def looks_fraction_scale(triplet: Triplet, kind: TargetKind, truth_value: float) -> bool:
    """Heuristic flag: a percent-kind answer that looks like a [0,1] fraction.

    No rescaling is ever applied; the flag only marks the record as suspect
    in reports. Not raised when the truth itself is at most 1 percent.
    """
    if kind is not TargetKind.PROPORTION or truth_value <= 1.0:
        return False
    bounded = max(abs(triplet.value), abs(triplet.lower), abs(triplet.upper)) <= 1.0
    return bounded and triplet.upper > 0.0
