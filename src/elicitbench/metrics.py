"""Scoring of parsed triplets against ground truth.

A triplet is read as a central 95% interval: the Gaussian family evaluates
the truth under Normal(value, sigma) with sigma = width / (2 * z), the
binomial family evaluates the observed success count under Binomial(n,
value/100). Coverage, relative sharpness (CV), absolute percentage error,
and the naive 50%-baseline win rate complete the per-record scores. The
analysis stages hold a score file as `ScoreColumns`, one per (model, effort,
dataset) group, and pool groups with `group_by`; each statistic over a pool
is one of two reductions: `rate`, a share of true flags, or `median_of`.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import chain
from statistics import median
from typing import Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

from .corpus import CIFamily, GroundTruth, TargetKind, Z_95
from .extraction import ParsedRecord, Triplet, looks_fraction_scale
from .jsonlio import load_row

# Width floor shared with the conformal stage: degenerate intervals get a
# tiny positive scale instead of producing infinities.
SIGMA_FLOOR_ABS = 1e-9
SIGMA_FLOOR_REL = 1e-6
CV_VALUE_EPS = 1e-9
P_CLAMP = 1e-6

T = TypeVar("T")
K = TypeVar("K", bound=Hashable)


def floored(scale: float, value: float) -> float:
    return max(scale, SIGMA_FLOOR_ABS, SIGMA_FLOOR_REL * abs(value))


def floored_width(lower: float, upper: float, value: float) -> float:
    """Interval width with the degenerate-interval floor applied."""
    return floored(upper - lower, value)


def sigma_from_interval(triplet: Triplet) -> float:
    """Implied Gaussian SD of a central 95% interval, floored."""
    return floored((triplet.upper - triplet.lower) / (2.0 * Z_95), triplet.value)


def interval_covers(lower: float, upper: float, truth: float) -> bool:
    return lower <= truth <= upper


def relative_sharpness(triplet: Triplet) -> float | None:
    """Interval width over |value|; None when the value is numerically zero."""
    if abs(triplet.value) < CV_VALUE_EPS:
        return None
    return (triplet.upper - triplet.lower) / abs(triplet.value)


def nll_gaussian(triplet: Triplet, truth_value: float) -> float:
    sigma = sigma_from_interval(triplet)
    return 0.5 * math.log(2.0 * math.pi * sigma * sigma) + (
        (truth_value - triplet.value) ** 2 / (2.0 * sigma * sigma)
    )


def nll_binomial(triplet: Triplet, truth: GroundTruth) -> float:
    """NLL of the observed success count under Binomial(n, value/100).

    The predicted probability is clamped away from exact 0/1 so extreme
    answers score finitely; log C(n, k) goes through log-gamma.
    """
    n, k = truth.n, truth.k
    p = min(max(triplet.value / 100.0, P_CLAMP), 1.0 - P_CLAMP)
    log_choose = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    return -(log_choose + k * math.log(p) + (n - k) * math.log(1.0 - p))


def ape(predicted: float, truth_value: float) -> float | None:
    """Absolute percentage error; None when the truth is zero (excluded, flagged)."""
    if truth_value == 0.0:
        return None
    return 100.0 * abs(predicted - truth_value) / abs(truth_value)


def group_by(items: Iterable[T], key: Callable[[T], K]) -> dict[K, list[T]]:
    """Items by `key`: keys in order of first appearance, each list in input order."""
    groups: dict[K, list[T]] = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return groups


def rate(flags: Iterable[bool]) -> float | None:
    """Share of true flags; None for no flags (an undefined cell)."""
    bits = list(flags)
    if not bits:
        return None
    return sum(bits) / len(bits)


def median_of(values: Iterable[float | None]) -> float | None:
    """Median of the defined values (even counts take the midpoint); None when none are."""
    defined = [v for v in values if v is not None]
    if not defined:
        return None
    return float(median(defined))


def baseline_win_rate(pairs: Iterable[tuple[float, float]]) -> float | None:
    """Share of (predicted, truth) pairs strictly beating a constant 50 guess.

    Ties count as losses. Only meaningful for percent-kind questions.
    """
    return rate(abs(predicted - truth) < abs(50.0 - truth) for predicted, truth in pairs)


@dataclass(frozen=True)
class ScoredRecord:
    question_id: str
    model_id: str
    effort: str
    tools_enabled: bool
    dataset_id: str
    kind: TargetKind
    triplet: Triplet
    truth: GroundTruth
    nll: float
    nll_family: CIFamily
    covered: bool
    cv: float | None
    ape: float | None
    ape_excluded_zero_truth: bool
    suspect_fraction_scale: bool

    from_dict = classmethod(load_row)


def _floats() -> array:
    return array("d")


@dataclass
class ScoreColumns:
    """One (model, effort, dataset) group of a score file: its valid rows as
    columns, and how many of its rows are invalid.

    Row i of the group is entry i of every column. A column holds one field
    of the rows' `ScoredRecord`s: value, lower and upper are the triplet's,
    truth is the truth's value and suspect is `suspect_fraction_scale`. The
    columns that are always numbers are arrays of doubles.
    """
    model_id: str
    effort: str
    dataset_id: str
    n_invalid: int = 0
    question_id: list[str] = field(default_factory=list)
    tools_enabled: list[bool] = field(default_factory=list)
    value: array = field(default_factory=_floats)
    lower: array = field(default_factory=_floats)
    upper: array = field(default_factory=_floats)
    truth: array = field(default_factory=_floats)
    kind: list[TargetKind] = field(default_factory=list)
    covered: list[bool] = field(default_factory=list)
    nll: array = field(default_factory=_floats)
    cv: list[float | None] = field(default_factory=list)
    ape: list[float | None] = field(default_factory=list)
    suspect: list[bool] = field(default_factory=list)

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.model_id, self.effort, self.dataset_id)

    def __len__(self) -> int:
        return len(self.question_id)

    def append(self, record: ScoredRecord) -> None:
        """Add a valid row of the group."""
        self.question_id.append(record.question_id)
        self.tools_enabled.append(record.tools_enabled)
        self.value.append(record.triplet.value)
        self.lower.append(record.triplet.lower)
        self.upper.append(record.triplet.upper)
        self.truth.append(record.truth.value)
        self.kind.append(record.kind)
        self.covered.append(record.covered)
        self.nll.append(record.nll)
        self.cv.append(record.cv)
        self.ape.append(record.ape)
        self.suspect.append(record.suspect_fraction_scale)


def score_record(parsed: ParsedRecord, truth: GroundTruth) -> ScoredRecord:
    """Score a valid parsed record against its question's truth.

    The key fields, `dataset_id` and `kind` are the parsed record's; the
    truth's family, which `Question` ties to the kind, picks the NLL.
    """
    triplet, kind = parsed.triplet, parsed.kind
    if truth.family is CIFamily.BINOMIAL:
        nll = nll_binomial(triplet, truth)
    else:
        nll = nll_gaussian(triplet, truth.value)
    record_ape = ape(triplet.value, truth.value)
    return ScoredRecord(
        question_id=parsed.question_id,
        model_id=parsed.model_id,
        effort=parsed.effort,
        tools_enabled=parsed.tools_enabled,
        dataset_id=parsed.dataset_id,
        kind=kind,
        triplet=triplet,
        truth=truth,
        nll=nll,
        nll_family=truth.family,
        covered=interval_covers(triplet.lower, triplet.upper, truth.value),
        cv=relative_sharpness(triplet),
        ape=record_ape,
        ape_excluded_zero_truth=record_ape is None,
        suspect_fraction_scale=looks_fraction_scale(triplet, kind, truth.value),
    )


@dataclass(frozen=True)
class GroupSummary:
    model_id: str
    effort: str
    dataset_id: str
    n_valid: int
    n_invalid: int
    coverage: float | None
    median_nll: float | None
    mdape: float | None
    median_cv: float | None
    n_suspect_scale: int = 0  # percent answers that look like [0,1] fractions

    @property
    def invalid_rate(self) -> float:
        """The invalid share of the pool's rows; every pool has at least one."""
        return self.n_invalid / (self.n_valid + self.n_invalid)


def summarize_group(
    model_id: str, effort: str, dataset_id: str, groups: Sequence[ScoreColumns]
) -> GroupSummary:
    """Roll one (model, effort, dataset) cell, the pool of `groups`, up; medians
    over valid rows only.

    Coverage is the share of the rows' stored `covered` bits.
    """
    def pooled(column: Callable[[ScoreColumns], Iterable[T]]) -> Iterator[T]:
        return chain.from_iterable(map(column, groups))

    return GroupSummary(
        model_id=model_id,
        effort=effort,
        dataset_id=dataset_id,
        n_valid=sum(map(len, groups)),
        n_invalid=sum(g.n_invalid for g in groups),
        coverage=rate(pooled(lambda g: g.covered)),
        median_nll=median_of(pooled(lambda g: g.nll)),
        mdape=median_of(pooled(lambda g: g.ape)),
        median_cv=median_of(pooled(lambda g: g.cv)),
        n_suspect_scale=sum(pooled(lambda g: g.suspect)),
    )
