"""Scoring of parsed triplets against ground truth.

A triplet is read as a central 95% interval: the Gaussian family evaluates
the truth under Normal(value, sigma) with sigma = width / (2 * z), the
binomial family evaluates the observed success count under Binomial(n,
value/100). Coverage, relative sharpness (CV), absolute percentage error,
and the naive 50%-baseline win rate complete the per-record scores. Records
are grouped by `group_by`, and each statistic over a group is one of two
reductions: `rate`, a share of true flags, or `median_of`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

from .corpus import CIFamily, GroundTruth, TargetKind, Z_95
from .errors import InputError
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


def floored_width(triplet: Triplet) -> float:
    """Interval width with the degenerate-interval floor applied."""
    return floored(triplet.upper - triplet.lower, triplet.value)


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
    if truth.family is not CIFamily.BINOMIAL:
        raise InputError("binomial NLL needs a binomial ground truth")
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


def score_record(parsed: ParsedRecord, truth: GroundTruth) -> ScoredRecord:
    """Score a valid parsed record against its question's truth.

    The key fields, `dataset_id` and `kind` are the parsed record's; the
    kind picks the NLL family.
    """
    triplet, kind = parsed.triplet, parsed.kind
    if kind is TargetKind.PROPORTION:
        nll = nll_binomial(triplet, truth)
        family = CIFamily.BINOMIAL
    else:
        nll = nll_gaussian(triplet, truth.value)
        family = CIFamily.GAUSSIAN
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
        nll_family=family,
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
    def invalid_rate(self) -> float | None:
        total = self.n_valid + self.n_invalid
        if total == 0:
            return None
        return self.n_invalid / total


def summarize_group(
    model_id: str,
    effort: str,
    dataset_id: str,
    scored: Sequence[ScoredRecord],
    n_invalid: int,
) -> GroupSummary:
    """Roll one (model, effort, dataset) cell up; medians over valid records only.

    Coverage is the share of the records' stored `covered` bits.
    """
    return GroupSummary(
        model_id=model_id,
        effort=effort,
        dataset_id=dataset_id,
        n_valid=len(scored),
        n_invalid=n_invalid,
        coverage=rate(r.covered for r in scored),
        median_nll=median_of(r.nll for r in scored),
        mdape=median_of(r.ape for r in scored),
        median_cv=median_of(r.cv for r in scored),
        n_suspect_scale=sum(r.suspect_fraction_scale for r in scored),
    )
