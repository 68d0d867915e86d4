"""Split conformal recalibration of elicited intervals, per group.

Scores are normalized residuals s = |truth - value| / width. The calibrated
quantile is the ceil((n+1)(1-alpha))-th smallest calibration score; when that
index exceeds n the quantile is infinite and the group is flagged. Test
intervals become value +/- q_hat * width, clipped to [0, 100] for
percent-kind questions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Sequence, TypeVar

from .corpus import TargetKind
from .errors import ConfigError
from .extraction import Triplet
from .jsonlio import derive_seed
from .metrics import ScoredRecord, coverage, floored_width, interval_covers

T = TypeVar("T")


class Sufficiency:
    OK = "ok"
    INSUFFICIENT = "insufficient_data"


@dataclass(frozen=True)
class ConformalConfig:
    alpha: float = 0.05
    cal_fraction: float = 0.30
    min_cal: int = 15
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0,1), got {self.alpha}")
        if not 0.0 < self.cal_fraction < 1.0:
            raise ConfigError(f"cal_fraction must be in (0,1), got {self.cal_fraction}")
        if self.min_cal < 1:
            raise ConfigError("min_cal must be >= 1")


@dataclass(frozen=True)
class ConformalFit:
    group: tuple[str, str, str]  # (model_id, effort, dataset_id)
    q_hat: float  # math.inf when the quantile index exceeds n_cal
    n_cal: int
    sufficiency: str
    quantile_index: int  # 1-based order statistic demanded by alpha

    @property
    def flag_detail(self) -> str:
        if self.sufficiency == Sufficiency.OK:
            return ""
        if self.n_cal == 0:
            return "empty_calibration_set"
        if math.isinf(self.q_hat):
            return "quantile_index_exceeds_n_cal"
        return "n_cal_below_minimum"


@dataclass(frozen=True)
class CalibratedRecord:
    original: ScoredRecord
    new_lower: float
    new_upper: float
    covered_after: bool
    calibrated: bool  # False when the record passed through unmodified


def split(records: Sequence[T], cal_fraction: float, seed: int) -> tuple[list[T], list[T]]:
    """Disjoint random partition with |cal| = round(cal_fraction * n), half-up.

    Deterministic given the seed; relative order is preserved on both sides
    and the union equals the input.
    """
    n = len(records)
    n_cal = int(math.floor(cal_fraction * n + 0.5))
    rng = Random(seed)
    cal_idx = set(rng.sample(range(n), n_cal))
    cal = [records[i] for i in range(n) if i in cal_idx]
    test = [records[i] for i in range(n) if i not in cal_idx]
    return cal, test


def nonconformity(triplet: Triplet, truth_value: float) -> float:
    """Normalized residual |truth - value| / width, width floored as in scoring."""
    return abs(truth_value - triplet.value) / floored_width(triplet)


def conformal_quantile(scores: Sequence[float], alpha: float) -> tuple[float, int]:
    """(q_hat, index): the m-th smallest score with m = ceil((n+1)(1-alpha)).

    Exact rational arithmetic for the index; q_hat is +inf when m > n.
    """
    n = len(scores)
    m = math.ceil(Fraction(n + 1) * (Fraction(1) - Fraction(str(alpha))))
    if m > n:
        return math.inf, m
    return sorted(scores)[m - 1], m


def fit(
    cal_scores: Sequence[float],
    alpha: float,
    min_cal: int,
    group: tuple[str, str, str] = ("", "", ""),
) -> ConformalFit:
    """Calibrate q_hat from nonconformity scores; flag thin calibration sets.

    InsufficientData is raised by either route: fewer than min_cal points, or
    a quantile index beyond the sample (always the case when n < ceil((n+1)
    (1-alpha)) - 1, which for alpha=0.05 means any n below 19).
    """
    for s in cal_scores:
        if not math.isfinite(s) or s < 0.0:
            raise ConfigError(f"nonconformity scores must be finite and >= 0, got {s}")
    q_hat, m = conformal_quantile(cal_scores, alpha)
    n_cal = len(cal_scores)
    ok = n_cal >= min_cal and math.isfinite(q_hat)
    return ConformalFit(
        group=group,
        q_hat=q_hat,
        n_cal=n_cal,
        sufficiency=Sufficiency.OK if ok else Sufficiency.INSUFFICIENT,
        quantile_index=m,
    )


def apply(fit_result: ConformalFit, record: ScoredRecord) -> CalibratedRecord:
    """Expand one test record to value +/- q_hat * width.

    Uses the identical floored width as nonconformity (same score function on
    both sides of the split). Percent-kind intervals are clipped to [0, 100]
    after expansion. Records pass through unmodified when the fit is flagged.
    """
    t = record.triplet
    y = record.truth.value
    if fit_result.sufficiency != Sufficiency.OK:
        return CalibratedRecord(
            original=record,
            new_lower=t.lower,
            new_upper=t.upper,
            covered_after=interval_covers(t.lower, t.upper, y),
            calibrated=False,
        )
    half = fit_result.q_hat * floored_width(t)
    new_lower, new_upper = t.value - half, t.value + half
    if record.kind is TargetKind.PROPORTION:
        new_lower = max(0.0, new_lower)
        new_upper = min(100.0, new_upper)
    return CalibratedRecord(
        original=record,
        new_lower=new_lower,
        new_upper=new_upper,
        covered_after=interval_covers(new_lower, new_upper, y),
        calibrated=True,
    )


@dataclass(frozen=True)
class GroupCalibration:
    group: tuple[str, str, str]
    n_cal: int
    n_test: int
    q_hat: float
    coverage_before: float | None
    coverage_after: float | None
    flag: str
    flag_detail: str


def evaluate(fit_result: ConformalFit, calibrated_test: Sequence[CalibratedRecord]) -> GroupCalibration:
    """Before/after coverage on the test set; after is undefined for flagged fits."""
    before = coverage(
        (c.original.triplet.lower, c.original.triplet.upper, c.original.truth.value)
        for c in calibrated_test
    )
    if fit_result.sufficiency == Sufficiency.OK:
        after = coverage((c.new_lower, c.new_upper, c.original.truth.value) for c in calibrated_test)
    else:
        after = None
    return GroupCalibration(
        group=fit_result.group,
        n_cal=fit_result.n_cal,
        n_test=len(calibrated_test),
        q_hat=fit_result.q_hat,
        coverage_before=before,
        coverage_after=after,
        flag=fit_result.sufficiency,
        flag_detail=fit_result.flag_detail,
    )


@dataclass
class GroupResult:
    evaluation: GroupCalibration
    cal_records: list[ScoredRecord] = field(default_factory=list)
    test_records: list[CalibratedRecord] = field(default_factory=list)


def calibrate_groups(
    records: Sequence[ScoredRecord], config: ConformalConfig
) -> list[GroupResult]:
    """Run split/fit/apply/evaluate independently per (model, effort, dataset).

    Each group splits with a sub-seed derived from (seed, group key), so
    results do not depend on which other groups are present, and splits its
    records in (question_id, tools_enabled) order, so they do not depend on
    the order of the input rows either.
    """
    groups: dict[tuple[str, str, str], list[ScoredRecord]] = {}
    for record in records:
        key = (record.model_id, record.effort, record.dataset_id)
        groups.setdefault(key, []).append(record)
    results = []
    for key in sorted(groups):
        members = sorted(groups[key], key=lambda r: (r.question_id, r.tools_enabled))
        cal, test = split(members, config.cal_fraction, derive_seed(config.seed, *key))
        scores = [nonconformity(r.triplet, r.truth.value) for r in cal]
        fit_result = fit(scores, config.alpha, config.min_cal, group=key)
        calibrated = [apply(fit_result, r) for r in test]
        results.append(
            GroupResult(
                evaluation=evaluate(fit_result, calibrated),
                cal_records=cal,
                test_records=calibrated,
            )
        )
    return results
