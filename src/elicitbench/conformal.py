"""Split conformal recalibration of elicited intervals, per group.

Scores are normalized residuals s = |truth - value| / width. The calibrated
quantile is the ceil((n+1)(1-alpha))-th smallest calibration score; when that
index exceeds n the quantile is infinite and the group is flagged. Test
intervals become value +/- q_hat * width, clipped to [0, 100] for
percent-kind questions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import pairwise
from random import Random
from typing import Sequence, TypeVar

from .corpus import TargetKind
from .errors import ConfigError, SchemaError
from .extraction import Triplet
from .jsonlio import derive_seed
from .metrics import ScoredRecord, floored_width, group_by, interval_covers, rate

T = TypeVar("T")


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
class GroupCalibration:
    """One group's fit, and once evaluated, its test-set size and coverages.

    The fields are the columns of the calibration fits table, in order.
    flag is "ok" or "insufficient_data"; q_hat is math.inf when the quantile
    index exceeds n_cal.
    """
    model: str
    effort: str
    dataset: str
    n_cal: int
    n_test: int
    q_hat: float
    coverage_before: float | None
    coverage_after: float | None
    flag: str
    flag_detail: str


@dataclass(frozen=True)
class CalibratedRecord:
    """One calibrated.v1 row. A calibration-side row has no new interval."""
    group: dict[str, str]  # model_id, effort, dataset_id
    question_id: str
    split: str  # "cal" or "test"
    calibrated: bool  # False when the record passed through unmodified
    new_lower: float | None
    new_upper: float | None
    covered_after: bool | None


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
) -> GroupCalibration:
    """Calibrate q_hat from nonconformity scores; flag thin calibration sets.

    A group is flagged by either route: fewer than min_cal points, or a
    quantile index beyond the sample (always the case when n < ceil((n+1)
    (1-alpha)) - 1, which for alpha=0.05 means any n below 19). The test-set
    size and coverages are left for `evaluate`.
    """
    for s in cal_scores:
        if not math.isfinite(s) or s < 0.0:
            raise ConfigError(f"nonconformity scores must be finite and >= 0, got {s}")
    q_hat, _ = conformal_quantile(cal_scores, alpha)
    n_cal = len(cal_scores)
    if n_cal >= min_cal and math.isfinite(q_hat):
        detail = ""
    elif n_cal == 0:
        detail = "empty_calibration_set"
    elif math.isinf(q_hat):
        detail = "quantile_index_exceeds_n_cal"
    else:
        detail = "n_cal_below_minimum"
    return GroupCalibration(*group, n_cal=n_cal, n_test=0, q_hat=q_hat,
                            coverage_before=None, coverage_after=None,
                            flag="insufficient_data" if detail else "ok", flag_detail=detail)


def apply(
    fit_result: GroupCalibration, record: ScoredRecord, group: dict[str, str] | None = None
) -> CalibratedRecord:
    """Expand one test record to value +/- q_hat * width.

    Uses the identical floored width as nonconformity (same score function on
    both sides of the split). Percent-kind intervals are clipped to [0, 100]
    after expansion. Records pass through unmodified when the fit is flagged.
    `group` is the row's group field, shared by all rows of a group; by
    default it is built from the record.
    """
    t = record.triplet
    new_lower, new_upper = t.lower, t.upper
    calibrated = fit_result.flag == "ok"
    if calibrated:
        half = fit_result.q_hat * floored_width(t)
        new_lower, new_upper = t.value - half, t.value + half
        if record.kind is TargetKind.PROPORTION:
            new_lower = max(0.0, new_lower)
            new_upper = min(100.0, new_upper)
    return CalibratedRecord(
        group=group or {"model_id": record.model_id, "effort": record.effort,
                        "dataset_id": record.dataset_id},
        question_id=record.question_id,
        split="test",
        calibrated=calibrated,
        new_lower=new_lower,
        new_upper=new_upper,
        covered_after=interval_covers(new_lower, new_upper, record.truth.value),
    )


def evaluate(
    fit_result: GroupCalibration,
    test: Sequence[ScoredRecord],
    calibrated_test: Sequence[CalibratedRecord],
) -> GroupCalibration:
    """The fit with its test-set size and the shares of stored `covered` and
    `covered_after` bits on the test side; after is undefined when flagged."""
    return replace(
        fit_result,
        n_test=len(test),
        coverage_before=rate(r.covered for r in test),
        coverage_after=rate(c.covered_after for c in calibrated_test)
        if fit_result.flag == "ok" else None,
    )


@dataclass(frozen=True)
class GroupResult:
    evaluation: GroupCalibration
    rows: list[CalibratedRecord]  # the calibration side first, then the test side


def calibrate_groups(
    records: Sequence[ScoredRecord], config: ConformalConfig
) -> list[GroupResult]:
    """Run split/fit/apply/evaluate independently per (model, effort, dataset).

    Each group splits with a sub-seed derived from (seed, group key), so
    results do not depend on which other groups are present, and splits its
    records in (question_id, tools_enabled) order, so they do not depend on
    the order of the input rows either. A (question_id, tools_enabled) that
    appears twice in a group would make them depend on it, so it raises
    SchemaError.
    """
    groups = group_by(records, lambda r: (r.model_id, r.effort, r.dataset_id))
    results = []
    for key in sorted(groups):
        members = sorted(groups[key], key=lambda r: (r.question_id, r.tools_enabled))
        for a, b in pairwise(members):
            if (a.question_id, a.tools_enabled) == (b.question_id, b.tools_enabled):
                raise SchemaError(f"scores hold question {a.question_id} twice for model "
                                  f"{key[0]}, effort {key[1]}, tools_enabled {a.tools_enabled}")
        cal, test = split(members, config.cal_fraction, derive_seed(config.seed, *key))
        scores = [nonconformity(r.triplet, r.truth.value) for r in cal]
        fit_result = fit(scores, config.alpha, config.min_cal, group=key)
        group = dict(zip(("model_id", "effort", "dataset_id"), key))
        calibrated = [apply(fit_result, r, group) for r in test]
        cal_rows = [
            CalibratedRecord(group=group, question_id=r.question_id, split="cal",
                             calibrated=False, new_lower=None, new_upper=None, covered_after=None)
            for r in cal
        ]
        results.append(GroupResult(evaluate(fit_result, test, calibrated), cal_rows + calibrated))
    return results
