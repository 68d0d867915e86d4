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
from random import Random
from typing import Iterable, Iterator, Sequence, TypeVar

from .corpus import TargetKind
from .errors import ConfigError
from .jsonlio import derive_seed
from .metrics import ScoreColumns, floored_width, interval_covers, rate

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


GROUP_FIELDS = ("model_id", "effort", "dataset_id")  # the keys of a calibrated row's group


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


def nonconformity(columns: ScoreColumns, i: int) -> float:
    """Row i's normalized residual |truth - value| / width, width floored as in scoring."""
    return abs(columns.truth[i] - columns.value[i]) / floored_width(
        columns.lower[i], columns.upper[i], columns.value[i])


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


def recalibrated(fit_result: GroupCalibration, columns: ScoreColumns, i: int
                 ) -> tuple[float, float]:
    """Row i's interval expanded to value +/- q_hat * width; unmodified when the fit is flagged.

    Uses the identical floored width as nonconformity (same score function on
    both sides of the split). Percent-kind intervals are clipped to [0, 100]
    after expansion.
    """
    value, lower, upper = columns.value[i], columns.lower[i], columns.upper[i]
    if fit_result.flag != "ok":
        return lower, upper
    half = fit_result.q_hat * floored_width(lower, upper, value)
    lower, upper = value - half, value + half
    if columns.kind[i] is TargetKind.PROPORTION:
        lower, upper = max(0.0, lower), min(100.0, upper)
    return lower, upper


def apply(fit_result: GroupCalibration, columns: ScoreColumns, i: int,
          group: dict[str, str] | None = None) -> CalibratedRecord:
    """Row i as a test-side row: its `recalibrated` interval and whether it covers the truth.

    `group` is the row's group field, shared by all rows of a group; by
    default it is built from the columns' key.
    """
    new_lower, new_upper = recalibrated(fit_result, columns, i)
    return CalibratedRecord(
        group=group or dict(zip(GROUP_FIELDS, columns.key)),
        question_id=columns.question_id[i],
        split="test",
        calibrated=fit_result.flag == "ok",
        new_lower=new_lower,
        new_upper=new_upper,
        covered_after=interval_covers(new_lower, new_upper, columns.truth[i]),
    )


def evaluate(fit_result: GroupCalibration, columns: ScoreColumns, test: Sequence[int]
             ) -> GroupCalibration:
    """The fit with its test-set size, the share of the test rows' stored
    `covered` bits, and the share whose `recalibrated` interval covers the
    truth; after is undefined when flagged."""
    return replace(
        fit_result,
        n_test=len(test),
        coverage_before=rate(columns.covered[i] for i in test),
        coverage_after=rate(interval_covers(*recalibrated(fit_result, columns, i), columns.truth[i])
                            for i in test) if fit_result.flag == "ok" else None,
    )


@dataclass(frozen=True)
class GroupResult:
    """One group's evaluated fit, and the rows of its split: row indices of `columns`."""
    evaluation: GroupCalibration
    columns: ScoreColumns
    cal: list[int]
    test: list[int]

    def rows(self) -> Iterator[CalibratedRecord]:
        """The group's calibrated.v1 rows, made as they are written: the
        calibration side first, then the test side."""
        group = dict(zip(GROUP_FIELDS, self.columns.key))
        for i in self.cal:
            yield CalibratedRecord(group=group, question_id=self.columns.question_id[i],
                                   split="cal", calibrated=False, new_lower=None,
                                   new_upper=None, covered_after=None)
        for i in self.test:
            yield apply(self.evaluation, self.columns, i, group)


def calibrate_groups(groups: Iterable[ScoreColumns], config: ConformalConfig
                     ) -> list[GroupResult]:
    """Run split/fit/evaluate independently per (model, effort, dataset) group
    that has valid rows, in key order.

    Each group splits with a sub-seed derived from (seed, group key), so
    results do not depend on which other groups are present, and splits its
    rows in (question_id, tools_enabled) order, so they do not depend on the
    order of the input rows either. That order is total only if no
    (question_id, tools_enabled) appears twice in a group, which
    `report.split_rows` ensures when it reads a score file.
    """
    results = []
    for columns in sorted((g for g in groups if len(g)), key=lambda g: g.key):
        order = sorted(range(len(columns)),
                       key=lambda i: (columns.question_id[i], columns.tools_enabled[i]))
        cal, test = split(order, config.cal_fraction, derive_seed(config.seed, *columns.key))
        fit_result = fit([nonconformity(columns, i) for i in cal], config.alpha, config.min_cal,
                         group=columns.key)
        results.append(GroupResult(evaluate(fit_result, columns, test), columns, cal, test))
    return results
