"""Nonparametric significance tests.

The report stage uses `wilcoxon_signed_rank` and `rank_biserial`, in its
tool comparison. `spearman` and `bonferroni` wait for the effort and model
comparisons (ROADMAP items 4 and 9), and `chi2_sf` for the Friedman test
that those items plan, as their questions are matched; item 3's coverage
floor will invert `_betainc`.

All tests rank with midranks. Zero differences are dropped for the paired
tests. Tail probabilities need only the standard library: the chi-square
tail is the finite sum of Abramowitz & Stegun 26.4.4-26.4.5 (integer df),
the normal tail is erfc, and the Student-t tail is the regularized
incomplete beta function evaluated by its continued fraction (modified
Lentz, Numerical Recipes section 6.4). Each result carries a method note
naming the approximation.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .errors import InputError

EXACT_WILCOXON_MAX_N = 12


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    n: object  # int, or tuple of group sizes
    method_note: str


def chi2_sf(x: float, df: int) -> float:
    """Chi-square upper tail for integer df, as a finite sum (A&S 26.4.4-26.4.5).

    With h = x/2, Q(a + 1, h) = Q(a, h) + e^-h h^a / Gamma(a + 1); starting
    from Q(1, h) = e^-h (even df) or Q(1/2, h) = erfc(sqrt(h)) (odd df) gives
    a sum of df // 2 positive terms, each evaluated in log space.
    """
    if x <= 0:
        return 1.0
    h = x / 2.0
    log_h = math.log(h)
    offset = 0.5 * (df % 2)
    head = math.erfc(math.sqrt(h)) if df % 2 else 0.0
    return head + sum(
        math.exp((k + offset) * log_h - h - math.lgamma(k + offset + 1.0))
        for k in range(df // 2)
    )


def normal_sf(z: float) -> float:
    """Standard normal upper tail via erfc."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return h


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b), with y = 1 - x passed exactly."""
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(y)
    )
    # The fraction converges fast below the mean; above it, use I_x(a, b) = 1 - I_y(b, a).
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, y) / b


def t_sf(t: float, df: int) -> float:
    """Student-t upper tail: (1/2) I_x(df/2, 1/2) with x = df / (df + t^2)."""
    if t == 0:
        return 0.5
    tail = 0.5 * _betainc(df / 2.0, 0.5, df / (df + t * t), t * t / (df + t * t))
    return tail if t > 0 else 1.0 - tail


def midranks(values: Sequence[float]) -> list[float]:
    """Ranks 1..n with tied values sharing the average of their positions."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in order[i : j + 1]:
            ranks[k] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _tie_counts(values: Sequence[float]) -> list[int]:
    return [c for c in Counter(values).values() if c > 1]


def _wilcoxon_rank_sums(diffs: list[float]) -> tuple[float, float, list[float]]:
    ranks = midranks([abs(d) for d in diffs])
    w_plus = sum((r for r, d in zip(ranks, diffs) if d > 0), 0.0)
    w_minus = sum((r for r, d in zip(ranks, diffs) if d < 0), 0.0)
    return w_plus, w_minus, ranks


def _wilcoxon_exact_p(ranks: list[float], w: float) -> float:
    """P(W+ <= w) doubled, over all 2^n equiprobable sign assignments."""
    n = len(ranks)
    count = 0
    for mask in range(1 << n):
        total = 0.0
        for i in range(n):
            if mask >> i & 1:
                total += ranks[i]
        if total <= w + 1e-12:
            count += 1
    return min(1.0, 2.0 * count / (1 << n))


def wilcoxon_signed_rank(differences: Sequence[float]) -> TestResult:
    """Two-sided Wilcoxon signed-rank test on paired differences.

    Zeros are dropped. Exact enumeration for n <= 12; otherwise a normal
    approximation with continuity correction and tie-adjusted variance. The
    statistic is the smaller of the signed rank sums.
    """
    if len(differences) == 0:
        raise InputError("Wilcoxon needs at least one difference")
    diffs = [float(d) for d in differences if d != 0.0]
    n = len(diffs)
    if n == 0:
        return TestResult(0.0, 1.0, 0, "all differences zero")
    w_plus, w_minus, ranks = _wilcoxon_rank_sums(diffs)
    w = min(w_plus, w_minus)
    if n <= EXACT_WILCOXON_MAX_N:
        return TestResult(w, _wilcoxon_exact_p(ranks, w), n,
                          f"exact enumeration of sign assignments (n <= {EXACT_WILCOXON_MAX_N})")
    mean = n * (n + 1) / 4.0
    tie_term = sum(t**3 - t for t in _tie_counts([abs(d) for d in diffs])) / 48.0
    # The tie term is at most (n^3 - n)/48, so var >= n(n+1)^2/16 > 0.
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    z = (w - mean + 0.5) / math.sqrt(var)
    p = min(1.0, 2.0 * normal_sf(-z))
    return TestResult(w, p, n,
                      "normal approximation, continuity correction, tie-adjusted variance")


def _pearson(x: list[float], y: list[float]) -> float:
    x_mean = sum(x) / len(x)
    y_mean = sum(y) / len(y)
    xc = [v - x_mean for v in x]
    yc = [v - y_mean for v in y]
    denom = math.sqrt(sum(v * v for v in xc) * sum(v * v for v in yc))
    if denom == 0.0:
        raise InputError("correlation undefined for constant input")
    return sum(a * b for a, b in zip(xc, yc)) / denom


def spearman(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Spearman rank correlation; p from the t approximation with n-2 df."""
    if len(x) != len(y):
        raise InputError("x and y must have equal length")
    n = len(x)
    if n < 3:
        raise InputError("Spearman needs at least 3 pairs")
    rho = _pearson(midranks(x), midranks(y))
    rho = max(-1.0, min(1.0, rho))
    note = "t approximation (n-2 df) on midranks"
    if abs(rho) == 1.0:
        return TestResult(rho, 0.0, n, note)
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    return TestResult(rho, min(1.0, 2.0 * t_sf(abs(t), n - 2)), n, note)


def bonferroni(p_values: Sequence[float], m: int) -> list[float]:
    """Family-wise correction: min(1, m * p) elementwise."""
    if m < len(p_values) or m < 1:
        raise InputError(f"m={m} smaller than the number of comparisons")
    return [min(1.0, m * p) for p in p_values]


def rank_biserial(differences: Sequence[float]) -> float | None:
    """Paired effect size: (favorable - unfavorable rank sum) / total rank sum.

    None when every difference is zero: there is no rank sum to divide by.
    """
    diffs = [float(d) for d in differences if d != 0.0]
    if not diffs:
        return None
    w_plus, w_minus, ranks = _wilcoxon_rank_sums(diffs)
    return (w_plus - w_minus) / sum(ranks)
