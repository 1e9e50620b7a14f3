"""Sample summaries, Student-t machinery, and Welch's two-sample test.

The Student-t tail and quantile are evaluated through the regularized
incomplete beta function (continued-fraction form), accurate to well below
1e-8 absolute, so confidence intervals and p-values carry four stable
decimals without an external stats dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

_TINY = 1e-300
_CF_EPS = 3e-16
_CF_MAX_ITER = 500


@dataclass(frozen=True)
class StatsSummary:
    mean: float
    std: float  # sample standard deviation (n-1 denominator)
    n: int
    ci_low: float
    ci_high: float  # 95% Student-t interval


@dataclass(frozen=True)
class WelchResult:
    t: float
    df: float  # Welch-Satterthwaite degrees of freedom
    p: float  # two-sided


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # Modified Lentz evaluation of the continued fraction for I_x(a, b).
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            step = d * c
            h *= step
        if abs(step - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def _incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    # Use the continued fraction on whichever side converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def _t_two_sided_p(t: float, df: float) -> float:
    """P(|T_df| >= |t|) = I_x(df/2, 1/2) with x = df / (df + t^2)."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if math.isinf(t):
        return 0.0
    x = df / (df + t * t)
    p = _incomplete_beta(0.5 * df, 0.5, x)
    return min(1.0, max(0.0, p))


def _t_ppf(q: float, df: float) -> float:
    """Quantile q >= 0.5 of the Student-t distribution by bisection on the CDF."""

    def cdf(t: float) -> float:  # for t >= 0, the only values bisected
        return 1.0 - 0.5 * _t_two_sided_p(t, df)

    lo, hi = 0.0, 1.0
    while cdf(hi) < q:
        hi *= 2.0
        if hi > 1e12:
            raise ArithmeticError("t quantile bracket exploded")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def summarize_moments(mean: float, std: float, n: int) -> StatsSummary:
    """Mean, sample std, and 95% Student-t confidence interval from moments."""
    if n < 2:
        raise ValueError("at least 2 observations are required")
    if std < 0:
        raise ValueError("std must be non-negative")
    half = _t_ppf(0.975, n - 1) * std / math.sqrt(n)
    return StatsSummary(mean, std, n, mean - half, mean + half)


def summarize(sample: Sequence[float]) -> StatsSummary:
    """Summary of a sequence of values."""
    values = [float(v) for v in sample]
    n = len(values)
    if n < 2:
        raise ValueError("at least 2 observations are required")
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return summarize_moments(mean, math.sqrt(var), n)


def welch_from_moments(
    mean_a: float,
    std_a: float,
    n_a: int,
    mean_b: float,
    std_b: float,
    n_b: int,
) -> WelchResult:
    """Welch's two-sample t-test from per-sample moments.

    t = (mean_a - mean_b) / sqrt(s_a^2/n_a + s_b^2/n_b), df by
    Welch-Satterthwaite, two-sided p from the Student-t distribution. With
    zero pooled variance the test degenerates: p = 1 for equal means, 0
    otherwise.
    """
    if n_a < 2 or n_b < 2:
        raise ValueError("each sample needs at least 2 observations")
    var_a = std_a * std_a / n_a
    var_b = std_b * std_b / n_b
    pooled = var_a + var_b
    df_fallback = float(n_a + n_b - 2)
    if pooled == 0.0:
        if mean_a == mean_b:
            return WelchResult(0.0, df_fallback, 1.0)
        return WelchResult(math.copysign(math.inf, mean_a - mean_b), df_fallback, 0.0)
    t = (mean_a - mean_b) / math.sqrt(pooled)
    df = pooled * pooled / (var_a * var_a / (n_a - 1) + var_b * var_b / (n_b - 1))
    return WelchResult(t, df, _t_two_sided_p(t, df))


def welch_t_test(sample_a: Sequence[float], sample_b: Sequence[float]) -> WelchResult:
    """Welch's test between two sequences of values."""
    a = summarize(sample_a)
    b = summarize(sample_b)
    return welch_from_moments(a.mean, a.std, a.n, b.mean, b.std, b.n)
