import math

import pytest
from scipy import special, stats as scipy_stats

from qicd import (
    summarize,
    summarize_moments,
    welch_from_moments,
    welch_t_test,
)

# Published twelve-method evaluation used as reference input for the
# statistics layer: (label, runs, mean, std, ci_low, ci_high, p_vs_baseline).
REFERENCE_ROWS = [
    ("ldn-haar", 6, 0.1816, 0.0171, 0.1636, 0.1996, 0.0026),
    ("ldn-haar-hu", 6, 0.1745, 0.0165, 0.1572, 0.1918, 0.0052),
    ("ldn-hu", 6, 0.1718, 0.0195, 0.1514, 0.1923, 0.0147),
    ("ldn-pt", 6, 0.1698, 0.0126, 0.1566, 0.1830, 0.0032),
    ("ldn-pt-hu", 6, 0.1605, 0.0114, 0.1486, 0.1724, 0.0120),
    ("leiden-base", 6, 0.1428, 0.0011, 0.1416, 0.1439, None),
    ("lvn-pt", 6, 0.1435, 0.0089, 0.1341, 0.1529, 0.8564),
    ("louvain-base", 12, 0.1421, 0.0016, 0.1411, 0.1432, 0.3403),
    ("lvn-haar", 6, 0.1331, 0.0180, 0.1142, 0.1520, 0.2440),
    ("lvn-haar-hu", 6, 0.1287, 0.0152, 0.1128, 0.1446, 0.0723),
    ("lvn-pt-hu", 6, 0.1275, 0.0099, 0.1171, 0.1379, 0.0126),
    ("lvn-hu", 6, 0.1265, 0.0098, 0.1162, 0.1369, 0.0096),
]
BASELINE_ROW = ("leiden-base", 6, 0.1428, 0.0011)


def test_incomplete_beta_matches_scipy():
    # A Welch p-value is I_x(df/2, 1/2) at x = df / (df + t^2).
    for n in (2, 3, 6, 25, 200):
        for gap in (0.0, 1e-4, 0.01, 0.05, 0.2, 1.0):
            r = welch_from_moments(0.5 + gap, 0.05, n, 0.5, 0.02, n + 1)
            x = r.df / (r.df + r.t * r.t)
            assert abs(r.p - float(special.betainc(0.5 * r.df, 0.5, x))) < 1e-10, (n, gap)


def test_t_sf_matches_scipy():
    # The Welch p-value is the two-sided Student-t tail at (t, df), which is
    # evaluated through the regularized incomplete beta.
    for mean_a, std_a, n_a in ((0.1816, 0.0171, 6), (0.30, 0.2, 2), (5.0, 3.0, 40), (0.1265, 0.0098, 6)):
        for mean_b, std_b, n_b in ((0.1428, 0.0011, 6), (0.29, 0.05, 3), (0.1, 1.5, 12), (0.1816, 0.0171, 6)):
            ours = welch_from_moments(mean_a, std_a, n_a, mean_b, std_b, n_b)
            ref = scipy_stats.ttest_ind_from_stats(mean_a, std_a, n_a, mean_b, std_b, n_b, equal_var=False)
            assert abs(ours.t - float(ref.statistic)) < 1e-10
            assert abs(ours.p - float(ref.pvalue)) < 1e-10


def test_t_ppf_matches_scipy():
    # The 95% bounds are mean -/+ ppf(0.975, n - 1) * std / sqrt(n).
    for n in (2, 3, 6, 12, 101):
        s = summarize_moments(0.25, 0.04, n)
        half = float(scipy_stats.t.ppf(0.975, n - 1)) * 0.04 / math.sqrt(n)
        assert abs(s.ci_low - (0.25 - half)) < 1e-10
        assert abs(s.ci_high - (0.25 + half)) < 1e-10


def test_summarize_example_rows():
    for _label, n, mean, std, lo, hi, _p in REFERENCE_ROWS:
        s = summarize_moments(mean, std, n)
        assert abs(s.ci_low - lo) <= 5e-4
        assert abs(s.ci_high - hi) <= 5e-4
        assert s.ci_low <= s.mean <= s.ci_high


def test_summarize_zero_variance():
    s = summarize([0.25, 0.25, 0.25])
    assert s.std == 0.0
    assert s.ci_low == s.ci_high == 0.25


def test_summarize_requires_two_values():
    with pytest.raises(ValueError):
        summarize([1.0])
    with pytest.raises(ValueError):
        summarize_moments(0.0, 1.0, 1)


def test_summarize_matches_moment_form():
    values = [0.12, 0.18, 0.15, 0.11, 0.22]
    n = len(values)
    mean = sum(values) / n
    std = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
    a = summarize(values)
    b = summarize_moments(mean, std, n)
    assert abs(a.ci_low - b.ci_low) < 1e-12
    assert abs(a.ci_high - b.ci_high) < 1e-12


def test_welch_headline_pair():
    # strongest refinement vs the baseline: t ~ 5.55, df ~ 5.04, p ~ 0.0026
    r = welch_from_moments(0.1816, 0.0171, 6, 0.1428, 0.0011, 6)
    assert abs(r.t - 5.5465) < 5e-3
    assert abs(r.df - 5.042) < 5e-2
    assert abs(r.p - 0.0026) <= 5e-4


def test_welch_identical_samples():
    r = welch_t_test([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
    assert r.t == 0.0
    assert r.p == 1.0


def test_welch_noise_row():
    r = welch_from_moments(0.1265, 0.0098, 6, 0.1428, 0.0011, 6)
    assert abs(r.p - 0.0096) <= 1e-3


def test_welch_zero_variance_cases():
    equal = welch_from_moments(0.5, 0.0, 3, 0.5, 0.0, 3)
    assert equal.p == 1.0
    unequal = welch_from_moments(0.6, 0.0, 3, 0.5, 0.0, 3)
    assert unequal.p == 0.0
    assert math.isinf(unequal.t)


def test_welch_requires_two_per_sample():
    with pytest.raises(ValueError):
        welch_from_moments(0.1, 0.01, 1, 0.2, 0.01, 6)


def test_welch_matches_scipy_from_samples():
    a = [0.12, 0.15, 0.13, 0.18, 0.16, 0.14]
    b = [0.11, 0.12, 0.115, 0.118, 0.121, 0.112]
    ours = welch_t_test(a, b)
    ref = scipy_stats.ttest_ind(a, b, equal_var=False)
    assert abs(ours.t - float(ref.statistic)) < 1e-10
    assert abs(ours.p - float(ref.pvalue)) < 1e-10
