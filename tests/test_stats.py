import math

import numpy as np
import pytest

from nkae import ParameterError, InapplicableTestError, shapiro_wilk, summarize, welch_t_test
from nkae import stats

# Reference W/p values computed with an independent trusted statistics stack
# and frozen before the implementation was written.
SW_FIXTURES = [
    (
        [0.117125, 0.173053, 0.103371, 0.155065, 0.12842, 0.098842, 0.112449,
         0.103914, 0.105669, 0.13749, 0.128759, 0.083031, 0.144226, 0.152809,
         0.112216, 0.133504, 0.049675, 0.105195, 0.037302, 0.110261],
        0.9469232714866721, 0.32278768342987385,
    ),
    (
        [0.532354, 0.446632, 0.385455, 0.42531, 0.291031, 0.319392, 0.852278,
         0.395333, 0.010331, 0.649228, 0.152444, 0.173441, 0.240528, 0.861426,
         0.701236, 0.799775, 0.77414, 0.55806, 0.90021, 0.341818],
        0.9574085561740804, 0.49346792146890217,
    ),
    (
        [0.00394, 0.001907, 0.012433, 0.01849, 0.002508, 0.026596, 0.006573,
         0.049162, 0.129255, 0.043371, 0.046656, 0.026812, 0.163922, 0.026863,
         0.055999, 0.020833, 0.013782, 0.115624, 0.051998, 0.103299],
        0.8294528032719382, 0.00245901673961622,
    ),
]

# (a, b, t, df, p) frozen from the same reference stack.
WELCH_FIXTURES = [
    (
        [0.23, 0.19, 0.31, 0.25, 0.28, 0.22, 0.27, 0.24],
        [0.30, 0.34, 0.29, 0.37, 0.33, 0.31],
        -4.162790697674415, 11.94548065376375, 0.0013288681460575707,
    ),
    (
        [1.2, 1.4, 1.1, 1.3, 1.6, 1.5, 1.2, 1.3, 1.4, 1.35],
        [1.25, 1.45, 1.15, 1.33, 1.62, 1.52, 1.22, 1.31, 1.42, 1.36],
        -0.4285156591295007, 17.967906345850373, 0.6733687873681617,
    ),
    (
        [5.1, 5.3, 4.9, 5.0, 5.2],
        [6.4, 6.1, 6.7, 6.3, 6.6, 6.2, 6.5],
        -12.035661297043177, 9.966101694915256, 2.933721612557144e-07,
    ),
]


def closed_form_welch(a, b):
    """The textbook formulas, evaluated independently of the library."""
    na, nb = len(a), len(b)
    ma, mb = sum(a) / na, sum(b) / nb
    va = sum((v - ma) ** 2 for v in a) / (na - 1)
    vb = sum((v - mb) ** 2 for v in b) / (nb - 1)
    se2 = va / na + vb / nb
    t = (ma - mb) / math.sqrt(se2)
    df = se2 ** 2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    return t, df


# --- summarize ------------------------------------------------------------------

def test_summarize_constant_sample():
    s = summarize([3.0, 3.0, 3.0])
    assert (s.mean, s.sd, s.min, s.max) == (3.0, 0.0, 3.0, 3.0)


def test_summarize_hand_case():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert s.mean == 2.5
    assert abs(s.sd - 1.2909944487358056) < 1e-15
    assert (s.min, s.max, s.count) == (1.0, 4.0, 4)


def test_summarize_single_sample():
    s = summarize([7.0])
    assert (s.mean, s.sd, s.count) == (7.0, 0.0, 1)


def test_summarize_empty_rejected():
    with pytest.raises(ParameterError):
        summarize([])


# --- Welch t ---------------------------------------------------------------------

def test_identical_samples_give_t_zero_p_one():
    a = [0.3, 0.5, 0.4, 0.45]
    report = welch_t_test(a, list(a))
    assert report.statistic == 0.0
    assert report.p_value == 1.0
    assert not report.significant


def test_spec_zeros_vs_ones_significant():
    report = welch_t_test([0.0] * 20, [1.0] * 19 + [0.9])
    assert report.p_value < 0.05
    assert report.significant


@pytest.mark.parametrize("a,b,t_ref,df_ref,p_ref", WELCH_FIXTURES)
def test_welch_matches_frozen_reference(a, b, t_ref, df_ref, p_ref):
    report = welch_t_test(a, b)
    assert abs(report.statistic - t_ref) < 1e-6
    assert abs(report.df - df_ref) < 1e-6
    assert abs(report.p_value - p_ref) < 1e-6


@pytest.mark.parametrize("a,b,_t,_df,_p", WELCH_FIXTURES)
def test_welch_matches_closed_forms(a, b, _t, _df, _p):
    t, df = closed_form_welch(a, b)
    report = welch_t_test(a, b)
    assert abs(report.statistic - t) < 1e-12
    assert abs(report.df - df) < 1e-12


def test_welch_antisymmetric_exactly():
    a = [0.1, 0.5, 0.3, 0.7, 0.2]
    b = [0.4, 0.6, 0.45]
    fwd = welch_t_test(a, b)
    rev = welch_t_test(b, a)
    assert fwd.statistic == -rev.statistic
    assert fwd.df == rev.df
    assert fwd.p_value == rev.p_value


def test_welch_shift_invariant():
    rng = np.random.default_rng(5)
    a = rng.normal(0.2, 0.05, 12).tolist()
    b = rng.normal(0.25, 0.08, 9).tolist()
    base = welch_t_test(a, b)
    shifted = welch_t_test([v + 3.0 for v in a], [v + 3.0 for v in b])
    assert abs(base.statistic - shifted.statistic) < 1e-9
    assert abs(base.p_value - shifted.p_value) < 1e-12


def test_welch_degenerate_samples_rejected():
    with pytest.raises(InapplicableTestError):
        welch_t_test([1.0], [1.0, 2.0])
    with pytest.raises(InapplicableTestError):
        welch_t_test([2.0, 2.0], [3.0, 3.0])


def test_one_constant_sample_is_fine():
    report = welch_t_test([1.0, 1.0, 1.0], [0.8, 1.3, 0.9])
    assert math.isfinite(report.statistic)
    assert 0.0 <= report.p_value <= 1.0


# --- Shapiro-Wilk -------------------------------------------------------------------

def test_shapiro_constant_sample_inapplicable():
    with pytest.raises(InapplicableTestError):
        shapiro_wilk([0.4] * 20)


@pytest.mark.parametrize("size", [2, 5001])
def test_shapiro_size_bounds(size):
    with pytest.raises(InapplicableTestError):
        shapiro_wilk(list(range(size)))


@pytest.mark.parametrize("sample,w_ref,p_ref", SW_FIXTURES)
def test_shapiro_matches_frozen_reference(sample, w_ref, p_ref):
    report = shapiro_wilk(sample)
    assert abs(report.statistic - w_ref) < 1e-3
    assert abs(report.p_value - p_ref) < 1e-3


def test_shapiro_rejects_bimodal_sample():
    report = shapiro_wilk([0.0] * 10 + [1.0] * 10)
    assert report.p_value < 0.05
    assert report.significant
    # frozen reference: W=0.6411192275791566, p=8.099750290870789e-06
    assert abs(report.statistic - 0.6411192275791566) < 1e-3
    assert abs(report.p_value - 8.099750290870789e-06) < 1e-3


def test_shapiro_w_in_unit_interval():
    rng = np.random.default_rng(9)
    for size in (3, 5, 8, 12, 50, 200):
        report = shapiro_wilk(rng.normal(size=size))
        assert 0.0 < report.statistic <= 1.0
        assert 0.0 <= report.p_value <= 1.0


def test_shapiro_three_point_symmetric_sample():
    report = shapiro_wilk([1.0, 2.0, 3.0])
    assert abs(report.statistic - 1.0) < 1e-12
    assert abs(report.p_value - 1.0) < 1e-12


def test_shapiro_accepts_gaussian_sample():
    sample = np.random.default_rng(123).normal(0.0, 1.0, 100)
    report = shapiro_wilk(sample)
    assert report.p_value > 0.05
    assert not report.significant


def test_report_flag_tracks_alpha():
    strong = welch_t_test([0.0] * 10, [1.0] * 9 + [0.95])
    assert strong.significant == (strong.p_value < 0.05)
    weak = welch_t_test([0.1, 0.2, 0.3], [0.12, 0.22, 0.29])
    assert weak.significant == (weak.p_value < 0.05)


# Exact bits of the continued fraction, recorded before its two Lentz steps
# were folded into one loop; the frozen references above pin only 1e-6 to
# 1e-10. The last two `_betainc` cases take the x > (a + 1) / (a + b + 2)
# branch, which evaluates the fraction at (b, a, 1 - x).
T_BITS = [
    ((2.0, 10.0), "0x1.2c98ee9420efbp-4"),
    ((-0.5, 3.7), "0x1.4a696ea01ae88p-1"),
    ((4.2, 57.3), "0x1.8b6dba42f16dfp-14"),
    ((0.001, 1.0), "0x1.ffac8e979e4f3p-1"),
    ((25.0, 2.0), "0x1.a26d2b6d6bdcfp-10"),
    ((3.1, 18.0), "0x1.94f7c523a49ecp-8"),
]
BETAINC_BITS = [
    ((0.5, 0.5, 0.3), "0x1.79ddc9edb550ap-2"),
    ((2.0, 3.0, 0.4), "0x1.0cb295e9e1b07p-1"),
    ((0.1, 50.0, 0.01), "0x1.e1e0533d886e7p-1"),
    ((10.0, 0.5, 0.9), "0x1.368f825cef218p-3"),
    ((120.0, 80.0, 0.62), "0x1.6e7fe907cf1bep-1"),
]


@pytest.mark.parametrize("args, expected", T_BITS)
def test_t_two_sided_p_keeps_its_bits(args, expected):
    assert stats._t_two_sided_p(*args).hex() == expected


@pytest.mark.parametrize("args, expected", BETAINC_BITS)
def test_betainc_keeps_its_bits(args, expected):
    assert stats._betainc(*args).hex() == expected
