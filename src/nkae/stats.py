"""Summary statistics, Shapiro-Wilk normality test, and Welch's two-sample t-test.

Everything is implemented with numpy and the standard library alone, so
results do not depend on an external statistics stack: the normal quantiles
behind the Shapiro-Wilk weights come from `statistics.NormalDist`, the
normal tail from erfc, and the t CDF uses the regularized incomplete beta
evaluated by a modified-Lentz continued fraction (absolute error well below
1e-10). The Shapiro-Wilk W statistic and p-value follow Royston's
approximation for sample sizes 3..5000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, InapplicableTestError

ALPHA = 0.05

_SQRT2 = math.sqrt(2.0)


@dataclass
class SummaryStats:
    count: int
    mean: float
    sd: float
    min: float
    max: float


@dataclass
class TestReport:
    """Outcome of a hypothesis test at the fixed alpha = 0.05 level."""

    statistic: float
    df: float | None
    p_value: float
    significant: bool


def summarize(samples) -> SummaryStats:
    """Mean, unbiased sd (0 for a single value), min and max."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        raise ParameterError("summarize requires at least one sample")
    sd = 0.0 if x.size == 1 else float(np.sqrt(np.sum((x - x.mean()) ** 2) / (x.size - 1)))
    return SummaryStats(int(x.size), float(x.mean()), sd, float(x.min()), float(x.max()))


# --- numeric primitives -----------------------------------------------------

def _norm_sf(z: float) -> float:
    """Upper tail of the standard normal, from erfc: `NormalDist.cdf` computes
    1 + erf, which loses small tails."""
    return 0.5 * math.erfc(z / _SQRT2)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    MAXIT, EPS, FPMIN = 300, 1e-15, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < FPMIN:
        d = FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, MAXIT + 1):
        m2 = 2 * m
        # the even step, then the odd one, whose size decides convergence
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < FPMIN:
                d = FPMIN
            c = 1.0 + aa / c
            if abs(c) < FPMIN:
                c = FPMIN
            d = 1.0 / d
            step = d * c
            h *= step
        if abs(step - 1.0) < EPS:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_bt = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def _t_two_sided_p(t: float, df: float) -> float:
    """P(|T_df| >= |t|) via I_x(df/2, 1/2) with x = df/(df + t^2)."""
    p = _betainc(0.5 * df, 0.5, df / (df + t * t))
    return min(max(p, 0.0), 1.0)


# --- tests --------------------------------------------------------------------

def welch_t_test(a, b) -> TestReport:
    """Welch's two-sample t-test: unequal variances, Welch-Satterthwaite df."""
    xa = np.asarray(a, dtype=np.float64)
    xb = np.asarray(b, dtype=np.float64)
    na, nb = xa.size, xb.size
    if na < 2 or nb < 2:
        raise InapplicableTestError(f"each sample needs >= 2 values, got {na} and {nb}")
    ma, mb = float(xa.mean()), float(xb.mean())
    va = float(np.sum((xa - ma) ** 2)) / (na - 1)
    vb = float(np.sum((xb - mb) ** 2)) / (nb - 1)
    if va == 0.0 and vb == 0.0:
        raise InapplicableTestError("both samples have zero variance")
    se = math.sqrt(va / na + vb / nb)
    df = (va / na + vb / nb) ** 2 / (
        (va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1)
    )
    t = (ma - mb) / se
    p = _t_two_sided_p(t, df)
    return TestReport(t, df, p, p < ALPHA)


def shapiro_wilk(samples) -> TestReport:
    """Shapiro-Wilk W and approximate p for sample sizes 3..5000.

    Weights use Blom scores normalized with the usual polynomial corrections
    to the two extreme coefficients; the p-value comes from the size-dependent
    normalizing transformation of W.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))
    m = int(x.size)
    if not 3 <= m <= 5000:
        raise InapplicableTestError(f"sample size must lie in [3, 5000], got {m}")
    if x[0] == x[-1]:
        raise InapplicableTestError("sample is constant; normality test is undefined")

    if m == 3:
        a = np.array([-math.sqrt(0.5), 0.0, math.sqrt(0.5)])
    else:
        # imported here: `statistics` pulls in `fractions` and `decimal`, which
        # would add several ms to `import nkae`
        from statistics import NormalDist

        ppf = NormalDist().inv_cdf
        scores = np.array([ppf((i - 0.375) / (m + 0.25)) for i in range(1, m + 1)])
        ssq = float(scores @ scores)
        u = 1.0 / math.sqrt(m)
        c_top = scores[-1] / math.sqrt(ssq) + u * (
            0.221157 + u * (-0.147981 + u * (-2.071190 + u * (4.434685 + u * -2.706056)))
        )
        if m > 5:
            c_next = scores[-2] / math.sqrt(ssq) + u * (
                0.042981 + u * (-0.293762 + u * (-1.752461 + u * (5.682633 + u * -3.582633)))
            )
            phi = (ssq - 2.0 * scores[-1] ** 2 - 2.0 * scores[-2] ** 2) / (
                1.0 - 2.0 * c_top ** 2 - 2.0 * c_next ** 2
            )
            a = scores / math.sqrt(phi)
            a[-1], a[-2], a[0], a[1] = c_top, c_next, -c_top, -c_next
        else:
            phi = (ssq - 2.0 * scores[-1] ** 2) / (1.0 - 2.0 * c_top ** 2)
            a = scores / math.sqrt(phi)
            a[-1], a[0] = c_top, -c_top

    num = float(a @ x) ** 2
    den = float(np.sum((x - x.mean()) ** 2))
    w = min(num / den, 1.0)

    if m == 3:
        p = (6.0 / math.pi) * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        p = min(max(p, 0.0), 1.0)
    elif m <= 11:
        g = -2.273 + 0.459 * m
        arg = g - math.log1p(-w)
        if arg <= 0.0:
            p = 0.0
        else:
            wt = -math.log(arg)
            mu = 0.5440 + m * (-0.39978 + m * (0.025054 + m * -0.0006714))
            sigma = math.exp(1.3822 + m * (-0.77857 + m * (0.062767 + m * -0.0020322)))
            p = _norm_sf((wt - mu) / sigma)
    else:
        ln = math.log(m)
        wt = math.log1p(-w)
        mu = -1.5861 + ln * (-0.31082 + ln * (-0.083751 + ln * 0.0038915))
        sigma = math.exp(-0.4803 + ln * (-0.082676 + ln * 0.0030302))
        p = _norm_sf((wt - mu) / sigma)

    return TestReport(w, None, min(max(p, 0.0), 1.0), p < ALPHA)


def outcome(test, *samples) -> dict:
    """The fields of `test(*samples)`'s report, or {"error": reason} where the test does not apply."""
    try:
        return vars(test(*samples))
    except InapplicableTestError as exc:
        return {"error": str(exc)}
