"""The scalar power-mean kernel: one pair at one exponent, every check and
branch taken per call.  It is the reference the package's row kernel
(`meansombor.indices.power_mean`, `power_mean_grid`) is compared against bit
for bit: the row does each pair's own work once and must round every cell as
this function does.
"""

import math

from meansombor.indices import Alpha


def _geometric_mean(x: float, y: float) -> float:
    """sqrt(xy), factored where the product would leave the normal range."""
    p = x * y
    return math.sqrt(p) if 1e-300 < p < 1e300 else math.sqrt(x) * math.sqrt(y)


def power_mean(x: float, y: float, a: Alpha) -> float:
    """Power mean of two positive reals at an extended exponent.

    a = 0 gives the geometric mean, -inf the minimum and +inf the maximum.
    Other exponents use the max-factored form
    ``base * ((1 + t^a)/2)^(1/a)`` with t in (0, 1], which cannot overflow
    however large |a| gets; equal arguments short-circuit to the common
    value so regular graphs evaluate exactly and identically at every a.
    For |a| < 1, where 1 + t^a rounds to 2 as a -> 0, it is evaluated as
    ``sqrt(xy) * exp(log1p(2 sinh(a ln(hi/lo)/4)^2)/a)``, from
    (x^a + y^a)/2 = (xy)^(a/2) cosh(a ln(x/y)/2): accurate to a few ulps,
    and the factor on the geometric mean is >= 1 for a > 0 and <= 1 for
    a < 0, so PM_{-a} <= GM <= PM_a holds exactly (subnormal a gives GM).
    ln(hi/lo) is taken as ln(hi) - ln(lo) only where hi/lo overflows.  Past
    |a ln(hi/lo)| = 37 (degrees up to 4,096 stay below 9), 1 + t^a rounds to 1,
    so the direct form cancels nothing; it is used there, where the cosh
    factor can pass exp(709).
    """
    if x <= 0.0 or y <= 0.0:
        raise ValueError(f"power mean needs positive arguments, got ({x}, {y})")
    if a == 0.0:
        return _geometric_mean(x, y)
    if math.isinf(a):
        return float(max(x, y) if a > 0 else min(x, y))
    if x == y:
        return float(x)
    alpha = float(a)
    hi, lo = (x, y) if x > y else (y, x)
    if -1.0 < alpha < 1.0:
        r = hi / lo
        z = alpha * (math.log(r) if r < math.inf else math.log(hi) - math.log(lo))
        if abs(z) < 37.0:
            u = math.sinh(z / 4.0)
            return _geometric_mean(x, y) * math.exp(math.log1p(2.0 * u * u) / alpha)
    if alpha > 0:
        base, t = hi, lo / hi
    else:
        base, t = lo, hi / lo
    return base * ((1.0 + t**alpha) / 2.0) ** (1.0 / alpha)
