"""Power-mean kernel over the extended exponent line and the edge-sum index
family built on it.

The central object is the two-argument power mean
``PM_a(x, y) = ((x^a + y^a)/2)^(1/a)`` extended continuously to every a in
[-inf, inf]: the geometric mean at a = 0, the minimum at -inf and the
maximum at +inf.  An exponent is a point of that line, and 0 and +-inf are
the limit points.  Summing PM over the endpoint degrees of every edge
gives the mean Sombor index; fixing the exponent recovers a family of
classical degree-based indices (inverse sum indeg, reciprocal Randic,
first Zagreb, Sombor, the (a,b)-KA family, and the min/max edge sums).
:data:`SPECIAL_VALUES` is the paper's Table 2, the one list of those
exponents with the classical expression mSO equals there; the CLI's
`compute` prints it, and the bound battery's special-value chain orders its
rows from -1 to 2.  Every edge sum reads the graph's degree-pair profile
through :func:`pair_sum`, or through :class:`ProfileSums` for many graphs at
once, whose `power_means`/`mso` evaluate the bounds', spectral and QSPR exponents.
"""

from __future__ import annotations

import math
import operator
from decimal import Decimal
from itertools import accumulate, chain, repeat, starmap
from typing import Callable, Iterable, Sequence

import numpy as np

from .graphs import Graph


# Significant digits of a finite exponent's token.
TOKEN_DIGITS = 10


class Alpha(float):
    """Exponent of the power mean: a point of the extended real line
    [-inf, inf].

    0 and +-inf are the limit points (geometric mean, minimum, maximum);
    every other value is an ordinary finite exponent.  NaN is rejected.
    Ordering, equality and hashing are the float's.
    """

    __slots__ = ()

    def __new__(cls, x: float | str) -> "Alpha":
        self = super().__new__(cls, x)
        if math.isnan(self):
            raise ValueError("alpha must not be NaN")
        return self

    @staticmethod
    def finite(x: float) -> "Alpha":
        """A nonzero finite exponent; the limit points are rejected."""
        a = Alpha(x)
        if not a.is_finite:
            raise ValueError("finite alpha must be a nonzero finite real")
        return a

    @property
    def value(self) -> float:
        return float(self)

    @property
    def is_finite(self) -> bool:
        """True for a nonzero finite exponent, False at the limit points."""
        return self != 0.0 and math.isfinite(self)

    def token(self) -> str:
        """Stable text form: '0-limit', '+inf', '-inf', or the decimal."""
        if self == 0.0:
            return "0-limit"
        if math.isinf(self):
            return "+inf" if self > 0 else "-inf"
        return format(self, f".{TOKEN_DIGITS}g")

    def __str__(self) -> str:
        return self.token()


ZERO_LIMIT = Alpha(0.0)
ALPHA_PLUS_INF = Alpha(math.inf)
ALPHA_MINUS_INF = Alpha(-math.inf)


def parse_alpha(token: str) -> Alpha:
    """Parse the command-line spelling of an exponent.

    '0' is reserved for the zero-limit, 'inf'/'+inf' and '-inf' for the
    extremes; any other token must be a nonzero decimal whose float is
    finite and nonzero (a nonzero decimal below the smallest subnormal is
    rejected as such, not as a zero).
    """
    t = token.strip()
    if t == "0":
        return ZERO_LIMIT
    if t in ("inf", "+inf"):
        return ALPHA_PLUS_INF
    if t == "-inf":
        return ALPHA_MINUS_INF
    try:
        a = Alpha(t)
    except ValueError:  # not a decimal, or NaN
        raise ValueError(f"cannot parse alpha {token!r}")
    if a == 0.0:
        if Decimal(t) != 0:
            raise ValueError(
                f"alpha {token!r} is below the smallest representable exponent "
                f"({math.ulp(0.0)!r} in magnitude)"
            )
        raise ValueError("use the literal '0' for the zero-limit exponent")
    if math.isinf(a):
        raise ValueError("use 'inf'/'-inf' for the limit exponents")
    return a


def _power_mean_row(x: float, y: float, alphas: Iterable[float]) -> list[float]:
    """The kernel: the power mean of one pair of positive reals at each
    exponent of the extended line.

    The pair's own work is done once: the positivity check, the geometric
    mean, the ordered pair hi >= lo with lo/hi and hi/lo, and ln(hi/lo),
    taken as ln(hi) - ln(lo) only where hi/lo overflows.  Equal arguments
    short-circuit to the common value (the geometric mean at a = 0), so
    regular graphs evaluate exactly and identically at every a.

    Per exponent: a = 0 gives the geometric mean, -inf the minimum and +inf
    the maximum.  Other exponents use the max-factored form
    ``base * ((1 + t^a)/2)^(1/a)`` with t in (0, 1], which cannot overflow
    however large |a| gets.  For |a| < 1, where 1 + t^a rounds to 2 as
    a -> 0, it is evaluated as
    ``sqrt(xy) * exp(log1p(2 sinh(a ln(hi/lo)/4)^2)/a)``, from
    (x^a + y^a)/2 = (xy)^(a/2) cosh(a ln(x/y)/2): accurate to a few ulps,
    and the factor on the geometric mean is >= 1 for a > 0 and <= 1 for
    a < 0, so PM_{-a} <= GM <= PM_a holds exactly (subnormal a gives GM).
    Past |a ln(hi/lo)| = 37 (degrees up to 4,096 stay below 9), 1 + t^a
    rounds to 1, so the direct form cancels nothing; it is used there, where
    the cosh factor can pass exp(709).
    """
    if x <= 0.0 or y <= 0.0:
        raise ValueError(f"power mean needs positive arguments, got ({x}, {y})")
    p = x * y  # sqrt(xy), factored where the product leaves the normal range
    gm = math.sqrt(p) if 1e-300 < p < 1e300 else math.sqrt(x) * math.sqrt(y)
    if x == y:
        return [gm if a == 0.0 else float(x) for a in alphas]
    hi, lo = (x, y) if x > y else (y, x)
    t, r = lo / hi, hi / lo
    ln_r = math.log(r) if r < math.inf else math.log(hi) - math.log(lo)
    row = []
    for a in alphas:
        if a == 0.0:
            v = gm
        elif math.isinf(a):
            v = float(max(x, y) if a > 0 else min(x, y))
        else:
            alpha = float(a)
            z = alpha * ln_r
            if -1.0 < alpha < 1.0 and abs(z) < 37.0:
                u = math.sinh(z / 4.0)
                v = gm * math.exp(math.log1p(2.0 * u * u) / alpha)
            elif alpha > 0:
                v = hi * ((1.0 + t**alpha) / 2.0) ** (1.0 / alpha)
            else:
                v = lo * ((1.0 + r**alpha) / 2.0) ** (1.0 / alpha)
        row.append(v)
    return row


def power_mean(x: float, y: float, a: Alpha) -> float:
    """Power mean of two positive reals at an extended exponent: the
    kernel's row (:func:`_power_mean_row`, which sets out the forms) at the
    one exponent."""
    return _power_mean_row(x, y, (a,))[0]


def power_mean_grid(pairs: Sequence[tuple[int, int]], alphas: Sequence[Alpha]) -> np.ndarray:
    """:func:`power_mean` of every pair at every exponent, shape
    (len(pairs), len(alphas)): one kernel row per pair, each pair's own work
    done once, so the table and :func:`power_mean` agree bit for bit.  The
    exponents are read as plain floats once per grid."""
    floats = [float(a) for a in alphas]
    rows = [_power_mean_row(x, y, floats) for x, y in pairs]
    return np.array(rows, dtype=float).reshape(len(pairs), len(floats))


def descriptor_matrix(profiles: ProfileSums, alphas: Sequence[Alpha]) -> np.ndarray:
    """mSO of each key of degree-pair `profiles` at each exponent, shape (keys,
    len(alphas)): their count matrix times one kernel row per distinct pair."""
    return profiles.counts() @ power_mean_grid(profiles.items, alphas)


def pair_sum(g: Graph, term: Callable[[int, int], float]) -> float:
    """Edge sum of ``term(d_lo, d_hi)`` over the degree-pair profile.

    The term is evaluated once per distinct pair and repeated by its edge
    count; fsum rounds that multiset exactly as it rounds the per-edge
    terms, so for a term symmetric in its arguments the value is
    bit-identical to the sum over the edge list.  0.0 on an edgeless graph.
    """
    if not g.degree_pairs:
        return 0.0
    pairs, counts = zip(*g.degree_pairs)
    return math.fsum(chain.from_iterable(map(repeat, starmap(term, pairs), counts)))


class ProfileSums:
    """One multiset of items per key, such as each graph's degree pairs, and
    on request (`counts()`) the keys x items matrix of their counts.  A key's
    sum of per-item terms is one `math.fsum` over its items repeated by count:
    fsum is correctly rounded, so that is the sum over the edges (vertices)
    they count, bit for bit, as :func:`pair_sum` gives it.  Over degree pairs,
    `power_means(a)` and `mso(a)` evaluate an exponent, each once per table."""

    def __init__(self, multisets: Sequence[Sequence[tuple]]) -> None:
        self.items = sorted({x for ms in multisets for x, _ in ms})
        index = {x: i for i, x in enumerate(self.items)}
        flat = [xc for ms in multisets for xc in ms]
        positions = np.array([index[x] for x, _ in flat], dtype=np.intp)
        self._spread = np.repeat(positions, [c for _, c in flat])
        ends = list(accumulate((sum(c for _, c in ms) for ms in multisets), initial=0))
        self._spans = list(zip(ends, ends[1:]))
        self._pm: dict[float, np.ndarray] = {}
        self._mso: dict[float, np.ndarray] = {}

    def spread(self, terms: Sequence[float]) -> np.ndarray:
        """Per-item terms (indexed like `items`) repeated by count, key after key."""
        return np.asarray(terms, dtype=float)[self._spread]

    def fsums(self, spread: list[float]) -> np.ndarray:
        """Each key's fsum of terms laid out as `spread` lays them."""
        return np.array([math.fsum(spread[s:e]) for s, e in self._spans], dtype=float)

    def sums(self, terms: Sequence[float]) -> np.ndarray:
        return self.fsums(self.spread(terms).tolist())

    def power_means(self, a: Alpha) -> np.ndarray:
        """PM_a of each distinct pair, indexed like `items`."""
        if a not in self._pm:
            self._pm[a] = power_mean_grid(self.items, [a])[:, 0]
        return self._pm[a]

    def mso(self, a: Alpha) -> np.ndarray:
        """Each key's mSO_a, `mean_sombor`'s value bit for bit."""
        if a not in self._mso:
            self._mso[a] = self.sums(self.power_means(a))
        return self._mso[a]

    def counts(self) -> np.ndarray:
        """Each key's count of each item (indexed like `items`), as floats."""
        n, k = len(self._spans), len(self.items)
        key = np.repeat(np.arange(n), [e - s for s, e in self._spans])
        return np.bincount(key * k + self._spread, minlength=n * k).reshape(n, k).astype(float)

    def extremes(self, terms: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """Each key's largest and smallest term."""
        spread, starts = self.spread(terms), [s for s, _ in self._spans]
        return np.maximum.reduceat(spread, starts), np.minimum.reduceat(spread, starts)


def mean_sombor(g: Graph, a: Alpha) -> float:
    """Sum of the power mean of the endpoint degrees over all edges."""
    return pair_sum(g, lambda x, y: power_mean(x, y, a))


# ---------------------------------------------------------------------------
# Classical indices (edge sums over the same degree-pair profile, but with
# their own closed-form terms, not routed through the power mean -- they
# double as cross-checks of the special cases; M1 is a vertex sum).  The
# edge terms come first: each is one object, which its index function and
# its row of SPECIAL_VALUES both sum.
# ---------------------------------------------------------------------------

def isi_term(x: int, y: int) -> float:
    return x * y / (x + y)


def geometric_term(x: int, y: int) -> float:
    return math.sqrt(x * y)


def ka_term(alpha: float, beta: float) -> Callable[[int, int], float]:
    return lambda x, y: (x**alpha + y**alpha) ** beta


def inverse_sum_indeg(g: Graph) -> float:
    """ISI = sum over edges of d_u d_v / (d_u + d_v)."""
    return pair_sum(g, isi_term)


def reciprocal_randic(g: Graph) -> float:
    """R^{-1} = sum over edges of sqrt(d_u d_v); equals the variable second
    Zagreb index at exponent 1/2."""
    return pair_sum(g, geometric_term)


def first_zagreb(g: Graph) -> float:
    """M1 = sum over vertices of d_u^2."""
    return float(sum(d * d for d in g.degrees))


def variable_first_zagreb(g: Graph, exponent: float) -> float:
    """Sum over vertices of d_u^exponent (vertices of degree 0 excluded:
    0^p is ill-defined for p <= 0 and contributes nothing to edge sums)."""
    return math.fsum(d**exponent for d in g.degrees if d > 0)


def sombor(g: Graph) -> float:
    """SO = sum over edges of sqrt(d_u^2 + d_v^2)."""
    return pair_sum(g, math.hypot)


def alpha_sombor(g: Graph, alpha: float) -> float:
    """SO_alpha = sum over edges of (d_u^a + d_v^a)^(1/a), a != 0."""
    if alpha == 0.0:
        raise ValueError("alpha-Sombor index needs a nonzero exponent")
    return ka_index(g, alpha, 1.0 / alpha)


def ka_index(g: Graph, alpha: float, beta: float) -> float:
    """First (a,b)-KA index: sum over edges of (d_u^a + d_v^a)^b."""
    return pair_sum(g, ka_term(alpha, beta))


def min_edge_sum(g: Graph) -> float:
    """Sum over edges of min(d_u, d_v)."""
    return pair_sum(g, min)


def max_edge_sum(g: Graph) -> float:
    """Sum over edges of max(d_u, d_v)."""
    return pair_sum(g, max)


# Table 2 of the paper: at these exponents mSO equals a classical index.
# Rows (exponent, label, scale, edge term) in ascending exponent order: the
# index is scale * pair_sum(g, term), the term the one its function above
# sums (M1/2 sums d_u + d_v, integers exact below 2^53, so M1's bits).  The
# rows from -1 to 2 are the terms of the bound battery's special-value chain.
SPECIAL_VALUES: tuple[tuple[Alpha, str, float, Callable[[int, int], float]], ...] = (
    (ALPHA_MINUS_INF, "SP-min", 1.0, min),
    (Alpha.finite(-1), "2*ISI", 2.0, isi_term),
    (ZERO_LIMIT, "R^-1", 1.0, geometric_term),
    (Alpha.finite(0.5), "2^-2*KA1[0.5,2]", 0.25, ka_term(0.5, 2.0)),
    (Alpha.finite(1), "M1/2", 0.5, operator.add),
    (Alpha.finite(2), "2^-1/2*SO", 2.0**-0.5, math.hypot),
    (Alpha.finite(3), "2^-1/3*KA1[3,1/3]", 2.0 ** (-1 / 3), ka_term(3.0, 1 / 3)),
    (ALPHA_PLUS_INF, "SP-max", 1.0, max),
)
