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
rows from -1 to 2.  :func:`pair_sum` is the paper's edge sum, one fsum over
a graph's edges.  Every other edge sum reads the degree-pair profile, which
one numpy pass over the edges derives (:func:`degree_pair_entries`): its
:class:`ProfileSums` table (:func:`profile_sums`) sums each term once per
distinct pair, bit for bit the per-edge sum, and its `power_means`/`mso`
evaluate the CLI's, bounds', spectral and QSPR exponents.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from decimal import Decimal
from functools import cached_property
from itertools import accumulate, chain, repeat
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
    """Edge sum of ``term(d_lo, d_hi)``, the paper's definition: one
    `math.fsum` over the edges, each term taken at its edge's endpoint
    degrees in ascending order.  0.0 on an edgeless graph.  The profile
    tables (:func:`profile_sums`) are checked against it bit for bit.
    """
    deg = g.degrees
    return math.fsum(
        term(deg[u], deg[v]) if deg[u] <= deg[v] else term(deg[v], deg[u]) for u, v in g.edges
    )


# Keys from which `ProfileSums` sums in integer limbs.  Below it numpy's
# fixed cost per call is more than one fsum per key costs: on a 2-core host,
# 38 against 44 us at 80 keys, 55 against 47 us at 96 (BENCH_exact_sums.json).
LIMB_MIN_KEYS = 96
# The widest spread of binary exponents a key's terms may have in the limbs:
# a 53-bit mantissa shifted left by 10 stays below 2^63.
_LIMB_SPAN = 10
# Keys of this many edges or more are fsummed: below it the count-weighted
# sum of a key's 32-bit limbs stays below 2^53, exact in int64 and as a float.
_LIMB_MAX_EDGES = 2**21


class ProfileSums:
    """One multiset of items per key, such as each graph's degree pairs, held
    as each key's (item, count) entries, key after key; on request
    (`counts()`), the keys x items matrix of their counts.  A key's sum of
    per-item terms is, bit for bit, one `math.fsum` over its items repeated
    by count: fsum is correctly rounded, so that is the sum over the edges
    (vertices) they count, :func:`pair_sum`'s value.  A table of fewer
    than `LIMB_MIN_KEYS` keys takes that fsum key by key, a larger one exact
    integer limbs (`entry_sums`).  Over degree pairs, `power_means(a)` and
    `mso(a)` evaluate an exponent, each once per table.  Graphs reach their
    table through `profile_sums` (`degree_pair_entries`, then `pair_sums`).
    """

    def __init__(self, items: list, item: np.ndarray, count: np.ndarray, sizes: list[int]) -> None:
        """The table whose keys hold `sizes` entries each, key after key: an
        index into the sorted `items` and a count per entry."""
        self.items, self._item, self._count = items, item, count
        self._starts = list(accumulate(sizes, initial=0))
        running = np.concatenate(([0], np.cumsum(count)))
        self._totals = (running[self._starts[1:]] - running[self._starts[:-1]]).tolist()
        self._pm: dict[float, np.ndarray] = {}
        self._mso: dict[float, np.ndarray] = {}

    @cached_property
    def entry_keys(self) -> np.ndarray:
        """The key of each entry."""
        return np.repeat(np.arange(len(self._totals)), np.diff(self._starts))

    @cached_property
    def _limbs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The keys with an entry, their first entries, each entry's place
        among those keys, and which of them count fewer than `_LIMB_MAX_EDGES`."""
        sizes = np.diff(self._starts)
        filled = np.flatnonzero(sizes)
        heads = np.array(self._starts[:-1], dtype=np.intp)[filled]
        slot = np.repeat(np.arange(len(filled)), sizes[filled])
        return filled, heads, slot, np.array(self._totals)[filled] < _LIMB_MAX_EDGES

    def entries(self, terms: Sequence[float]) -> np.ndarray:
        """Per-item `terms` (indexed like `items`) at each entry, key after key."""
        return np.asarray(terms, dtype=float)[self._item]

    def sums(self, terms: Sequence[float]) -> np.ndarray:
        """Each key's sum of per-item `terms` over its items repeated by count."""
        return self.entry_sums(self.entries(terms))

    def entry_sums(self, values: np.ndarray) -> np.ndarray:
        """Each key's sum of per-entry `values` (laid out as `entries` lays
        them) repeated by count: the fsum of each key, or on a table of
        `LIMB_MIN_KEYS` keys or more, its value from one numpy pass.

        There each value is an integer mantissa M < 2^53 times 2^(e - 53)
        (`np.frexp`).  Within a key each M is shifted left by e - e0, e0 the
        key's smallest exponent of a nonzero value, and split into two 32-bit
        limbs, whose count-weighted sums S_hi and S_lo are exact in int64.
        The sum is ldexp(float(S_hi) 2^32 + float(S_lo), e0 - 53): both
        operands are exact doubles, so the one IEEE addition rounds the exact
        sum correctly, and a power of two scales it exactly where it is
        normal.  Below 2^-1022 every value is a multiple of 2^-1074 (or
        +-0.0, summed to +0.0 as fsum does), so the sum is exact throughout.
        A key is fsummed instead when its values span more than `_LIMB_SPAN`
        exponents, hold a negative, inf or nan, or count `_LIMB_MAX_EDGES` or
        more, or when its sum overflows, where fsum raises OverflowError.
        """
        count = self._count
        if len(self._totals) < LIMB_MIN_KEYS or not len(count):
            spread, start, sums = values.repeat(count).tolist(), 0, []
            for total in self._totals:
                sums.append(math.fsum(spread[start:start + total]))
                start += total
            return np.array(sums, dtype=float)
        filled, heads, slot, narrow = self._limbs
        sane = (values >= 0.0) & (values < math.inf)  # nan fails both
        mantissa, e = np.frexp(np.where(sane, values, 0.0))
        zero = mantissa == 0.0
        e0 = np.minimum.reduceat(np.where(zero, 1 << 20, e), heads)
        e1 = np.maximum.reduceat(np.where(zero, -(1 << 20), e), heads)
        m = np.ldexp(mantissa, 53).astype(np.int64) << np.clip(e - e0[slot], 0, _LIMB_SPAN)
        hi = np.add.reduceat((m >> 32) * count, heads)
        lo = np.add.reduceat((m & 0xFFFFFFFF) * count, heads)
        with np.errstate(over="ignore"):
            s = np.ldexp(hi * 2.0**32 + lo, e0 - 53)
        exact = np.logical_and.reduceat(sane, heads) & (e1 - e0 <= _LIMB_SPAN) & narrow
        out = np.zeros(len(self._totals))
        out[filled] = s
        for k in filled[~(exact & (s < math.inf))].tolist():  # edgeless keys keep fsum's +0.0
            terms = values[self._starts[k]:self._starts[k + 1]].tolist()
            counts = count[self._starts[k]:self._starts[k + 1]].tolist()
            out[k] = math.fsum(chain.from_iterable(map(repeat, terms, counts)))
        return out

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
        n, k = len(self._totals), len(self.items)
        cells = self.entry_keys * k + self._item
        counts = np.bincount(cells, weights=self._count, minlength=n * k)
        return counts.reshape(n, k).astype(float, copy=False)  # ints when there is no entry

    def extremes(self, terms: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """Each key's largest and smallest term; -inf and +inf, the identities
        of max and min, for a key with no entry."""
        filled, heads = self._limbs[:2]
        values, n = self.entries(terms), len(self._totals)
        top, bottom = np.full(n, -math.inf), np.full(n, math.inf)
        top[filled] = np.maximum.reduceat(values, heads)
        bottom[filled] = np.minimum.reduceat(values, heads)
        return top, bottom


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct values of `codes`, sorted: `np.unique`'s, but without the
    import of `numpy.ma` (about 15 ms) on its first call."""
    codes = np.sort(codes)
    return np.concatenate((codes[:1], codes[1:][codes[1:] != codes[:-1]]))


def pair_sums(lo: np.ndarray, hi: np.ndarray, count: np.ndarray, sizes: list[int]) -> ProfileSums:
    """The `ProfileSums` of keys holding `sizes` degree-pair entries (lo, hi,
    count) each, key after key; its items are the distinct (lo, hi) pairs."""
    top = int(hi.max(initial=0)) + 1
    entry_codes = lo * top + hi
    codes = _distinct(entry_codes)
    pairs = list(zip((codes // top).tolist(), (codes % top).tolist()))
    return ProfileSums(pairs, np.searchsorted(codes, entry_codes), count, sizes)


# Graphs' degree-pair profiles as entries sorted by graph, then by pair: each
# entry's graph, pair d_lo <= d_hi and edge count; and each edge's entry and
# two vertices, the edges graph after graph as each graph's `edges` iterates.
PairEntries = namedtuple("PairEntries", "graph lo hi count edge_entry ends")


def degree_pair_entries(graphs: Sequence[Graph]) -> PairEntries:
    """Every graph's degree-pair profile as `PairEntries`, in one numpy pass:
    each end of the concatenated edges takes its degree from the concatenated
    degree sequences, and one sort of (graph, d_lo, d_hi) codes.  This pass is
    the one derivation of the profile."""
    sizes = [len(g.edges) for g in graphs]
    orders = np.array([g.vertex_count for g in graphs], dtype=np.intp)
    flat = chain.from_iterable(chain.from_iterable(g.edges for g in graphs))
    ends = np.fromiter(flat, np.intp, 2 * sum(sizes)).reshape(-1, 2)
    degrees = np.fromiter(chain.from_iterable(g.degrees for g in graphs), np.int64)
    du, dv = degrees[ends + np.repeat(np.cumsum(orders) - orders, sizes)[:, None]].T
    top = int(degrees.max(initial=0)) + 1
    graph = np.repeat(np.arange(len(graphs)), sizes)
    edge_codes = (graph * top + np.minimum(du, dv)) * top + np.maximum(du, dv)
    codes = _distinct(edge_codes)
    edge_entry = np.searchsorted(codes, edge_codes)
    count = np.bincount(edge_entry, minlength=len(codes))
    graph, pair = np.divmod(codes, top * top)
    return PairEntries(graph, *np.divmod(pair, top), count, edge_entry, ends)


def profile_sums(graphs: Sequence[Graph]) -> tuple[PairEntries, ProfileSums]:
    """The graphs' `degree_pair_entries` and their degree-pair table, one key
    per graph (an edgeless graph's key holds no entry)."""
    e = degree_pair_entries(graphs)
    sizes = np.bincount(e.graph, minlength=len(graphs)).tolist()
    return e, pair_sums(e.lo, e.hi, e.count, sizes)


def mean_sombor(g: Graph, a: Alpha) -> float:
    """Sum of the power mean of the endpoint degrees over all edges."""
    return pair_sum(g, lambda x, y: power_mean(x, y, a))


# ---------------------------------------------------------------------------
# Classical indices (edge sums like mSO, but with their own closed-form
# terms, not routed through the power mean -- they double as cross-checks
# of the special cases; M1 is a vertex sum).  The
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
