"""Mechanical verification of the inequality catalog for mean Sombor indices.

Each check evaluates both sides of one proved inequality on a concrete
graph and returns a :class:`BoundReport` with the observed slack, the
equality case predicted by the theorem's equality clause, and whether the
clause applies to the input (some clauses require connectivity).  A report
"passes" when the slack is nonnegative up to floating-point tolerance and,
where applicable, the predicted and observed equality agree.

`run_verification` sweeps every check over a graph corpus (plus seeded
random connected graphs) into a `VerificationTable`, and is what the CLI
`verify` subcommand runs.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .graphs import (
    Graph,
    NamedGraph,
    all_components_regular,
    degree_extremes,
    is_connected,
    random_connected_graphs,
    regularity_class,
    RegularityTag,
)
from .indices import (
    ALPHA_MINUS_INF,
    ALPHA_PLUS_INF,
    Alpha,
    SPECIAL_VALUES,
    ZERO_LIMIT,
    first_zagreb,
    ka_index,
    mean_sombor,
    power_mean_grid,
    reciprocal_randic,
    sombor,
    variable_first_zagreb,
)
from .spectral import variance_identity

DEFAULT_RANDOM_SEED = 20240803

# Exponent sets used by the full sweep.
MONOTONICITY_GRID: tuple[Alpha, ...] = (
    ALPHA_MINUS_INF,
    Alpha.finite(-5),
    Alpha.finite(-1),
    ZERO_LIMIT,
    Alpha.finite(0.5),
    Alpha.finite(1),
    Alpha.finite(2),
    Alpha.finite(3),
    Alpha.finite(5),
    ALPHA_PLUS_INF,
)
JENSEN_ALPHAS: tuple[float, ...] = (-2.0, -1.0, 0.5, 2.0, 3.0)
KALPHA_ALPHAS: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)
SANDWICH_ALPHAS: tuple[Alpha, ...] = (
    Alpha.finite(-1),
    Alpha.finite(0.5),
    Alpha.finite(1),
    Alpha.finite(1.5),
    Alpha.finite(3),
    ZERO_LIMIT,
    ALPHA_MINUS_INF,
    ALPHA_PLUS_INF,
)
POWERSUM_ALPHAS: tuple[float, ...] = (-1.0, 1.0, 2.0)
POWERSUM_BETAS: tuple[float, ...] = (-1.0, 0.0, 0.5, 1.0, 2.0)
VARIANCE_ALPHAS: tuple[Alpha, ...] = (
    Alpha.finite(-3),
    Alpha.finite(-1),
    Alpha.finite(0.5),
    Alpha.finite(1),
    Alpha.finite(2),
    Alpha.finite(3),
    ZERO_LIMIT,
    ALPHA_MINUS_INF,
    ALPHA_PLUS_INF,
)


class Verdict(NamedTuple):
    """The verdict of a report row, or of columns of rows."""

    slack: float
    tol: float
    passed: bool
    equality_observed: bool
    ok: bool


def verdict(lhs, rhs, predicted, applicable=True, strict=False) -> Verdict:
    """The verdict on lhs <= rhs: slack = rhs - lhs passes when slack >= -tol,
    tol = 1e-9 (1 + |lhs| + |rhs|); ok also needs, where applicable, the
    predicted equality to be the observed one, and where a strict gap is
    expected, slack > 1e-12 (1 + |lhs| + |rhs|).  Takes floats and bools or
    numpy columns of them, with the same IEEE operations either way, so a
    row and a column entry agree bit for bit.  On bools `p <= q` is "p implies q".
    """
    slack = rhs - lhs
    scale = 1.0 + abs(lhs) + abs(rhs)
    tol = 1e-9 * scale
    passed, observed = slack >= -tol, abs(slack) <= tol
    ok = passed & (applicable <= (predicted == observed)) & (strict <= (slack > 1e-12 * scale))
    return Verdict(slack, tol, passed, observed, ok)


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one inequality check, oriented so that lhs <= rhs is the
    claim (slack = rhs - lhs >= -tol means pass); see `verdict`."""

    bound_id: str
    graph_id: str
    alpha: Alpha | None
    lhs: float
    rhs: float
    equality_predicted: bool
    equality_applicable: bool = True
    strict_expected: bool = False

    @property
    def verdict(self) -> Verdict:
        flags = (self.equality_predicted, self.equality_applicable, self.strict_expected)
        return verdict(self.lhs, self.rhs, *flags)

    slack = property(lambda self: self.verdict.slack)
    tol = property(lambda self: self.verdict.tol)
    passed = property(lambda self: self.verdict.passed)
    equality_observed = property(lambda self: self.verdict.equality_observed)
    ok = property(lambda self: self.verdict.ok)


def check_monotonicity(g: Graph, a1: Alpha, a2: Alpha, graph_id: str = "") -> BoundReport:
    """mSO is nondecreasing in the exponent: mSO_{a1} <= mSO_{a2} for a1 < a2,
    with equality exactly when every edge joins equal degrees."""
    if not a1 < a2:
        raise ValueError(f"need a1 < a2 in the extended order, got {a1} >= {a2}")
    balanced = all_components_regular(g)
    return BoundReport(
        bound_id="monotonicity",
        graph_id=graph_id,
        alpha=a2,
        lhs=mean_sombor(g, a1),
        rhs=mean_sombor(g, a2),
        equality_predicted=balanced,
        strict_expected=not balanced,
    )


_CHAIN_IDS = ("chain-2isi-r1", "chain-r1-ka", "chain-ka-m1", "chain-m1-so")


def check_chain(g: Graph, graph_id: str = "") -> list[BoundReport]:
    """The five-term special-value chain
    2 ISI <= R^{-1} <= 2^{-2} KA(1/2,2) <= M1/2 <= 2^{-1/2} SO:
    mSO's monotonicity through the rows of `indices.SPECIAL_VALUES` at
    a = -1, 0, 1/2, 1 and 2, each term computed once from the row's own
    classical edge/vertex sum, not through the power mean."""
    terms = [fn(g) for a, _, fn in SPECIAL_VALUES if -1.0 <= a <= 2.0]
    balanced = all_components_regular(g)
    return [
        BoundReport(
            bound_id=bid,
            graph_id=graph_id,
            alpha=None,
            lhs=lhs,
            rhs=rhs,
            equality_predicted=balanced,
            strict_expected=not balanced,
        )
        for bid, lhs, rhs in zip(_CHAIN_IDS, terms, terms[1:])
    ]


def _jensen_rhs(g: Graph, alpha: float) -> float:
    m = g.edge_count
    return (
        m ** (1.0 - 1.0 / alpha)
        / 2.0 ** (1.0 / alpha)
        * variable_first_zagreb(g, alpha + 1.0) ** (1.0 / alpha)
    )


def check_jensen_m1_bound(g: Graph, alpha: float, graph_id: str = "") -> BoundReport:
    """Jensen bound against the variable first Zagreb index:
    mSO_a <= (m^{1-1/a}/2^{1/a}) (sum d^{a+1})^{1/a} for a > 1, reversed for
    a < 1 (a != 0); equality on a connected graph iff it is regular or
    biregular (equality is unconditional at a = 1)."""
    if alpha == 0.0:
        raise ValueError("the Jensen bound needs a nonzero exponent")
    if g.edge_count == 0:
        raise ValueError("the Jensen bound needs at least one edge")
    mso = mean_sombor(g, Alpha.finite(alpha))
    bound = _jensen_rhs(g, alpha)
    if alpha >= 1.0:
        lhs, rhs = mso, bound
    else:
        lhs, rhs = bound, mso
    if alpha == 1.0:
        predicted = True
        applicable = True
    else:
        predicted = regularity_class(g) is not RegularityTag.NEITHER
        applicable = is_connected(g)
    return BoundReport(
        bound_id="jensen-m1",
        graph_id=graph_id,
        alpha=Alpha.finite(alpha),
        lhs=lhs,
        rhs=rhs,
        equality_predicted=predicted,
        equality_applicable=applicable,
    )


def kp_constant(a: float, b: float, p: float) -> float:
    """Constant of the converse Holder inequality for sequences bounded by
    0 < a <= b, with exponent p > 1 (q the conjugate); K_p(a, a) = 1."""
    if not (0 < a <= b):
        raise ValueError(f"need 0 < a <= b, got a={a}, b={b}")
    if p <= 1:
        raise ValueError(f"need p > 1, got p={p}")
    q = p / (p - 1.0)
    if p < 2.0:
        return (a / b) ** (1.0 / (2.0 * q)) / p + (b / a) ** (1.0 / (2.0 * p)) / q
    return (b / a) ** (1.0 / (2.0 * q)) / p + (a / b) ** (1.0 / (2.0 * p)) / q


def kalpha_constant(delta: int, Delta: int, alpha: float) -> float:
    """The K constant of the converse-Holder upper bound, 0 < alpha < 1.

    The bound comes from the converse Holder inequality applied to the
    per-edge terms x_e = (d_u^a + d_v^a)/2 against y_e = 1 with p = 1/a;
    the lemma constant must then bracket x_e^p = PM_a(d_u, d_v), which lies
    in [delta, Delta].  Hence K^a = kp_constant(delta, Delta, 1/a) and
    K = that to the power 1/a.  In branch form (R = Delta/delta):

        K^a = a R^{(1-a)/2} + (1-a) R^{-a/2}     for 0 < a <= 1/2  (p >= 2)
        K^a = a R^{-(1-a)/2} + (1-a) R^{a/2}     for 1/2 < a < 1   (1 < p < 2)

    K = 1 exactly when delta = Delta.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("the converse-Holder bound needs 0 < alpha < 1")
    if delta < 1:
        raise ValueError("minimum degree must be at least 1")
    return kp_constant(float(delta), float(Delta), 1.0 / alpha) ** (1.0 / alpha)


def check_kalpha_bound(g: Graph, alpha: float, graph_id: str = "") -> BoundReport:
    """Converse-Holder upper bound for 0 < a < 1:
    mSO_a <= (m^{1-1/a}/2^{1/a}) K_a (sum d^{a+1})^{1/a},
    equality iff the graph is regular."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("the converse-Holder bound needs 0 < alpha < 1")
    if g.edge_count == 0:
        raise ValueError("the converse-Holder bound needs at least one edge")
    delta, Delta = degree_extremes(g)
    if delta < 1:
        raise ValueError("the converse-Holder bound needs minimum degree >= 1")
    rhs = _jensen_rhs(g, alpha) * kalpha_constant(delta, Delta, alpha)
    return BoundReport(
        bound_id="kalpha",
        graph_id=graph_id,
        alpha=Alpha.finite(alpha),
        lhs=mean_sombor(g, Alpha.finite(alpha)),
        rhs=rhs,
        equality_predicted=regularity_class(g) is RegularityTag.REGULAR,
    )


def check_so_sandwich(g: Graph, a: Alpha, graph_id: str = "") -> list[BoundReport]:
    """Sandwich of mSO_a between Sombor-index multiples:

    0 < a < 2:  2^{-1/a} SO <  mSO_a <= 2^{-1/2} SO
    a > 2:      2^{-1/2} SO <= mSO_a <  2^{-1/a} SO   (2^{-1/a} = 1 at +inf)
    a <= 0:     mSO_a <= 2^{-1/2} SO                  (0 and -inf included)

    Non-strict links attain equality iff every connected component is
    regular; a = 2 is the definitional identity mSO_2 = 2^{-1/2} SO.
    """
    so = sombor(g)
    mso = mean_sombor(g, a)
    regular = all_components_regular(g)
    unbalanced = not regular
    reports: list[BoundReport] = []

    def rep(bid: str, lhs: float, rhs: float, predicted: bool, strict: bool) -> BoundReport:
        return BoundReport(
            bound_id=bid,
            graph_id=graph_id,
            alpha=a,
            lhs=lhs,
            rhs=rhs,
            equality_predicted=predicted,
            strict_expected=strict,
        )

    if 0.0 < a < 2.0:
        lower = 2.0 ** (-1.0 / a) * so
        reports.append(rep("so-sandwich-lower", lower, mso, False, unbalanced))
        reports.append(rep("so-sandwich-upper", mso, 2.0**-0.5 * so, regular, False))
    elif a == 2.0:
        reports.append(rep("so-sandwich-eq2", mso, 2.0**-0.5 * so, True, False))
    elif a > 2.0:
        reports.append(rep("so-sandwich-lower", 2.0**-0.5 * so, mso, regular, False))
        # at +inf the upper link is strict on any edge, regular or not
        strict = g.edge_count > 0 if math.isinf(a) else unbalanced
        reports.append(rep("so-sandwich-upper", mso, 2.0 ** (-1.0 / a) * so, False, strict))
    else:  # finite a < 0, the 0-limit, or -inf
        reports.append(rep("so-sandwich-upper", mso, 2.0**-0.5 * so, regular, False))
    return reports


def check_ka_powersum_bound(
    g: Graph, alpha: float, beta: float, graph_id: str = ""
) -> BoundReport:
    """Power-sum comparison for the (a,b)-KA index:
    KA_{a,b} >= m^{1-b} (sum d^{a+1})^b for b <= 0 or b >= 1, reversed on
    0 <= b <= 1; equality at b in {0,1} or when all edge terms coincide."""
    m = g.edge_count
    if m == 0:
        raise ValueError("the power-sum bound needs at least one edge")
    ka = ka_index(g, alpha, beta)
    base = m ** (1.0 - beta) * variable_first_zagreb(g, alpha + 1.0) ** beta
    if beta <= 0.0 or beta >= 1.0:
        lhs, rhs = base, ka
    else:
        lhs, rhs = ka, base
    terms = [x**alpha + y**alpha for (x, y), _ in g.degree_pairs]
    spread = max(terms) - min(terms)
    predicted = beta in (0.0, 1.0) or spread <= 1e-12 * max(terms)
    return BoundReport(
        bound_id=f"ka-powersum(b={beta:g})",
        graph_id=graph_id,
        alpha=Alpha.finite(alpha),
        lhs=lhs,
        rhs=rhs,
        equality_predicted=predicted,
    )


def check_mso2_m1_m2_bound(g: Graph, graph_id: str = "") -> BoundReport:
    """mSO_2 <= M1 - (variable second Zagreb at 1/2), with equality iff
    every connected component is regular."""
    return BoundReport(
        bound_id="mso2-m1-m2",
        graph_id=graph_id,
        alpha=Alpha.finite(2),
        lhs=mean_sombor(g, Alpha.finite(2)),
        rhs=first_zagreb(g) - reciprocal_randic(g),
        equality_predicted=all_components_regular(g),
    )


def _variance_identity_report(g: Graph, a: Alpha, graph_id: str) -> BoundReport:
    _, mso, radicand = variance_identity(g, a)
    return BoundReport(
        bound_id="variance-identity",
        graph_id=graph_id,
        alpha=a,
        lhs=mso,
        rhs=math.sqrt(max(radicand, 0.0)),
        equality_predicted=True,
    )


def checks_for_graph(named: NamedGraph) -> list[BoundReport]:
    """Every check in the catalog, at its sweep exponents, for one graph."""
    g, gid = named.graph, named.name
    out: list[BoundReport] = []
    for a1, a2 in zip(MONOTONICITY_GRID, MONOTONICITY_GRID[1:]):
        out.append(check_monotonicity(g, a1, a2, gid))
    out.extend(check_chain(g, gid))
    for alpha in JENSEN_ALPHAS:
        out.append(check_jensen_m1_bound(g, alpha, gid))
    for alpha in KALPHA_ALPHAS:
        out.append(check_kalpha_bound(g, alpha, gid))
    for a in SANDWICH_ALPHAS:
        out.extend(check_so_sandwich(g, a, gid))
    for alpha in POWERSUM_ALPHAS:
        for beta in POWERSUM_BETAS:
            out.append(check_ka_powersum_bound(g, alpha, beta, gid))
    out.append(check_mso2_m1_m2_bound(g, gid))
    for a in VARIANCE_ALPHAS:
        out.append(_variance_identity_report(g, a, gid))
    return out


# Every exponent at which the battery takes mSO.
BATTERY_EXPONENTS: tuple[Alpha, ...] = tuple(sorted({
    *MONOTONICITY_GRID, *SANDWICH_ALPHAS, *VARIANCE_ALPHAS,
    *map(Alpha.finite, JENSEN_ALPHAS + KALPHA_ALPHAS + (2.0,)),
}))


def _powers(column: np.ndarray, p: float) -> np.ndarray:
    """Each entry to the power p, by CPython's `**` (numpy's power can
    round differently)."""
    return np.array([v**p for v in column.tolist()], dtype=float)


class _Multisets:
    """One multiset of items per key.  A key's sum of per-item terms is one
    `math.fsum` over its items repeated by count: fsum is correctly rounded,
    so that is the sum over the edges (vertices) they count, bit for bit."""

    def __init__(self, multisets: Sequence[Sequence[tuple]]) -> None:
        self.items = sorted({x for ms in multisets for x, _ in ms})
        index = {x: i for i, x in enumerate(self.items)}
        flat = [xc for ms in multisets for xc in ms]
        positions = np.array([index[x] for x, _ in flat], dtype=np.intp)
        self._spread = np.repeat(positions, [c for _, c in flat])
        ends = list(accumulate((sum(c for _, c in ms) for ms in multisets), initial=0))
        self._spans = list(zip(ends, ends[1:]))

    def spread(self, terms: Sequence[float]) -> np.ndarray:
        """Per-item terms (indexed like `items`) repeated by count, key after key."""
        return np.asarray(terms, dtype=float)[self._spread]

    def fsums(self, spread: list[float]) -> np.ndarray:
        """Each key's fsum of terms laid out as `spread` lays them."""
        return np.array([math.fsum(spread[s:e]) for s, e in self._spans], dtype=float)

    def sums(self, terms: Sequence[float]) -> np.ndarray:
        return self.fsums(self.spread(terms).tolist())

    def extremes(self, terms: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """Each key's largest and smallest term."""
        spread, starts = self.spread(terms), [s for s, _ in self._spans]
        return np.maximum.reduceat(spread, starts), np.minimum.reduceat(spread, starts)


def _battery_rows(graphs: Sequence[Graph], connected: np.ndarray) -> Iterator[tuple]:
    """The rows of `checks_for_graph`, in its order, as columns over the
    profile keys of one sweep, from one graph per key and the keys'
    connectivity: (bound_id, alpha, lhs, rhs, equality_predicted,
    equality_applicable, strict_expected), each flag a bool or a bool column.
    mSO comes from one `power_mean_grid` table over the keys' distinct pairs
    and `BATTERY_EXPONENTS`, every other term once per distinct pair or degree.
    Each value is taken with the operations, in the order, of the check it
    mirrors, at the sweep's exponents (no Jensen row at a = 1, no sandwich at a = 2)."""
    edges = _Multisets([g.degree_pairs for g in graphs])
    histograms = [sorted(Counter(g.degrees).items()) for g in graphs]
    vertices = _Multisets([[(d, c) for d, c in h if d > 0] for h in histograms])
    m = np.array([g.edge_count for g in graphs], dtype=np.int64)
    m1 = np.array([float(sum(d * d * c for d, c in h)) for h in histograms])
    extremes = [(h[0][0], h[-1][0]) for h in histograms]
    tags = [regularity_class(g) for g in graphs]
    regular = np.array([t is RegularityTag.REGULAR for t in tags], dtype=bool)
    regular_or_biregular = np.array([t is not RegularityTag.NEITHER for t in tags], dtype=bool)
    balanced = np.array([all_components_regular(g) for g in graphs], dtype=bool)
    unbalanced = ~balanced
    pm = dict(zip(BATTERY_EXPONENTS, power_mean_grid(edges.items, BATTERY_EXPONENTS).T))
    mso = {a: edges.sums(column) for a, column in pm.items()}

    def variable_m1(p: float) -> np.ndarray:
        """Each key's sum of d^p over its vertices of positive degree."""
        return vertices.sums([d**p for d in vertices.items])

    def jensen_rhs(alpha: float) -> np.ndarray:
        """`_jensen_rhs` of each key."""
        e = 1.0 / alpha
        return _powers(m, 1.0 - e) / 2.0**e * _powers(variable_m1(alpha + 1.0), e)

    for a1, a2 in zip(MONOTONICITY_GRID, MONOTONICITY_GRID[1:]):
        yield "monotonicity", a2, mso[a1], mso[a2], balanced, True, unbalanced
    pairs, edge_sums = edges.items, edges.sums
    rr = edge_sums([math.sqrt(x * y) for x, y in pairs])
    so = edge_sums([math.hypot(x, y) for x, y in pairs])
    chain = [
        2.0 * edge_sums([x * y / (x + y) for x, y in pairs]),
        rr,
        0.25 * edge_sums([(x**0.5 + y**0.5) ** 2.0 for x, y in pairs]),
        m1 / 2.0,
        2.0**-0.5 * so,
    ]
    for bound_id, lhs, rhs in zip(_CHAIN_IDS, chain, chain[1:]):
        yield bound_id, None, lhs, rhs, balanced, True, unbalanced
    for alpha in JENSEN_ALPHAS:
        bound = jensen_rhs(alpha)
        lhs, rhs = (mso[alpha], bound) if alpha >= 1.0 else (bound, mso[alpha])
        yield "jensen-m1", Alpha.finite(alpha), lhs, rhs, regular_or_biregular, connected, False
    for alpha in KALPHA_ALPHAS:
        k = {e: kalpha_constant(*e, alpha) for e in set(extremes)}
        rhs = jensen_rhs(alpha) * np.array([k[e] for e in extremes])
        yield "kalpha", Alpha.finite(alpha), mso[alpha], rhs, regular, True, False
    upper = 2.0**-0.5 * so
    for a in SANDWICH_ALPHAS:
        if 0.0 < a < 2.0:
            yield "so-sandwich-lower", a, 2.0 ** (-1.0 / a) * so, mso[a], False, True, unbalanced
            yield "so-sandwich-upper", a, mso[a], upper, balanced, True, False
        elif a > 2.0:
            yield "so-sandwich-lower", a, upper, mso[a], balanced, True, False
            strict = m > 0 if math.isinf(a) else unbalanced
            yield "so-sandwich-upper", a, mso[a], 2.0 ** (-1.0 / a) * so, False, True, strict
        else:
            yield "so-sandwich-upper", a, mso[a], upper, balanced, True, False
    for alpha in POWERSUM_ALPHAS:
        terms = [x**alpha + y**alpha for x, y in pairs]
        top, bottom = edges.extremes(terms)
        vm1 = variable_m1(alpha + 1.0)
        for beta in POWERSUM_BETAS:
            ka = edge_sums([t**beta for t in terms])
            base = _powers(m, 1.0 - beta) * _powers(vm1, beta)
            lhs, rhs = (base, ka) if beta <= 0.0 or beta >= 1.0 else (ka, base)
            predicted = beta in (0.0, 1.0) or top - bottom <= 1e-12 * top
            yield f"ka-powersum(b={beta:g})", Alpha.finite(alpha), lhs, rhs, predicted, True, False
    yield "mso2-m1-m2", Alpha.finite(2), mso[2.0], m1 - rr, balanced, True, False
    for a in VARIANCE_ALPHAS:
        mean = mso[a] / m
        deviations = (edges.spread(pm[a]) - np.repeat(mean, m)).tolist()
        sigma2 = edges.fsums([d**2 for d in deviations]) / m
        tr = 2.0 * edge_sums([v**2 for v in pm[a].tolist()])
        radicand = (m / 2.0) * tr - m * m * sigma2
        yield "variance-identity", a, mso[a], np.sqrt(np.maximum(radicand, 0.0)), True, True, False


@dataclass(frozen=True, eq=False)
class VerificationTable:
    """The rows of a sweep as (batteries, rows) columns over its profile keys.

    Battery b holds the rows of every graph with the profile key
    `batteries[b]` (degree pairs, vertex count, connected): row j is the
    check `labels[j]` (bound_id, alpha) with lhs[b, j], rhs[b, j] and the
    equality flags predicted, applicable and strict at [b, j].  `graphs`
    lists every (graph_id, battery) in corpus order.  Iterating the table
    builds each graph's `BoundReport` rows under its own graph_id.
    """

    labels: tuple[tuple[str, Alpha | None], ...]
    lhs: np.ndarray
    rhs: np.ndarray
    predicted: np.ndarray
    applicable: np.ndarray
    strict: np.ndarray
    # only tests read the keys, but freed they land on CPython's tuple free lists:
    # without this field chemical-trees peak_rss_mb reads 104.6-104.7, not 101.4-101.6
    batteries: list[tuple]
    graphs: list[tuple[str, int]]

    @cached_property
    def verdict(self) -> Verdict:
        """The `verdict` of every row, as (batteries, rows) columns."""
        return verdict(self.lhs, self.rhs, self.predicted, self.applicable, self.strict)

    def __len__(self) -> int:
        return len(self.graphs) * len(self.labels)

    def _battery(self, b: int, graph_id: str) -> Iterator[BoundReport]:
        columns = (self.lhs, self.rhs, self.predicted, self.applicable, self.strict)
        for (bound_id, alpha), *values in zip(self.labels, *(c[b].tolist() for c in columns)):
            yield BoundReport(bound_id, graph_id, alpha, *values)

    def __iter__(self) -> Iterator[BoundReport]:
        for graph_id, b in self.graphs:
            yield from self._battery(b, graph_id)

    def failures(self) -> tuple[int, BoundReport | None]:
        """The number of rows that are not ok, each battery's counted once per
        graph with its key, and the first of them in row order with the
        smallest slack, under the first graph with its key (None if all ok)."""
        first: dict[int, str] = {}
        for graph_id, b in self.graphs:
            first.setdefault(b, graph_id)
        order = list(first)
        bad = ~self.verdict.ok[order]
        if not bad.any():
            return 0, None
        uses = np.bincount(np.array([b for _, b in self.graphs], dtype=np.intp))
        count = int(uses[order] @ bad.sum(axis=1))
        candidates = np.flatnonzero(bad)
        worst = candidates[np.argmin(self.verdict.slack[order].ravel()[candidates])]
        i, j = divmod(int(worst), bad.shape[1])
        return count, list(self._battery(order[i], first[order[i]]))[j]


def run_verification(
    corpus: Sequence[NamedGraph], random_count: int = 0, seed: int = DEFAULT_RANDOM_SEED
) -> VerificationTable:
    """Sweep all checks over the corpus, then `random_count` seeded random graphs.

    Every check is a function of the degree-pair profile, the vertex count
    and connectivity, so the table holds one battery per such key, all
    computed at once as columns over the keys.  A graph `checks_for_graph`
    rejects raises its ValueError, before any battery is computed.  The rows
    equal `checks_for_graph` on every graph in corpus order, bit for bit.
    """
    graphs = [*corpus, *random_connected_graphs(random_count, seed)]
    batteries: dict[tuple, int] = {}
    firsts: list[Graph] = []
    keyed: list[tuple[str, int]] = []
    for named in graphs:
        g = named.graph
        key = (g.degree_pairs, g.vertex_count, is_connected(g))
        if key not in batteries:
            # the errors checks_for_graph raises first: Jensen's, then K_alpha's
            if g.edge_count == 0:
                raise ValueError("the Jensen bound needs at least one edge")
            if degree_extremes(g)[0] < 1:
                raise ValueError("the converse-Holder bound needs minimum degree >= 1")
            batteries[key] = len(firsts)
            firsts.append(g)
        keyed.append((named.name, batteries[key]))
    rows = list(_battery_rows(firsts, np.array([c for _, _, c in batteries], dtype=bool)))

    def stack(i: int, dtype: type) -> np.ndarray:
        return np.stack([np.broadcast_to(r[i], len(firsts)) for r in rows], axis=1).astype(dtype)

    return VerificationTable(
        tuple(r[:2] for r in rows), stack(2, float), stack(3, float),
        stack(4, bool), stack(5, bool), stack(6, bool), list(batteries), keyed,
    )


REPORT_COLUMNS = (
    "bound_id",
    "graph_id",
    "alpha",
    "lhs",
    "rhs",
    "slack",
    "equality_predicted",
    "equality_observed",
    "equality_applicable",
    "strict_expected",
    "ok",
)


_CSV_SPECIAL = re.compile('[,"\r\n]')


def _csv_field(text: str) -> str:
    """`text` as `csv.writer` (minimal quoting) writes it inside a row."""
    if not _CSV_SPECIAL.search(text):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _alpha_field(alpha: Alpha | None) -> str:
    return _csv_field(alpha.token()) if alpha is not None else ""


# The five flag columns of each bit pattern, most significant bit first.
_FLAG_FIELDS = [",".join(format(i, "05b")) for i in range(32)]


def _flag_bits(v: Verdict, predicted, applicable, strict) -> np.ndarray:
    """Each row's five flag columns as a `_FLAG_FIELDS` index."""
    flags = np.stack([predicted, v.equality_observed, applicable, strict, v.ok], axis=-1)
    return flags @ np.array([16, 8, 4, 2, 1])


def _tails(alphas, lhs, rhs, slack, bits, ends) -> list[str]:
    """Each row's CSV text after its graph_id, from lists of its fields:
    ',alpha,lhs,rhs,slack,<the five flags>', the line end, then `ends`."""
    return list(map(
        ",{},{:.17g},{:.17g},{:.17g},{}\n{}".format,
        alphas, lhs, rhs, slack, map(_FLAG_FIELDS.__getitem__, bits), ends,
    ))


def write_reports_csv(
    reports: VerificationTable | Iterable[BoundReport],
    stream: IO[str],
    seed: int | None = None,
    random_count: int | None = None,
) -> None:
    """CSV of report rows; the fuzzing seed is recorded on a comment line.

    A `VerificationTable` has each battery row formatted once, from its
    columns, and every graph with the battery's key written as that text
    around its own quoted graph_id.  Any other iterable of rows is taken
    into columns and goes through the same formatter.  Quoting matches
    `csv.writer`.
    """
    if seed is not None:
        stream.write(f"# seed={seed} random_graphs={random_count}\n")
    stream.write(",".join(REPORT_COLUMNS) + "\n")
    if isinstance(reports, VerificationTable):
        t, v = reports, reports.verdict
        heads = [_csv_field(bound_id) + "," for bound_id, _ in t.labels]
        alphas, ends = [_alpha_field(a) for _, a in t.labels], [*heads[1:], ""]
        bits = _flag_bits(v, t.predicted, t.applicable, t.strict)
        # a battery's text is kept only while graphs with its key remain: held to the
        # end, the texts raise `verify --random 5000` peak RSS from 79 to 92 MB
        pending = Counter(b for _, b in t.graphs)
        texts: dict[int, list[str]] = {}
        for graph_id, b in t.graphs:
            if b not in texts:
                fields = (t.lhs[b], t.rhs[b], v.slack[b], bits[b])
                texts[b] = [heads[0], *_tails(alphas, *(f.tolist() for f in fields), ends)]
            pending[b] -= 1
            text = texts[b] if pending[b] else texts.pop(b)
            stream.write(_csv_field(graph_id).join(text))
    else:
        rows = list(reports)
        lhs = np.array([r.lhs for r in rows], dtype=float)
        rhs = np.array([r.rhs for r in rows], dtype=float)
        names = ("equality_predicted", "equality_applicable", "strict_expected")
        flags = [np.array([getattr(r, name) for r in rows], dtype=bool) for name in names]
        v = verdict(lhs, rhs, *flags)
        fields = (lhs, rhs, v.slack, _flag_bits(v, *flags))
        alphas = [_alpha_field(r.alpha) for r in rows]
        for r, tail in zip(rows, _tails(alphas, *(f.tolist() for f in fields), repeat(""))):
            stream.write(f"{_csv_field(r.bound_id)},{_csv_field(r.graph_id)}{tail}")
