"""Mechanical verification of the inequality catalog for mean Sombor indices.

Every check depends only on a graph's profile key (degree pairs, vertex
count, connected).  Each proved inequality is one family: a function of
`_KeyColumns`, the columns of a list of keys taken from their entry arrays
alone, and of an array of exponents (monotonicity takes a pair of arrays).
It yields one row per exponent, (bound_id, alpha, lhs, rhs,
equality_predicted, equality_applicable, strict_expected), oriented so that
lhs <= rhs is the claim, each side a column over the keys and each flag a
bool or a bool column.  `run_verification` runs every family at its sweep
exponents over the distinct keys of a corpus into a `VerificationTable`,
which the CLI `verify` subcommand writes.  A key is the graph's degree-pair entries from
one numpy pass over the corpus (`indices.degree_pair_entries`), as bytes,
with its vertex count and `is_connected`.  Each public ``check_*`` is a
view of its family on one graph's key at one exponent, and
`checks_for_graph` every family on one key: a list of :class:`BoundReport`
(a view runs the same pass on its one graph).  A report "passes" when the
slack is nonnegative up to floating-point tolerance and, where applicable,
the predicted and observed equality agree (`verdict`).

Each column entry equals the formula taken on one graph with floats, bit
for bit.  Every edge or vertex sum is `ProfileSums.sums`, each key's
`math.fsum` value, the per-edge `pair_sum`'s: taken in exact integer limbs on a
table of `indices.LIMB_MIN_KEYS` keys or more, by fsum below that and where
the limbs cannot be exact.  mSO and PM come from the keys' degree-pair table
(`ProfileSums.mso`/`power_means`); per-key arithmetic on a side that can
overflow is CPython's, which raises where numpy would return inf or nan;
numpy does only + - * /, sqrt, min/max and comparisons, which IEEE
arithmetic rounds alike everywhere.  `write_reports_csv` writes each number
as `format(x, ".17g")` does: most of them from exact uint64 arithmetic on
their bits (`_g17`), the rest by CPython's own conversion.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .graphs import Graph, NamedGraph, is_connected, random_connected_graphs
from .indices import (
    ALPHA_MINUS_INF,
    ALPHA_PLUS_INF,
    Alpha,
    SPECIAL_VALUES,
    ProfileSums,
    ZERO_LIMIT,
    degree_pair_entries,
    geometric_term,
    pair_sums,
)
from .spectral import variance_columns

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


class _KeyColumns:
    """What the bound families read of profile keys (degree pairs, vertex
    count, connected), as columns over the keys, from the keys' degree-pair
    entries (lo, hi, count), key after key, `sizes` per key.

    The vertices of degree d > 0 are the key's edge ends at d, divided by d,
    and the rest of the vertex count is isolated.  Sums over edges go through
    `edges` and sums over vertices of positive degree through `vertices`:
    tables that give each key fsum's value (in integer limbs from
    `indices.LIMB_MIN_KEYS` keys up), the value `pair_sum` and
    `variable_first_zagreb` give on a graph with the key.  Each edge sum is
    taken once per term object and each vertex sum once per exponent.
    """

    def __init__(self, lo, hi, count, sizes: list[int], n: np.ndarray, connected: np.ndarray) -> None:
        self._key = np.repeat(np.arange(len(sizes)), sizes)
        self._entries, self._n = (lo, hi, count, sizes), n
        self.edges = pair_sums(lo, hi, count, sizes)
        self.m = np.bincount(self._key, count, len(sizes)).astype(np.int64)
        self.connected = connected
        self._equal = np.bincount(self._key, lo == hi, len(sizes))  # entries joining equal degrees
        # every edge joins equal degrees: every component is regular
        self.balanced = self._equal == sizes
        self._edge_sums: dict[Callable, np.ndarray] = {}
        self._vertex_sums: dict[float, np.ndarray] = {}

    @cached_property
    def _degrees(self) -> tuple[ProfileSums, np.ndarray, np.ndarray, np.ndarray]:
        """`vertices`, `extremes`, `regular` and `regular_or_biregular`, read
        off the vertex histogram on a family's first read of one of them, so
        a view whose family reads none (monotonicity) builds none."""
        lo, hi, count, sizes = self._entries
        keys, top = len(sizes), int(hi.max(initial=0)) + 1
        ends = sum(np.bincount(self._key * top + d, count, keys * top) for d in (lo, hi))
        histogram = (ends.reshape(keys, top)[:, 1:] // np.arange(1, top)).astype(np.int64)
        (at, degree), present = np.nonzero(histogram), histogram.any(0)
        kinds = np.count_nonzero(histogram, 1)
        items = (np.flatnonzero(present) + 1).tolist()
        item = (np.cumsum(present) - 1)[degree]
        vertices = ProfileSums(items, item, histogram[at, degree], kinds.tolist())
        whole = self._n == histogram.sum(1)  # no isolated vertex
        # minimum and maximum degree, isolated vertices included
        most, least = vertices.extremes(items)
        extremes = np.stack([np.where(whole, least, 0.0), np.maximum(most, 0.0)], 1)
        regular = whole & (kinds == 1)
        return vertices, extremes, regular, regular | whole & (kinds == 2) & (self._equal == 0)

    vertices = property(lambda self: self._degrees[0])
    extremes = property(lambda self: self._degrees[1])
    regular = property(lambda self: self._degrees[2])
    regular_or_biregular = property(lambda self: self._degrees[3])

    def edge_sum(self, term: Callable[[int, int], float]) -> np.ndarray:
        """Each key's sum over its edges of term(d_lo, d_hi), once per term object."""
        if term not in self._edge_sums:
            self._edge_sums[term] = self.edges.sums([term(x, y) for x, y in self.edges.items])
        return self._edge_sums[term]

    def variable_m1(self, p: float) -> np.ndarray:
        """Each key's sum of d^p over its vertices of positive degree, once per exponent."""
        if p not in self._vertex_sums:
            self._vertex_sums[p] = self.vertices.sums([d**p for d in self.vertices.items])
        return self._vertex_sums[p]


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


def _monotonicity(k: _KeyColumns, lower: Sequence[Alpha], upper: Sequence[Alpha]) -> Iterator[tuple]:
    """`check_monotonicity` at each pair (lower[i], upper[i])."""
    for a1, a2 in zip(lower, upper):
        if not a1 < a2:
            raise ValueError(f"need a1 < a2 in the extended order, got {a1} >= {a2}")
        yield "monotonicity", a2, k.edges.mso(a1), k.edges.mso(a2), k.balanced, True, ~k.balanced


_CHAIN_IDS = ("chain-2isi-r1", "chain-r1-ka", "chain-ka-m1", "chain-m1-so")


def _chain(k: _KeyColumns) -> Iterator[tuple]:
    """`check_chain`: the rows of `indices.SPECIAL_VALUES` from a = -1 to 2,
    each its scale times its own classical edge sum, not the power mean."""
    terms = [scale * k.edge_sum(term) for a, _, scale, term in SPECIAL_VALUES if -1.0 <= a <= 2.0]
    for bound_id, lhs, rhs in zip(_CHAIN_IDS, terms, terms[1:]):
        yield bound_id, None, lhs, rhs, k.balanced, True, ~k.balanced


def _jensen_bound(k: _KeyColumns, alpha: float) -> np.ndarray:
    """(m^{1-1/a} / 2^{1/a}) (sum d^{a+1})^{1/a} of each key."""
    e = 1.0 / alpha
    sums = k.variable_m1(alpha + 1.0).tolist()
    return np.array([m ** (1.0 - e) / 2.0**e * s**e for m, s in zip(k.m.tolist(), sums)])


def _jensen_m1(k: _KeyColumns, alphas: Sequence[float]) -> Iterator[tuple]:
    """`check_jensen_m1_bound` at each exponent."""
    for alpha in alphas:
        if alpha == 0.0:
            raise ValueError("the Jensen bound needs a nonzero exponent")
        if not k.m.all():
            raise ValueError("the Jensen bound needs at least one edge")
        a = Alpha.finite(alpha)
        mso, bound = k.edges.mso(a), _jensen_bound(k, alpha)
        lhs, rhs = (mso, bound) if alpha >= 1.0 else (bound, mso)
        clause = (True, True) if alpha == 1.0 else (k.regular_or_biregular, k.connected)
        yield "jensen-m1", a, lhs, rhs, *clause, False


def _kalpha(k: _KeyColumns, alphas: Sequence[float]) -> Iterator[tuple]:
    """`check_kalpha_bound` at each exponent."""
    for alpha in alphas:
        if not 0.0 < alpha < 1.0:
            raise ValueError("the converse-Holder bound needs 0 < alpha < 1")
        if not k.m.all():
            raise ValueError("the converse-Holder bound needs at least one edge")
        if (k.extremes[:, 0] < 1).any():
            raise ValueError("the converse-Holder bound needs minimum degree >= 1")
        extremes = list(map(tuple, k.extremes.tolist()))
        constant = {e: kalpha_constant(*e, alpha) for e in set(extremes)}
        rhs = _jensen_bound(k, alpha) * np.array([constant[e] for e in extremes])
        yield "kalpha", Alpha.finite(alpha), k.edges.mso(alpha), rhs, k.regular, True, False


def _so_sandwich(k: _KeyColumns, alphas: Sequence[Alpha]) -> Iterator[tuple]:
    """`check_so_sandwich` at each exponent: one or two links."""
    so, balanced, unbalanced = k.edge_sum(math.hypot), k.balanced, ~k.balanced
    upper = 2.0**-0.5 * so
    for a in alphas:
        mso = k.edges.mso(a)
        if 0.0 < a < 2.0:
            yield "so-sandwich-lower", a, 2.0 ** (-1.0 / a) * so, mso, False, True, unbalanced
            yield "so-sandwich-upper", a, mso, upper, balanced, True, False
        elif a == 2.0:
            yield "so-sandwich-eq2", a, mso, upper, True, True, False
        elif a > 2.0:
            yield "so-sandwich-lower", a, upper, mso, balanced, True, False
            # at +inf the upper link is strict on any edge, regular or not
            strict = k.m > 0 if math.isinf(a) else unbalanced
            yield "so-sandwich-upper", a, mso, 2.0 ** (-1.0 / a) * so, False, True, strict
        else:  # finite a < 0, the 0-limit, or -inf
            yield "so-sandwich-upper", a, mso, upper, balanced, True, False


def _ka_powersum(k: _KeyColumns, alphas: Sequence[float], betas: Sequence[float]) -> Iterator[tuple]:
    """`check_ka_powersum_bound` at each alpha, and at each beta for it."""
    if not k.m.all():
        raise ValueError("the power-sum bound needs at least one edge")
    for alpha in alphas:
        terms = [x**alpha + y**alpha for x, y in k.edges.items]
        sums = k.variable_m1(alpha + 1.0).tolist()
        top, bottom = k.edges.extremes(terms)
        for beta in betas:
            ka = k.edges.sums([t**beta for t in terms])
            base = np.array([m ** (1.0 - beta) * s**beta for m, s in zip(k.m.tolist(), sums)])
            lhs, rhs = (base, ka) if beta <= 0.0 or beta >= 1.0 else (ka, base)
            # a limit exponent is rejected after KA's own errors, as the scalar
            # check orders them, and before the spread (inf - inf at +inf)
            a = Alpha.finite(alpha)
            predicted = beta in (0.0, 1.0) or top - bottom <= 1e-12 * top
            yield f"ka-powersum(b={beta:g})", a, lhs, rhs, predicted, True, False


def _mso2_m1_m2(k: _KeyColumns) -> Iterator[tuple]:
    """`check_mso2_m1_m2_bound`."""
    rhs = k.edge_sum(operator.add) - k.edge_sum(geometric_term)  # M1 - R^{-1}
    yield "mso2-m1-m2", Alpha.finite(2), k.edges.mso(2.0), rhs, k.balanced, True, False


def _variance_identity(k: _KeyColumns, alphas: Sequence[Alpha]) -> Iterator[tuple]:
    """mSO against the square root of the radicand of the variance identity
    (`spectral.variance_columns`), an equality at each exponent."""
    for a in alphas:
        mso, (_, radicand) = k.edges.mso(a), variance_columns(k.edges, k.m, a)
        yield "variance-identity", a, mso, np.sqrt(np.maximum(radicand, 0.0)), True, True, False


def _battery(k: _KeyColumns) -> Iterator[tuple]:
    """Every family at its sweep exponents, in report order: 61 rows."""
    yield from _monotonicity(k, MONOTONICITY_GRID[:-1], MONOTONICITY_GRID[1:])
    yield from _chain(k)
    yield from _jensen_m1(k, JENSEN_ALPHAS)
    yield from _kalpha(k, KALPHA_ALPHAS)
    yield from _so_sandwich(k, SANDWICH_ALPHAS)
    yield from _ka_powersum(k, POWERSUM_ALPHAS, POWERSUM_BETAS)
    yield from _mso2_m1_m2(k)
    yield from _variance_identity(k, VARIANCE_ALPHAS)


@dataclass(frozen=True, eq=False)
class VerificationTable:
    """The rows of a sweep as (batteries, rows) columns over its profile keys.

    Battery b holds the rows of every graph with the b-th distinct profile
    key (degree pairs, vertex count, connected) in corpus order: row j is the
    check `labels[j]` (bound_id, alpha) with lhs[b, j], rhs[b, j] and the
    equality flags predicted, applicable and strict at [b, j].  `graphs`
    lists every (graph_id, battery) in corpus order; graph g's rows are its
    battery's, under its own graph_id.
    """

    labels: tuple[tuple[str, Alpha | None], ...]
    lhs: np.ndarray
    rhs: np.ndarray
    predicted: np.ndarray
    applicable: np.ndarray
    strict: np.ndarray
    graphs: list[tuple[str, int]]

    @cached_property
    def verdict(self) -> Verdict:
        """The `verdict` of every row, as (batteries, rows) columns."""
        return verdict(self.lhs, self.rhs, self.predicted, self.applicable, self.strict)

    def __len__(self) -> int:
        return len(self.graphs) * len(self.labels)

    def failures(self) -> tuple[int, tuple[str, str, float] | None]:
        """The number of rows that are not ok, each graph's counted, and the
        (bound_id, graph_id, slack) of the first of them in corpus-then-row
        order with the smallest slack (None if all ok)."""
        rows = np.array([b for _, b in self.graphs], dtype=np.intp)
        bad, slack = ~self.verdict.ok[rows], self.verdict.slack[rows]
        if not bad.any():
            return 0, None
        i, j = divmod(int(np.flatnonzero(bad)[np.argmin(slack[bad])]), bad.shape[1])
        return int(bad.sum()), (self.labels[j][0], self.graphs[i][0], slack[i, j].item())


def _key_columns(graphs: Sequence[Graph]) -> tuple[list[int], _KeyColumns]:
    """Each graph's battery, numbered in first-use order, and the columns of
    the batteries' keys.  A key is exact: the graph's degree-pair entries as
    bytes (`indices.degree_pair_entries`), its vertex count and `is_connected`."""
    e = degree_pair_entries(graphs)
    table = np.stack([e.lo, e.hi, e.count], 1, dtype=np.int64).tobytes()  # 24 bytes an entry
    cuts = (np.searchsorted(e.graph, np.arange(len(graphs) + 1)) * 24).tolist()
    batteries: dict[tuple, int] = {}
    keyed = [
        batteries.setdefault((table[i:j], g.vertex_count, is_connected(g)), len(batteries))
        for g, i, j in zip(graphs, cuts, cuts[1:])
    ]
    entries = np.frombuffer(b"".join(b for b, _, _ in batteries), dtype=np.int64).reshape(-1, 3)
    sizes = [len(b) // 24 for b, _, _ in batteries]
    n = np.array([n for _, n, _ in batteries], dtype=np.int64)
    connected = np.array([c for _, _, c in batteries], dtype=bool)
    return keyed, _KeyColumns(*entries.T, sizes, n, connected)


def _view(family, g: Graph, graph_id: str, *exponents) -> list[BoundReport]:
    """The rows of `family` at the exponents on g's key alone, as g's reports."""
    k = _key_columns([g])[1]
    return [
        BoundReport(bound_id, graph_id, alpha, *(np.asarray(v).item() for v in values))
        for bound_id, alpha, *values in family(k, *exponents)
    ]


def check_monotonicity(g: Graph, a1: Alpha, a2: Alpha, graph_id: str = "") -> BoundReport:
    """mSO is nondecreasing in the exponent: mSO_{a1} <= mSO_{a2} for a1 < a2,
    with equality exactly when every edge joins equal degrees."""
    return _view(_monotonicity, g, graph_id, [a1], [a2])[0]


def check_chain(g: Graph, graph_id: str = "") -> list[BoundReport]:
    """The five-term special-value chain
    2 ISI <= R^{-1} <= 2^{-2} KA(1/2,2) <= M1/2 <= 2^{-1/2} SO:
    mSO's monotonicity through the rows of `indices.SPECIAL_VALUES` at
    a = -1, 0, 1/2, 1 and 2, each term the row's scale times its own
    classical edge sum, not the power mean."""
    return _view(_chain, g, graph_id)


def check_jensen_m1_bound(g: Graph, alpha: float, graph_id: str = "") -> BoundReport:
    """Jensen bound against the variable first Zagreb index:
    mSO_a <= (m^{1-1/a}/2^{1/a}) (sum d^{a+1})^{1/a} for a > 1, reversed for
    a < 1 (a != 0); equality on a connected graph iff it is regular or
    biregular (equality is unconditional at a = 1)."""
    return _view(_jensen_m1, g, graph_id, [alpha])[0]


def check_kalpha_bound(g: Graph, alpha: float, graph_id: str = "") -> BoundReport:
    """Converse-Holder upper bound for 0 < a < 1:
    mSO_a <= (m^{1-1/a}/2^{1/a}) K_a (sum d^{a+1})^{1/a},
    equality iff the graph is regular."""
    return _view(_kalpha, g, graph_id, [alpha])[0]


def check_so_sandwich(g: Graph, a: Alpha, graph_id: str = "") -> list[BoundReport]:
    """Sandwich of mSO_a between Sombor-index multiples:

    0 < a < 2:  2^{-1/a} SO <  mSO_a <= 2^{-1/2} SO
    a > 2:      2^{-1/2} SO <= mSO_a <  2^{-1/a} SO   (2^{-1/a} = 1 at +inf)
    a <= 0:     mSO_a <= 2^{-1/2} SO                  (0 and -inf included)

    Non-strict links attain equality iff every connected component is
    regular; a = 2 is the definitional identity mSO_2 = 2^{-1/2} SO.
    """
    return _view(_so_sandwich, g, graph_id, [a])


def check_ka_powersum_bound(
    g: Graph, alpha: float, beta: float, graph_id: str = ""
) -> BoundReport:
    """Power-sum comparison for the (a,b)-KA index:
    KA_{a,b} >= m^{1-b} (sum d^{a+1})^b for b <= 0 or b >= 1, reversed on
    0 <= b <= 1; equality at b in {0,1} or when all edge terms coincide."""
    return _view(_ka_powersum, g, graph_id, [alpha], [beta])[0]


def check_mso2_m1_m2_bound(g: Graph, graph_id: str = "") -> BoundReport:
    """mSO_2 <= M1 - (variable second Zagreb at 1/2), with equality iff
    every connected component is regular."""
    return _view(_mso2_m1_m2, g, graph_id)[0]


def checks_for_graph(named: NamedGraph) -> list[BoundReport]:
    """Every check in the catalog, at its sweep exponents, for one graph: every
    family on its key alone, the rows its sweep table holds."""
    return _view(_battery, named.graph, named.name)


def run_verification(
    corpus: Sequence[NamedGraph], random_count: int = 0, seed: int = DEFAULT_RANDOM_SEED
) -> VerificationTable:
    """Sweep all checks over the corpus, then `random_count` seeded random graphs.

    Every check is a function of the profile key, so the table holds one
    battery per key, all computed at once as columns over the keys.  A graph
    `checks_for_graph` rejects raises its ValueError before any battery is
    computed: the first such graph in corpus order decides which.  The rows
    equal `checks_for_graph` on every graph in corpus order, bit for bit.
    """
    graphs = [*corpus, *random_connected_graphs(random_count, seed)]
    keyed, k = _key_columns([n.graph for n in graphs])
    rejected = np.flatnonzero(k.extremes[:, 0] < 1)
    if len(rejected):  # an edgeless key fails the Jensen bound, an isolated vertex K_alpha's
        list(_battery(_key_columns([graphs[keyed.index(rejected[0])].graph])[1]))
    rows = list(_battery(k))

    def stack(i: int, dtype: type) -> np.ndarray:
        return np.stack([np.broadcast_to(r[i], len(k.m)) for r in rows], axis=1).astype(dtype)

    return VerificationTable(
        tuple(r[:2] for r in rows), stack(2, float), stack(3, float),
        stack(4, bool), stack(5, bool), stack(6, bool), [(n.name, b) for n, b in zip(graphs, keyed)],
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
_FLAG_FIELDS = np.array([",".join(format(i, "05b")) for i in range(32)], dtype=object)

# Batteries whose numbers are formatted together.  One block for the whole
# table would save few more conversions but holds every text to the end:
# `verify --random 5000` peak RSS 116 MB, against 64 MB with blocks of 64.
_CELL_BLOCK = 64


def _flag_bits(v: Verdict, predicted, applicable, strict) -> np.ndarray:
    """Each row's five flag columns as a `_FLAG_FIELDS` index."""
    flags = np.stack([predicted, v.equality_observed, applicable, strict, v.ok], axis=-1)
    return flags @ np.array([16, 8, 4, 2, 1])


# 5^k for k = 0..27 (5^27 < 2^63) as 32-bit limbs
_POW5 = np.array([5**k for k in range(28)], dtype=np.uint64)
_POW5_LO, _POW5_HI = _POW5 & 0xFFFFFFFF, _POW5 >> 32
_E16, _E17 = 10**16, 10**17
_BLANK, _POINT, _ZERO = (ord(c) for c in " .0")  # in increasing order


def _digit_words() -> np.ndarray:
    """ASCII digits as uint32 words: entry i < 10,000 is i in four digits,
    entry 10,000 + i the same with its trailing zeros blank, and entry
    20,000 + d three blanks and the digit d."""
    i = np.arange(10_000)
    plain = (np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1) + _ZERO).astype(np.uint8)
    bare = plain.copy()
    bare[np.logical_and.accumulate(plain[:, ::-1] == _ZERO, axis=1)[:, ::-1]] = _BLANK
    lead = np.full((10, 4), _BLANK, dtype=np.uint8)
    lead[:, 3] = np.arange(10) + _ZERO
    return np.concatenate([plain, bare, lead]).view(np.uint32).ravel()


_DIGIT_WORDS = _digit_words()


def _scaled(m: np.ndarray, e: np.ndarray, exp10: np.ndarray) -> tuple[np.ndarray, ...]:
    """floor(m 2^e 10^k) for k = 16 - exp10, whether rounding half to even
    takes it one up, and where both are exact: k in [1, 27] and the shift
    s = -(e + k) in [1, 63].  m < 2^53 times 5^k is one 128-bit product of
    32-bit limbs, shifted right by s."""
    k = 16 - exp10
    s = (-e - k).astype(np.uint64)  # a negative s wraps past 63
    exact = (k >= 1) & (k <= 27) & (s >= 1) & (s <= 63)
    f0, f1 = _POW5_LO.take(k, mode="clip"), _POW5_HI.take(k, mode="clip")
    m0, m1 = m & 0xFFFFFFFF, m >> 32
    lo = m0 * f0
    mid = m1 * f0
    mid += m0 * f1  # < 2^63 + 2^53
    hi = m1 * f1
    hi += mid >> 32
    mid <<= 32
    mid += lo
    hi += mid < lo  # the carry out of the low word
    lo = mid
    del mid, m0, m1, f0, f1
    floor = lo >> s
    floor |= hi << (64 - s)
    exact &= (hi >> s) == 0
    half = np.uint64(1) << (s - 1)
    lo &= (half << 1) - 1  # the remainder, over 2^s
    lo += floor & 1  # a tie goes up from an odd floor only
    return floor, lo > half, exact


def _g17(values: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Where `format(x, ".17g")` of float64 `values` comes from exact integer
    arithmetic, and those texts in order.  That is each x with 1e-11 <= |x|
    < 2^51 whose decimal exponent X lies in [-11, 15] and passes the checks:
    with |x| = m 2^e (`np.frexp`, m < 2^53), the 17 digits are
    D = round-half-even(|x| 10^(16 - X)) from `_scaled`.  X is the one with
    10^16 <= floor(|x| 10^(16 - X)) < 10^17: the float log10 only seeds it,
    and a miss is tried once more at X +- 1.  The texts are `%g`'s: fixed
    notation for -4 <= X < 17, else d.dddde-XX, trailing zeros dropped and
    a point with nothing after it.  Rows are laid out in one blank-padded
    uint8 matrix by slices per run of equal (sign, X), so values sorted by
    bit pattern, as `np.unique` leaves them, take at most two runs per X;
    the matrix is decoded and split at the blanks."""
    size = np.abs(values)
    path = (size >= 1e-11) & (size < 2.0**51)
    size = size[path]
    exp10 = np.floor(np.log10(size)).astype(np.int64)
    m, e = np.frexp(size)
    del size
    m *= 2.0**53
    m, e = m.astype(np.uint64), e.astype(np.int64) - 53
    digits, up, exact = _scaled(m, e, exp10)
    miss = np.flatnonzero((digits < _E16) | (digits >= _E17))
    exp10[miss] += np.where(digits[miss] < _E16, -1, 1)
    digits[miss], up[miss], retried = _scaled(m[miss], e[miss], exp10[miss])
    exact[miss] = retried & (digits[miss] >= _E16) & (digits[miss] < _E17)
    del m, e, miss, retried
    digits += up
    # a carry to 10^17 would need |x| within 5e-18 of a power of ten, relatively,
    # which no float on the path is; it is left to `%`
    exact &= digits < _E17
    del up
    if not exact.all():
        path[path] = exact
        digits, exp10 = digits[exact], exp10[exact]
    negative = np.signbit(values[path])
    n = len(digits)
    if not n:
        return path, []
    # the leading digit, then four words of four digits; a word with only zero
    # words after it is read with its trailing zeros blank
    words = np.empty((n, 5), dtype=np.uint64)
    words[:, 0] = digits // _E16
    digits -= words[:, 0] * _E16
    words[:, 0] += 20_000
    high = digits // 10**8
    digits -= high * 10**8
    for j, part in ((1, high), (3, digits)):
        words[:, j] = part // 10**4
        words[:, j + 1] = part - words[:, j] * 10**4
    del digits, high
    tail = words[:, 4] == 0
    words[:, 4] += 10_000
    for j in (3, 2, 1):
        zero = words[:, j] == 0
        words[:, j] += tail * np.uint64(10_000)
        tail &= zero
    chars = _DIGIT_WORDS.take(words).view(np.uint8)[:, 3:]
    del words, tail, zero
    out = np.full((n, 24), _BLANK, dtype=np.uint8)
    cuts = (np.flatnonzero((np.diff(exp10) != 0) | np.diff(negative)) + 1).tolist()
    for a, b in zip([0, *cuts], [*cuts, n]):
        x, sign = int(exp10[a]), int(negative[a])
        if sign:
            out[a:b, 0] = ord("-")
        row, digit = out[a:b, sign:], chars[a:b]
        if x >= 0:  # x + 1 integer digits (x <= 15 here), their zeros kept
            np.maximum(digit[:, :x + 1], _ZERO, out=row[:, :x + 1])
            np.minimum(digit[:, x + 1], _POINT, out=row[:, x + 1])  # blank before a blank
            row[:, x + 2:18] = digit[:, x + 1:]
        elif x >= -4:  # "0." and -x - 1 zeros first
            row[:, :1 - x] = np.frombuffer(b"0.000", dtype=np.uint8)[:1 - x]
            row[:, 1 - x:18 - x] = digit
        else:  # the exponent right after the last digit kept, over a bare point
            row[:, 0], row[:, 1], row[:, 2:18] = digit[:, 0], _POINT, digit[:, 1:]
            kept = np.count_nonzero(digit != _BLANK, axis=1)
            at = 1 + kept * (kept > 1)
            suffix = np.frombuffer(f"e-{-x:02d}".encode(), dtype=np.uint8)
            row[np.arange(b - a)[:, None], at[:, None] + np.arange(4)] = suffix
    return path, out.tobytes().decode("ascii").split()


def _cells(numbers: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The CSV texts of rows' (lhs, rhs, slack) `numbers`, shaped (..., 3),
    and of their flag `bits`, as (..., 4) strings.  Each distinct float64 bit
    pattern is formatted `.17g` once, so -0.0 and 0.0 keep their own texts:
    by `_g17`'s integer arithmetic where it applies, and the rest (zeros,
    inf, nan and magnitudes outside it) by one `%` over a line template, the
    same C conversion as `format(x, ".17g")`.  No Python call per value."""
    numbers = np.ascontiguousarray(numbers, dtype=float)
    keys, inverse = np.unique(numbers.view(np.uint64), return_inverse=True)
    values = keys.view(float)
    texts = np.empty(len(values), dtype=object)
    path, path_texts = _g17(values)
    texts[path] = path_texts
    rest = tuple(values[~path].tolist())
    texts[~path] = ("%.17g\n" * len(rest) % rest).split("\n")[:-1]
    flags = _FLAG_FIELDS[bits][..., None]
    return np.concatenate([texts[inverse.reshape(numbers.shape)], flags], axis=-1)


def write_reports_csv(
    reports: VerificationTable | Iterable[BoundReport],
    stream: IO[str],
    seed: int | None = None,
    random_count: int | None = None,
) -> None:
    """CSV of report rows; the fuzzing seed is recorded on a comment line.

    A `VerificationTable` has its numbers formatted in blocks of `_CELL_BLOCK`
    batteries, taken in first-use order, and each battery's rows rendered
    once by one %-template whose graph_id places hold a mark character, then
    split at the marks; every graph with the battery's key is written as
    those pieces joined by its own quoted graph_id.  Any other iterable of
    rows is taken into columns and goes through the same cell formatter.
    Quoting matches `csv.writer`.
    """
    if seed is not None:
        stream.write(f"# seed={seed} random_graphs={random_count}\n")
    stream.write(",".join(REPORT_COLUMNS) + "\n")
    if isinstance(reports, VerificationTable):
        t, v = reports, reports.verdict
        labels = [(_csv_field(bound_id), _alpha_field(a)) for bound_id, a in t.labels]
        mark = next(c for c in map(chr, count()) if all(c not in b + a for b, a in labels))
        template = "".join(
            f"{b},{mark},{a},".replace("%", "%%") + "%s,%s,%s,%s\n" for b, a in labels
        )
        bits = _flag_bits(v, t.predicted, t.applicable, t.strict)
        order = list(dict.fromkeys(b for _, b in t.graphs))
        blocks = (order[i:i + _CELL_BLOCK] for i in range(0, len(order), _CELL_BLOCK))
        # a battery's text is kept only while graphs with its key remain: held to the
        # end, the texts raise `verify --random 5000` peak RSS from 64 to 80 MB
        pending = Counter(b for _, b in t.graphs)
        texts: dict[int, list[str]] = {}
        for graph_id, b in t.graphs:
            if b not in texts:  # b opens the next block of the first-use order
                block = next(blocks)
                numbers = np.stack([t.lhs[block], t.rhs[block], v.slack[block]], axis=-1)
                cells = _cells(numbers, bits[block]).reshape(len(block), -1).tolist()
                texts.update(zip(block, ((template % tuple(c)).split(mark) for c in cells)))
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
        cells = _cells(np.stack([lhs, rhs, v.slack], axis=-1), _flag_bits(v, *flags))
        for r, c in zip(rows, cells.tolist()):
            head = (_csv_field(r.bound_id), _csv_field(r.graph_id), _alpha_field(r.alpha))
            stream.write(",".join((*head, *c)) + "\n")
