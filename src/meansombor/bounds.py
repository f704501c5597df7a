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
from dataclasses import dataclass, replace
from typing import IO, Iterable, Iterator, Sequence

from .graphs import (
    Graph,
    NamedGraph,
    all_components_regular,
    default_corpus,
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


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one inequality check, oriented so that lhs <= rhs is the
    claim (slack = rhs - lhs >= -tol means pass)."""

    bound_id: str
    graph_id: str
    alpha: Alpha | None
    lhs: float
    rhs: float
    equality_predicted: bool
    equality_applicable: bool = True
    strict_expected: bool = False

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def tol(self) -> float:
        return 1e-9 * (1.0 + abs(self.lhs) + abs(self.rhs))

    @property
    def passed(self) -> bool:
        return self.slack >= -self.tol

    @property
    def equality_observed(self) -> bool:
        return abs(self.slack) <= self.tol

    @property
    def ok(self) -> bool:
        """Pass plus, where applicable, the equality biconditional and the
        expected strictness."""
        if not self.passed:
            return False
        if self.equality_applicable and self.equality_predicted != self.equality_observed:
            return False
        if self.strict_expected and not self.slack > 1e-12 * (1.0 + abs(self.lhs) + abs(self.rhs)):
            return False
        return True


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


def check_chain(g: Graph, graph_id: str = "") -> list[BoundReport]:
    """The five-term special-value chain
    2 ISI <= R^{-1} <= 2^{-2} KA(1/2,2) <= M1/2 <= 2^{-1/2} SO:
    mSO's monotonicity through the rows of `indices.SPECIAL_VALUES` at
    a = -1, 0, 1/2, 1 and 2, each term computed once from the row's own
    classical edge/vertex sum, not through the power mean."""
    terms = [fn(g) for a, _, fn in SPECIAL_VALUES if -1.0 <= a <= 2.0]
    ids = ("chain-2isi-r1", "chain-r1-ka", "chain-ka-m1", "chain-m1-so")
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
        for bid, lhs, rhs in zip(ids, terms, terms[1:])
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
        predicted = regularity_class(g).tag in (RegularityTag.REGULAR, RegularityTag.BIREGULAR)
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
        equality_predicted=regularity_class(g).tag is RegularityTag.REGULAR,
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


@dataclass(frozen=True)
class VerificationTable:
    """The rows of a sweep, stored once per profile key.

    `batteries` maps each (degree pairs, vertex count, connected) key to the
    rows of `checks_for_graph` for the first graph with that key; `graphs`
    lists every (graph_id, key) in corpus order.  Iterating the table yields
    each graph's rows under its own graph_id, the same `BoundReport` rows in
    the same order as running `checks_for_graph` on every graph, and it may
    be iterated more than once.
    """

    batteries: dict[tuple, list[BoundReport]]
    graphs: list[tuple[str, tuple]]

    def __len__(self) -> int:
        return sum(len(self.batteries[key]) for _, key in self.graphs)

    def __iter__(self) -> Iterator[BoundReport]:
        for gid, key in self.graphs:
            for r in self.batteries[key]:
                yield r if r.graph_id == gid else replace(r, graph_id=gid)

    def failures(self) -> tuple[int, BoundReport | None]:
        """The number of rows that are not ok, and the first of them with the
        smallest slack in row order (None when every row is ok).

        Each battery's failures count once per graph sharing its key; the
        worst row is reported under the first graph with its key.
        """
        weights = Counter(key for _, key in self.graphs)
        first = {}
        for gid, key in self.graphs:
            first.setdefault(key, gid)
        count, worst = 0, None
        for key, gid in first.items():
            bad = [r for r in self.batteries[key] if not r.ok]
            count += weights[key] * len(bad)
            for r in bad:
                if worst is None or r.slack < worst.slack:
                    worst = replace(r, graph_id=gid)
        return count, worst


def run_verification(
    corpus: Sequence[NamedGraph] | None = None,
    random_count: int = 1000,
    seed: int = DEFAULT_RANDOM_SEED,
) -> VerificationTable:
    """Sweep all checks over the corpus plus seeded random connected graphs.

    Every check is a function of the degree-pair profile, the vertex count
    and connectivity, so the battery runs once per such key and the returned
    table stores its rows once; iterating the table gives every graph's rows
    under its own graph_id.  Nothing outlives this call but the table.  The
    row order is deterministic for fixed inputs and equals running
    `checks_for_graph` on every graph.
    """
    graphs = list(default_corpus() if corpus is None else corpus)
    if random_count > 0:
        graphs.extend(random_connected_graphs(random_count, seed))
    batteries: dict[tuple, list[BoundReport]] = {}
    keyed: list[tuple[str, tuple]] = []
    for named in graphs:
        g = named.graph
        key = (g.degree_pairs, g.vertex_count, is_connected(g))
        if key not in batteries:
            batteries[key] = checks_for_graph(named)
        keyed.append((named.name, key))
    return VerificationTable(batteries, keyed)


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


def _row_tail(r: BoundReport) -> str:
    """The CSV columns after graph_id, without the line end."""
    return ",".join((
        _csv_field(r.alpha.token()) if r.alpha is not None else "",
        format(r.lhs, ".17g"),
        format(r.rhs, ".17g"),
        format(r.slack, ".17g"),
        str(int(r.equality_predicted)),
        str(int(r.equality_observed)),
        str(int(r.equality_applicable)),
        str(int(r.strict_expected)),
        str(int(r.ok)),
    ))


def _lines_around_graph_id(rows: Sequence[BoundReport]) -> list[str]:
    """The rows' CSV lines split at their graph_id fields, so that
    `field.join(parts)` gives the lines of the rows under that graph_id."""
    heads = [_csv_field(r.bound_id) + "," for r in rows]
    tails = ["," + _row_tail(r) + "\n" for r in rows]
    return [t + h for t, h in zip([""] + tails, heads + [""])]


def write_reports_csv(
    reports: VerificationTable | Iterable[BoundReport],
    stream: IO[str],
    seed: int | None = None,
    random_count: int | None = None,
) -> None:
    """CSV of report rows; the fuzzing seed is recorded on a comment line.

    A `VerificationTable` has each battery row formatted once, after
    graph_id, and every graph sharing its key written as that text around
    its own quoted graph_id; the text is dropped after the last such graph.
    Any other iterable of rows goes through the same formatter row by row.
    Quoting matches `csv.writer`.
    """
    if seed is not None:
        stream.write(f"# seed={seed} random_graphs={random_count}\n")
    stream.write(",".join(REPORT_COLUMNS) + "\n")
    if isinstance(reports, VerificationTable):
        # a battery's text is kept only while graphs with its key remain
        pending = Counter(key for _, key in reports.graphs)
        texts: dict[tuple, list[str]] = {}
        for gid, key in reports.graphs:
            text = texts.pop(key, None)
            if text is None:
                text = _lines_around_graph_id(reports.batteries[key])
            pending[key] -= 1
            if pending[key]:
                texts[key] = text
            stream.write(_csv_field(gid).join(text))
    else:
        for r in reports:
            stream.write(_csv_field(r.graph_id).join(_lines_around_graph_id([r])))
