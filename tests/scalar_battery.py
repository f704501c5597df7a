"""The scalar bound battery: each check evaluated on one graph with the
graph's own index functions, the reference the battery's key columns
(`meansombor.bounds`) are compared against bit for bit.  Every public
`check_*` of `bounds` is a one-key view of a family of columns; the
functions here are the independent per-graph formulas.  The variance-identity
rows call `spectral.variance_identity`, which is the sweep's column form on
one key; `test_variance_identity_matches_separate_edge_sums` checks that
against separate per-graph edge sums.  `regularity_class` reads the degree
structure off the graph, and `table_rows` gives a sweep table's rows as
reports, graph by graph.  `degree_pairs` counts a graph's degree-pair
profile edge by edge, the reference for `indices.degree_pair_entries`, and
`profile_table` makes the `indices.ProfileSums` of any multisets.
"""

import math
from collections import Counter
from enum import Enum

import numpy as np

from meansombor.bounds import (
    JENSEN_ALPHAS,
    KALPHA_ALPHAS,
    MONOTONICITY_GRID,
    POWERSUM_ALPHAS,
    POWERSUM_BETAS,
    SANDWICH_ALPHAS,
    VARIANCE_ALPHAS,
    BoundReport,
    VerificationTable,
    kalpha_constant,
)
from meansombor.graphs import Graph, NamedGraph, degree_extremes, is_connected
from meansombor.indices import (
    SPECIAL_VALUES,
    Alpha,
    ProfileSums,
    first_zagreb,
    ka_index,
    mean_sombor,
    pair_sum,
    reciprocal_randic,
    sombor,
    variable_first_zagreb,
)
from meansombor.spectral import variance_identity


def degree_pairs(g: Graph) -> tuple[tuple[tuple[int, int], int], ...]:
    """Degree-pair profile counted over the edges: the distinct (d_lo, d_hi)
    endpoint-degree pairs in sorted order, each with its edge count."""
    deg = g.degrees
    counts = Counter((deg[u], deg[v]) if deg[u] <= deg[v] else (deg[v], deg[u]) for u, v in g.edges)
    return tuple(sorted(counts.items()))


def profile_table(multisets) -> ProfileSums:
    """The `ProfileSums` with one key per multiset of (item, count) entries,
    each key's entries in the multiset's order; its items are the sorted
    distinct items."""
    items = sorted({x for ms in multisets for x, _ in ms})
    index = {x: i for i, x in enumerate(items)}
    item = np.array([index[x] for ms in multisets for x, _ in ms], dtype=np.intp)
    count = np.array([c for ms in multisets for _, c in ms], dtype=np.int64)
    return ProfileSums(items, item, count, [len(ms) for ms in multisets])


class RegularityTag(Enum):
    REGULAR = "regular"
    BIREGULAR = "biregular"
    NEITHER = "neither"


def regularity_class(g: Graph) -> RegularityTag:
    """Classify a graph's degree structure.  Regular: one degree value
    everywhere.  Biregular: exactly two distinct degrees a != b, and every
    edge joins an a-degree vertex to a b-degree vertex.  Anything else
    (including the empty edge set) is Neither."""
    if not g.edges:
        return RegularityTag.NEITHER
    distinct = tuple(sorted(set(g.degrees)))
    if len(distinct) == 1:
        return RegularityTag.REGULAR
    if len(distinct) == 2 and all(p == distinct for p, _ in degree_pairs(g)):
        return RegularityTag.BIREGULAR
    return RegularityTag.NEITHER


def all_components_regular(g: Graph) -> bool:
    """True iff every connected component has a single degree value.

    Equivalent to every edge joining two vertices of equal degree, which is
    the equality condition shared by several of the bound checks.
    """
    return all(lo == hi for (lo, hi), _ in degree_pairs(g))


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
    a = -1, 0, 1/2, 1 and 2, each term the row's scale times the graph's
    edge sum of the row's classical term, not the power mean."""
    terms = [scale * pair_sum(g, term) for a, _, scale, term in SPECIAL_VALUES if -1.0 <= a <= 2.0]
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
    terms = [x**alpha + y**alpha for (x, y), _ in degree_pairs(g)]
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


def reference_verdict(lhs, rhs, predicted, applicable=True, strict=False):
    """The verdict rule written out on one row's floats and bools:
    (slack, tol, passed, equality observed, ok)."""
    slack = rhs - lhs
    scale = 1.0 + abs(lhs) + abs(rhs)
    tol = 1e-9 * scale
    passed = slack >= -tol
    observed = abs(slack) <= tol
    ok = passed and (not applicable or predicted == observed) and (
        not strict or slack > 1e-12 * scale
    )
    return slack, tol, passed, observed, ok


def table_rows(table: VerificationTable) -> list[BoundReport]:
    """The rows of a sweep table as reports: each graph's battery, in corpus
    order, under its own graph_id."""
    columns = (table.lhs, table.rhs, table.predicted, table.applicable, table.strict)
    return [
        BoundReport(bound_id, graph_id, alpha, *values)
        for graph_id, b in table.graphs
        for (bound_id, alpha), *values in zip(table.labels, *(c[b].tolist() for c in columns))
    ]
