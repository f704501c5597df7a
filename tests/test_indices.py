"""Power mean, mean Sombor index, and the classical index family.

The production power mean uses the overflow-safe factored form; the oracle
here evaluates the defining formula naively, so the two paths are
independent wherever both are representable.
"""

import math
import random
from collections import Counter

import numpy as np
import pytest

from meansombor import bounds
from meansombor.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    default_corpus,
    disjoint_union,
    enumerate_octane_skeletons,
    path_graph,
    random_connected_graphs,
    star_graph,
)
from meansombor.indices import (
    ALPHA_MINUS_INF,
    ALPHA_PLUS_INF,
    Alpha,
    SPECIAL_VALUES,
    ZERO_LIMIT,
    alpha_sombor,
    descriptor_matrix,
    first_zagreb,
    inverse_sum_indeg,
    ka_index,
    max_edge_sum,
    mean_sombor,
    min_edge_sum,
    pair_sum,
    parse_alpha,
    power_mean,
    power_mean_grid,
    reciprocal_randic,
    sombor,
    variable_first_zagreb,
)
from meansombor.qspr import AlphaGrid
from meansombor.spectral import edge_term_stats
import scalar_kernel
from scalar_battery import (
    RegularityTag,
    all_components_regular,
    degree_pairs,
    profile_table,
    regularity_class,
)


def naive_power_mean(x, y, alpha):
    return ((x**alpha + y**alpha) / 2.0) ** (1.0 / alpha)


def naive_mean_sombor(g, alpha):
    deg = g.degrees
    return sum(naive_power_mean(deg[u], deg[v], alpha) for u, v in g.edges)


# ---------------------------------------------------------------------------
# power mean
# ---------------------------------------------------------------------------

def test_power_mean_of_equal_values_is_exact():
    for a in (Alpha.finite(-7), Alpha.finite(0.3), Alpha.finite(250), ZERO_LIMIT,
              ALPHA_PLUS_INF, ALPHA_MINUS_INF):
        assert power_mean(4, 4, a) == 4.0


def test_power_mean_special_values():
    assert power_mean(4, 9, ZERO_LIMIT) == pytest.approx(6.0, abs=1e-14)
    assert power_mean(2, 8, Alpha.finite(-1)) == pytest.approx(3.2, abs=1e-14)
    assert power_mean(1, 2, ALPHA_MINUS_INF) == 1.0
    assert power_mean(1, 2, ALPHA_PLUS_INF) == 2.0


def test_power_mean_rejects_nonpositive():
    with pytest.raises(ValueError):
        power_mean(0, 3, Alpha.finite(1))
    with pytest.raises(ValueError):
        power_mean(2, -1, ZERO_LIMIT)


def test_alpha_sombor_rejects_zero_exponent():
    with pytest.raises(ValueError, match="needs a nonzero exponent"):
        alpha_sombor(path_graph(3), 0.0)


def test_power_mean_matches_naive_formula():
    rng = random.Random(17)
    for _ in range(500):
        x = rng.uniform(0.2, 40)
        y = rng.uniform(0.2, 40)
        alpha = rng.choice([-5, -2, -1, -0.5, 0.25, 0.5, 1, 2, 3, 7])
        assert power_mean(x, y, Alpha.finite(alpha)) == pytest.approx(
            naive_power_mean(x, y, alpha), rel=1e-12
        )


def test_power_mean_stays_between_min_and_max():
    rng = random.Random(23)
    for _ in range(500):
        x, y = rng.uniform(0.5, 20), rng.uniform(0.5, 20)
        a = rng.choice(
            [Alpha.finite(rng.uniform(-30, 30) or 1.0), ZERO_LIMIT,
             ALPHA_PLUS_INF, ALPHA_MINUS_INF]
        )
        v = power_mean(x, y, a)
        assert min(x, y) - 1e-12 <= v <= max(x, y) + 1e-12


def test_power_mean_no_overflow_at_huge_exponents():
    for alpha in (300.0, 1000.0, -300.0, -1000.0):
        v = power_mean(3, 500, Alpha.finite(alpha))
        assert math.isfinite(v)
    # naive form overflows here, the factored form must not
    assert math.isfinite(power_mean(2, 10, Alpha.finite(400)))


def test_power_mean_geometric_mean_outside_normal_products():
    # x * y overflows or underflows here; sqrt(x) sqrt(y) does not
    for x, y in ((1e200, 1e199), (1e-200, 1e-190)):
        rx, ry = math.sqrt(x), math.sqrt(y)
        want = {
            ZERO_LIMIT: rx * ry,
            Alpha.finite(0.5): ((rx + ry) / 2.0) ** 2,
            Alpha.finite(-0.5): ((1.0 / rx + 1.0 / ry) / 2.0) ** -2,
        }
        grid = power_mean_grid([(x, y)], list(want))[0]
        for (a, v), g in zip(want.items(), grid):
            assert power_mean(x, y, a) == pytest.approx(v, rel=1e-14)
            assert g == pytest.approx(v, rel=1e-14)

def test_power_mean_near_zero_exponent():
    # the direct form rounds 1 + t^a to 2 here and returned the maximum (4.0
    # at 1e-300, 2.0096 at 1e-14); the cosh-form branch keeps a few ulps
    assert power_mean(1, 4, Alpha.finite(1e-300)) == pytest.approx(2.0, rel=5e-16)
    assert power_mean(1, 4, Alpha.finite(-1e-300)) == pytest.approx(2.0, rel=5e-16)
    exact = 2.0 * (1.0 + 1e-14 * math.log(4.0) ** 2 / 8.0)  # first order in a
    assert power_mean(1, 4, Alpha.finite(1e-14)) == pytest.approx(exact, rel=5e-16)
    # subnormal exponents round to the geometric mean instead of losing digits
    assert power_mean(1, 4, Alpha.finite(5e-324)) == pytest.approx(2.0, rel=5e-16)


# ---------------------------------------------------------------------------
# mean Sombor
# ---------------------------------------------------------------------------

def test_mean_sombor_examples(p3, k3, k13):
    assert mean_sombor(k3, Alpha.finite(2)) == pytest.approx(6.0, rel=1e-14)
    assert mean_sombor(p3, Alpha.finite(1)) == pytest.approx(3.0, rel=1e-14)
    assert mean_sombor(k13, Alpha.finite(2)) == pytest.approx(3 * math.sqrt(5), rel=1e-14)
    assert mean_sombor(p3, ALPHA_PLUS_INF) == 4.0
    assert mean_sombor(p3, ALPHA_MINUS_INF) == 2.0


def test_mean_sombor_matches_naive_oracle():
    for named in default_corpus()[:40]:
        for alpha in (-3, -1, 0.5, 1, 2, 3):
            assert mean_sombor(named.graph, Alpha.finite(alpha)) == pytest.approx(
                naive_mean_sombor(named.graph, alpha), rel=1e-12
            )


def _regularity_per_edge(g):
    """Reference regularity_class: biregular means every edge joins the
    two distinct degree values."""
    if not g.edges:
        return RegularityTag.NEITHER
    distinct = sorted(set(g.degrees))
    if len(distinct) == 1:
        return RegularityTag.REGULAR
    if len(distinct) == 2 and all(
        {g.degrees[u], g.degrees[v]} == set(distinct) for u, v in g.edges
    ):
        return RegularityTag.BIREGULAR
    return RegularityTag.NEITHER


def test_mean_sombor_over_degree_pairs_is_bit_identical_to_edge_sum():
    """Every edge sum read through the degree-pair profile equals the fsum
    of its per-edge terms exactly, and the profile-based structure tests
    agree with their per-edge definitions."""
    sweep = {
        *bounds.MONOTONICITY_GRID,
        *bounds.SANDWICH_ALPHAS,
        *bounds.VARIANCE_ALPHAS,
        *(
            Alpha.finite(x)
            for x in (*bounds.JENSEN_ALPHAS, *bounds.KALPHA_ALPHAS, *bounds.POWERSUM_ALPHAS, 2.0)
        ),
    }
    ka_params = [(0.5, 2.0)] + [
        (a, b) for a in bounds.POWERSUM_ALPHAS for b in bounds.POWERSUM_BETAS
    ]
    named = default_corpus() + random_connected_graphs(200, seed=11)
    extra = [
        disjoint_union(complete_graph(3), cycle_graph(5)),  # regular components
        disjoint_union(complete_bipartite(2, 3), complete_bipartite(3, 2)),  # biregular
        disjoint_union(star_graph(3), complete_bipartite(2, 2)),
        disjoint_union(path_graph(4), complete_graph(4)),
        disjoint_union(complete_bipartite(2, 3), Graph(1, frozenset())),
        Graph.from_edges(6, [(0, 1), (1, 2), (2, 0)]),  # triangle + isolated
        Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)]),  # star + isolated
        Graph(4, frozenset()),
    ]
    for g in [ng.graph for ng in named] + extra:
        deg = g.degrees
        edge_pairs = [tuple(sorted((deg[u], deg[v]))) for u, v in g.edge_list]
        assert dict(degree_pairs(g)) == Counter(edge_pairs)
        assert [p for p, _ in degree_pairs(g)] == sorted(set(edge_pairs))
        for a in sweep:
            per_edge = math.fsum(power_mean(deg[u], deg[v], a) for u, v in g.edge_list)
            assert mean_sombor(g, a) == per_edge
        ends = [(deg[u], deg[v]) for u, v in g.edge_list]
        assert inverse_sum_indeg(g) == math.fsum(x * y / (x + y) for x, y in ends)
        assert reciprocal_randic(g) == math.fsum(math.sqrt(x * y) for x, y in ends)
        assert sombor(g) == math.fsum(math.hypot(x, y) for x, y in ends)
        for a, b in ka_params:
            assert ka_index(g, a, b) == math.fsum((x**a + y**a) ** b for x, y in ends)
        assert min_edge_sum(g) == float(sum(min(x, y) for x, y in ends))
        assert max_edge_sum(g) == float(sum(max(x, y) for x, y in ends))
        if ends:
            for a in bounds.VARIANCE_ALPHAS:
                terms = [power_mean(x, y, a) for x, y in ends]
                mean = math.fsum(terms) / len(terms)
                stats = edge_term_stats(g, a)
                assert stats.m == len(terms)
                assert stats.mean == mean
                assert stats.sigma2 == math.fsum((t - mean) ** 2 for t in terms) / len(terms)
        assert all_components_regular(g) == all(x == y for x, y in ends)
        assert regularity_class(g) == _regularity_per_edge(g)
    tags = {regularity_class(g) for g in extra}
    assert tags == {RegularityTag.REGULAR, RegularityTag.BIREGULAR, RegularityTag.NEITHER}


def _same_bits(got, want):
    return [float.hex(v) for v in got] == [float.hex(v) for v in want]


def test_power_mean_grid_matches_scalar_kernel():
    points = AlphaGrid().points()
    pairs = [(x, y) for x in range(1, 13) for y in range(x, 13)]
    grid = power_mean_grid(pairs, points)
    assert grid.shape == (len(pairs), len(points))
    for (x, y), row in zip(pairs, grid.tolist()):
        want = [scalar_kernel.power_mean(x, y, a) for a in points]
        assert _same_bits(row, want), (x, y)
        assert _same_bits([power_mean(x, y, a) for a in points], want), (x, y)
    # a pair gives the same row in either orientation
    assert (power_mean_grid([(4, 1)], points) == power_mean_grid([(1, 4)], points)).all()
    with pytest.raises(ValueError):
        power_mean_grid([(0, 2)], points)


def _straddle(ln_r, sign):
    # the exponents just below and just above |a ln_r| = 37, where the kernel
    # leaves the cosh form for the max-factored form
    a = sign * 37.0 / ln_r
    while abs(a * ln_r) >= 37.0:
        a = math.nextafter(a, 0.0)
    below = a
    while abs(a * ln_r) < 37.0:
        a = math.nextafter(a, sign * math.inf)
    return below, a


def test_power_mean_row_matches_scalar_oracle_at_its_branch_edges():
    subnormal = [5e-324, -5e-324, 1e-310, -2.5e-320]
    limits = [ZERO_LIMIT, ALPHA_MINUS_INF, ALPHA_PLUS_INF]
    cases = []
    for x, y in ((1e20, 1.0), (7e40, 3.0), (1e300, 1e-300)):
        ln_r = math.log(x / y) if x / y < math.inf else math.log(x) - math.log(y)
        edges = [*_straddle(ln_r, 1.0), *_straddle(ln_r, -1.0)]
        assert [abs(a * ln_r) < 37.0 for a in edges] == [True, False] * 2
        assert all(abs(a) < 1.0 for a in edges)
        cases.append((x, y, edges))
    # hi/lo overflows: ln(hi/lo) is taken as ln(hi) - ln(lo), in both forms
    cases.append((1e308, 1e-10, [0.5, -0.5, 0.999, -0.999, 2.0, -2.0, 1e-300, *subnormal]))
    cases.append((1e-10, 1e308, [0.5, -2.0]))
    cases += [(2, 3, subnormal), (1, 4096, subnormal), (4096, 1, subnormal)]
    # equal pairs give the common value, but sqrt(x x) at the 0-limit, which
    # differs from x where x x leaves the normal range
    for x in (7e-170, 8.881884810004785e199, 2.5):
        cases.append((x, x, [0.5, -3.0, 1e-300, *subnormal]))
    for x in (7e-170, 8.881884810004785e199):
        assert scalar_kernel.power_mean(x, x, ZERO_LIMIT) != x
    for x, y, finite in cases:
        alphas = [*map(Alpha.finite, finite), *limits]
        want = [scalar_kernel.power_mean(x, y, a) for a in alphas]
        assert _same_bits(power_mean_grid([(x, y)], alphas)[0].tolist(), want), (x, y)
        assert _same_bits([power_mean(x, y, a) for a in alphas], want), (x, y)
    # a nonpositive argument is rejected with the oracle's message
    for x, y in ((0, 2), (3, -1.5), (-0.0, 1)):
        with pytest.raises(ValueError) as want:
            scalar_kernel.power_mean(x, y, Alpha.finite(2))
        for run in (lambda: power_mean(x, y, Alpha.finite(2)),
                    lambda: power_mean_grid([(1, 1), (x, y)], [ZERO_LIMIT])):
            with pytest.raises(ValueError) as got:
                run()
            assert str(got.value) == str(want.value)


def test_descriptor_matrix_matches_mean_sombor():
    graphs = [s.graph for s in enumerate_octane_skeletons()] + [complete_graph(5)]
    points = AlphaGrid(-3, 3, 0.25).points()
    x = descriptor_matrix(profile_table([degree_pairs(g) for g in graphs]), points)
    assert x.shape == (len(graphs), len(points))
    for g, row in zip(graphs, x.tolist()):
        for a, v in zip(points, row):
            assert v == pytest.approx(mean_sombor(g, a), rel=1e-13, abs=0.0)


def _count_loop_descriptor_matrix(graphs, alphas):
    """The descriptor matrix as it was built from graphs: its own sorted pair
    list, column map and count loop, then the same product."""
    pairs = sorted({p for g in graphs for p, _ in degree_pairs(g)})
    column = {p: j for j, p in enumerate(pairs)}
    counts = np.zeros((len(graphs), len(pairs)))
    for i, g in enumerate(graphs):
        for p, c in degree_pairs(g):
            counts[i, column[p]] = c
    return counts @ power_mean_grid(pairs, alphas)


def test_descriptor_matrix_matches_the_count_loop_bit_for_bit():
    octanes = [s.graph for s in enumerate_octane_skeletons()]
    mixed = [n.graph for n in default_corpus()[:40] + random_connected_graphs(10, seed=12)]
    for graphs, grid in ((octanes, AlphaGrid()), (mixed, AlphaGrid(-3, 3, 0.05))):
        points = grid.points()
        x = descriptor_matrix(profile_table([degree_pairs(g) for g in graphs]), points)
        want = _count_loop_descriptor_matrix(graphs, points)
        assert x.shape == want.shape
        assert x.tobytes() == want.tobytes()


def test_regular_graph_value_is_bit_identical_across_alpha():
    for g in (complete_graph(4), complete_graph(6)):
        baseline = mean_sombor(g, Alpha.finite(1))
        for alpha in (-250, -3, 0.125, 2, 9, 250):
            assert mean_sombor(g, Alpha.finite(alpha)) == baseline


def test_bounds_m_delta(p3):
    for named in default_corpus():
        g = named.graph
        lo, hi = min(g.degrees), max(g.degrees)
        m = g.edge_count
        for a in (Alpha.finite(-4), ZERO_LIMIT, Alpha.finite(2), ALPHA_PLUS_INF):
            v = mean_sombor(g, a)
            assert m * lo - 1e-9 <= v <= m * hi + 1e-9


def test_zero_limit_consistency():
    # finite exponent 1e-6 must agree with the geometric-mean limit
    for named in default_corpus()[:30]:
        v_eps = mean_sombor(named.graph, Alpha.finite(1e-6))
        v_lim = mean_sombor(named.graph, ZERO_LIMIT)
        assert v_eps == pytest.approx(v_lim, rel=1e-4)


def test_infinite_limit_envelope():
    # mSO_inf * 2^(-1/a) <= mSO_a <= mSO_inf for a > 0 (mirrored below 0):
    # the approach rate to the limit is exactly the 2^(1/|a|) envelope, so
    # at a = +-40 agreement holds to 2^(1/40) - 1 ~ 1.75e-2 relative and no
    # tighter bound exists for graphs with an unbalanced edge
    for named in default_corpus()[:40]:
        g = named.graph
        if max(g.degrees) > 8:
            continue
        hi = mean_sombor(g, ALPHA_PLUS_INF)
        lo = mean_sombor(g, ALPHA_MINUS_INF)
        v40 = mean_sombor(g, Alpha.finite(40))
        vm40 = mean_sombor(g, Alpha.finite(-40))
        assert hi * 2 ** (-1 / 40) - 1e-9 <= v40 <= hi + 1e-9
        assert lo - 1e-9 <= vm40 <= lo * 2 ** (1 / 40) + 1e-9
        assert v40 == pytest.approx(hi, rel=2 ** (1 / 40) - 1 + 1e-9)
        assert vm40 == pytest.approx(lo, rel=2 ** (1 / 40) - 1 + 1e-9)


def test_monotone_in_alpha_small():
    grid = [ALPHA_MINUS_INF, Alpha.finite(-2), ZERO_LIMIT, Alpha.finite(1),
            Alpha.finite(4), ALPHA_PLUS_INF]
    for named in default_corpus()[:30]:
        vals = [mean_sombor(named.graph, a) for a in grid]
        assert all(v1 <= v2 + 1e-10 for v1, v2 in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# classical indices and the special-case identities
# ---------------------------------------------------------------------------

def test_classical_examples(p3, k3, k13):
    assert first_zagreb(k13) == 12.0
    assert inverse_sum_indeg(k13) == pytest.approx(2.25, rel=1e-14)
    assert sombor(p3) == pytest.approx(2 * math.sqrt(5), rel=1e-14)
    assert ka_index(k3, 3, 1 / 3) == pytest.approx(3 * 16 ** (1 / 3), rel=1e-14)


def test_special_case_identities_on_corpus():
    corpus = default_corpus() + random_connected_graphs(25, seed=9)
    for named in corpus:
        g = named.graph
        m1 = first_zagreb(g)
        assert mean_sombor(g, Alpha.finite(-1)) == pytest.approx(
            2 * inverse_sum_indeg(g), rel=1e-12
        )
        assert mean_sombor(g, ZERO_LIMIT) == pytest.approx(reciprocal_randic(g), rel=1e-12)
        assert mean_sombor(g, Alpha.finite(1)) == pytest.approx(m1 / 2, rel=1e-12)
        assert mean_sombor(g, Alpha.finite(2)) == pytest.approx(
            2**-0.5 * sombor(g), rel=1e-12
        )
        assert mean_sombor(g, Alpha.finite(0.5)) == pytest.approx(
            2**-2 * ka_index(g, 0.5, 2), rel=1e-12
        )
        for alpha in (0.5, 3, -2.5):
            assert mean_sombor(g, Alpha.finite(alpha)) == pytest.approx(
                2 ** (-1 / alpha) * ka_index(g, alpha, 1 / alpha),
                rel=1e-12,
            )
            assert mean_sombor(g, Alpha.finite(alpha)) == pytest.approx(
                2 ** (-1 / alpha) * alpha_sombor(g, alpha),
                rel=1e-12,
            )
        assert mean_sombor(g, ALPHA_MINUS_INF) == min_edge_sum(g)
        assert mean_sombor(g, ALPHA_PLUS_INF) == max_edge_sum(g)


def test_special_values_table_matches_mean_sombor():
    # the Table-2 rows that compute prints and the chain family orders
    exponents = [a for a, _, _, _ in SPECIAL_VALUES]
    assert all(a1 < a2 for a1, a2 in zip(exponents, exponents[1:]))
    for named in default_corpus() + random_connected_graphs(25, seed=9):
        g = named.graph
        for a, label, scale, term in SPECIAL_VALUES:
            value = scale * pair_sum(g, term)
            if math.isinf(a):
                assert value == mean_sombor(g, a), (named.name, label)
            else:
                assert value == pytest.approx(mean_sombor(g, a), rel=1e-12), (named.name, label)


# Each Table-2 row through the public classical function of its label.
CLASSICAL_BY_LABEL = {
    "SP-min": min_edge_sum,
    "2*ISI": lambda g: 2.0 * inverse_sum_indeg(g),
    "R^-1": reciprocal_randic,
    "2^-2*KA1[0.5,2]": lambda g: 0.25 * ka_index(g, 0.5, 2.0),
    "M1/2": lambda g: first_zagreb(g) / 2.0,
    "2^-1/2*SO": lambda g: 2.0**-0.5 * sombor(g),
    "2^-1/3*KA1[3,1/3]": lambda g: 2.0 ** (-1 / 3) * ka_index(g, 3.0, 1 / 3),
    "SP-max": max_edge_sum,
}


def test_special_values_rows_equal_their_classical_functions_bit_for_bit():
    assert [label for _, label, _, _ in SPECIAL_VALUES] == list(CLASSICAL_BY_LABEL)
    for named in default_corpus() + random_connected_graphs(25, seed=9):
        g = named.graph
        for _, label, scale, term in SPECIAL_VALUES:
            got, want = scale * pair_sum(g, term), CLASSICAL_BY_LABEL[label](g)
            assert got.hex() == float(want).hex(), (named.name, label)


def test_variable_first_zagreb_equals_edge_sum():
    # sum over vertices of d^(a+1) == sum over edges of (d_u^a + d_v^a)
    for named in default_corpus()[:25]:
        g = named.graph
        deg = g.degrees
        for alpha in (-2, -0.5, 1, 2.5):
            lhs = variable_first_zagreb(g, alpha + 1.0)
            rhs = sum(deg[u] ** alpha + deg[v] ** alpha for u, v in g.edges)
            assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# Alpha parsing and ordering
# ---------------------------------------------------------------------------

def test_alpha_ordering():
    assert ALPHA_MINUS_INF < Alpha.finite(-100) < ZERO_LIMIT
    assert ZERO_LIMIT < Alpha.finite(1e-9) < Alpha.finite(3) < ALPHA_PLUS_INF
    assert Alpha.finite(-0.5) < ZERO_LIMIT


def test_alpha_validation():
    with pytest.raises(ValueError):
        Alpha.finite(0.0)
    with pytest.raises(ValueError):
        Alpha.finite(math.inf)
    with pytest.raises(ValueError):
        Alpha.finite(math.nan)
    with pytest.raises(ValueError):
        Alpha(math.nan)
    assert Alpha(-0.0).token() == "0-limit"


def test_parse_alpha_underflow_is_not_a_zero():
    # a nonzero decimal whose float underflows to 0.0 is too small, not a zero
    for token in ("1e-400", "-1e-400", "2e-324"):
        with pytest.raises(ValueError, match="below the smallest representable exponent"):
            parse_alpha(token)
    for token in ("0.0", "-0", "0e5"):
        with pytest.raises(ValueError, match="literal '0'"):
            parse_alpha(token)
    assert parse_alpha("5e-324") == Alpha.finite(5e-324)


def test_parse_alpha_tokens():
    assert parse_alpha("0") == ZERO_LIMIT
    assert parse_alpha("inf") == ALPHA_PLUS_INF
    assert parse_alpha("+inf") == ALPHA_PLUS_INF
    assert parse_alpha("-inf") == ALPHA_MINUS_INF
    assert parse_alpha("-4.23") == Alpha.finite(-4.23)
    with pytest.raises(ValueError, match="literal '0'"):
        parse_alpha("0.0")
    with pytest.raises(ValueError, match="use 'inf'/'-inf'"):
        parse_alpha("1e400")
    with pytest.raises(ValueError, match="cannot parse alpha 'abc'"):
        parse_alpha("abc")
    with pytest.raises(ValueError, match="cannot parse alpha 'nan'"):
        parse_alpha("nan")
    assert parse_alpha("2").token() == "2"
    assert ZERO_LIMIT.token() == "0-limit"
