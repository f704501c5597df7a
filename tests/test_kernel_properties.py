"""Property tests of the power-mean kernel over the extended exponent line.

The oracle is mpmath at 60 digits, and at 700 digits for |a| < 1e-6, where
(x^a + y^a)/2 differs from 1 only beyond the 60th digit.  Exponents are
drawn log-uniformly in magnitude over [1e-300, 1e6].
"""

import math
import warnings
from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")
from hypothesis import given
from hypothesis import strategies as st

from meansombor.graphs import Graph, default_corpus, random_connected_graphs
from meansombor.indices import (
    ALPHA_MINUS_INF,
    ALPHA_PLUS_INF,
    Alpha,
    ProfileSums,
    ZERO_LIMIT,
    mean_sombor,
    pair_sum,
    power_mean,
    power_mean_grid,
)
import scalar_kernel

EPS = 2.0**-52
GRAPHS = [ng.graph for ng in default_corpus() + random_connected_graphs(40, seed=3)]

degrees = st.integers(min_value=1, max_value=4096)
finite_exponents = st.builds(
    lambda sign, e: Alpha.finite(sign * 10.0**e),
    st.sampled_from((-1.0, 1.0)),
    st.floats(min_value=-300.0, max_value=6.0),
)
exponents = st.one_of(
    finite_exponents, st.sampled_from((ZERO_LIMIT, ALPHA_MINUS_INF, ALPHA_PLUS_INF))
)


def oracle(x: int, y: int, a: float):
    with mpmath.workdps(700 if abs(a) < 1e-6 else 60):
        am = mpmath.mpf(a)
        return ((mpmath.mpf(x) ** am + mpmath.mpf(y) ** am) / 2) ** (1 / am)


@given(degrees, degrees, finite_exponents)
def test_power_mean_accurate_to_a_few_ulps(x, y, a):
    # the result is base * exp(r) with |r| up to |ln(x/y)|, so exp carries
    # |ln(x/y)| ulps of r's rounding on top of the kernel's own few ulps
    got = power_mean(x, y, a)
    want = oracle(x, y, a.value)
    assert float(abs(got - want) / want) <= (4.0 + abs(math.log(x / y))) * EPS


def test_power_mean_when_the_argument_ratio_overflows():
    # hi/lo is inf here; the |a| < 1 branch used to return inf at a = 0.5
    # and 0.0 at a = -0.5, and the grid warned of overflow in the divide
    x, y = 1e300, 1e-300
    alphas = [Alpha.finite(a) for a in (0.5, -0.5, 0.999, -0.999, 2.0, -2.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = power_mean_grid([(x, y)], alphas)[0]
    budget = (4.0 + math.log(x) - math.log(y)) * EPS
    for a, cell in zip(alphas, grid.tolist()):
        want = oracle(x, y, a.value)
        for got in (power_mean(x, y, a), cell):
            assert float(abs(got - want) / want) <= budget, (a, got)
    # at the far ends of the float range the cosh factor on the geometric
    # mean passes exp(709): a = 0.5 raised OverflowError, 0.999 gave inf and
    # -0.999 gave 0.0; the results are normal for a > 0, subnormal for a < 0
    x, y = 1.7e308, 5e-324
    alphas = [Alpha.finite(a) for a in (0.5, 0.999, -0.5, -0.999)]
    grid = power_mean_grid([(x, y)], alphas)[0]
    budget = (4.0 + math.log(x) - math.log(y)) * EPS
    for a, cell in zip(alphas, grid.tolist()):
        want = oracle(x, y, a.value)
        for got in (power_mean(x, y, a), cell):
            if a.value > 0:
                assert float(abs(got - want) / want) <= budget, (a, got)
            else:
                assert abs(got - want) <= 5e-324, (a, got)


@given(degrees, degrees, st.floats(min_value=-323.3, max_value=0.0, exclude_max=True))
def test_power_mean_brackets_geometric_mean_exactly(x, y, e):
    # PM_{-a} <= GM <= PM_a with no rounding slack, in both kernels, for
    # 0 < a < 1 down to the smallest subnormal
    a = 10.0**e
    lo, hi = Alpha.finite(-a), Alpha.finite(a)
    gm = power_mean(x, y, ZERO_LIMIT)
    assert power_mean(x, y, lo) <= gm <= power_mean(x, y, hi)
    below, at, above = power_mean_grid([(x, y)], [lo, ZERO_LIMIT, hi])[0]
    assert below <= at <= above


@given(st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != 0.0))
def test_finite_alpha_is_its_float(v):
    a = Alpha.finite(v)
    assert a == v and hash(a) == hash(v)
    assert a.token() == format(v, ".10g")


@given(st.lists(exponents, max_size=12))
def test_alphas_sort_as_their_floats(alphas):
    assert [float(a) for a in sorted(alphas)] == sorted(float(a) for a in alphas)


@given(st.sampled_from(GRAPHS), exponents, exponents)
def test_mean_sombor_monotone_in_alpha(g, a1, a2):
    lo, hi = sorted((a1, a2))
    assert mean_sombor(g, lo) <= mean_sombor(g, hi) * (1.0 + 8.0 * EPS)


@given(
    st.lists(st.tuples(degrees, degrees), min_size=1, max_size=6),
    st.lists(exponents, min_size=1, max_size=12),
)
def test_power_mean_grid_agrees_with_scalar_kernel(pairs, alphas):
    grid = power_mean_grid(pairs, alphas)
    for (x, y), row in zip(pairs, grid.tolist()):
        for a, v in zip(alphas, row):
            want = scalar_kernel.power_mean(x, y, a)
            assert float.hex(v) == float.hex(power_mean(x, y, a)) == float.hex(want)


@st.composite
def edge_sets(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    return Graph(n, frozenset(draw(st.lists(st.sampled_from(pairs), unique=True))))


@given(st.lists(edge_sets(), min_size=1, max_size=6), exponents)
def test_profile_sums_equal_pair_sum_per_graph(graphs, a):
    profiles = ProfileSums([g.degree_pairs for g in graphs])
    for term in (lambda x, y: power_mean(x, y, a), lambda x, y: x * y / (x + y)):
        sums = profiles.sums([term(x, y) for x, y in profiles.items])
        assert sums.tolist() == [pair_sum(g, term) for g in graphs]
    want = [mean_sombor(g, a).hex() for g in graphs]
    for _ in range(2):  # evaluated, then read back from the table's memo
        assert [v.hex() for v in profiles.mso(a).tolist()] == want


@given(st.lists(edge_sets(), max_size=6))
def test_profile_counts_are_each_profiles_edge_counter(graphs):
    profiles = ProfileSums([g.degree_pairs for g in graphs])
    counts = profiles.counts()
    assert counts.shape == (len(graphs), len(profiles.items)) and counts.dtype == float
    for g, row in zip(graphs, counts.tolist()):
        deg = g.degrees
        edges = Counter(tuple(sorted((deg[u], deg[v]))) for u, v in g.edge_list)
        assert {p: c for p, c in zip(profiles.items, row) if c} == edges
