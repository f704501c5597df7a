"""Property tests of the power-mean kernel over the extended exponent line.

The oracle is mpmath at 60 digits, and at 700 digits for |a| < 1e-6, where
(x^a + y^a)/2 differs from 1 only beyond the 60th digit.  Exponents are
drawn log-uniformly in magnitude over [1e-300, 1e6].
"""

import math
import random
import re
import sys
import warnings
from collections import Counter
from itertools import chain, repeat

import pytest

hypothesis = pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meansombor import bounds
from meansombor.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    default_corpus,
    disjoint_union,
    is_connected,
    path_graph,
    random_connected_graphs,
)
from meansombor.indices import (
    ALPHA_MINUS_INF,
    ALPHA_PLUS_INF,
    Alpha,
    LIMB_MIN_KEYS,
    ZERO_LIMIT,
    degree_pair_entries,
    mean_sombor,
    pair_sum,
    power_mean,
    power_mean_grid,
)
import scalar_kernel
from scalar_battery import degree_pairs, profile_table

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


# Graphs with edges that lift a drawn table to the limb route's size.
LIMB_PADDING = [g for g in GRAPHS if g.edge_count][:LIMB_MIN_KEYS]
assert len(LIMB_PADDING) == LIMB_MIN_KEYS


def edge_terms(g, term):
    deg = g.degrees
    return [term(*sorted((deg[u], deg[v]))) for u, v in g.edge_list]


@given(st.lists(edge_sets(), min_size=1, max_size=6), exponents, st.booleans())
@example([path_graph(3), Graph(3, frozenset())], ZERO_LIMIT, False)  # a trailing edgeless key
@example([Graph(4, frozenset()), path_graph(3)], ALPHA_PLUS_INF, False)  # an edgeless key first
def test_profile_sums_equal_pair_sum_per_graph(graphs, a, limbs):
    # below LIMB_MIN_KEYS keys the table takes one fsum per key, from it limbs
    graphs = graphs + LIMB_PADDING if limbs else graphs
    profiles = profile_table([degree_pairs(g) for g in graphs])
    for term in (lambda x, y: power_mean(x, y, a), lambda x, y: x * y / (x + y)):
        terms = [term(x, y) for x, y in profiles.items]
        sums = profiles.sums(terms)
        assert [v.hex() for v in sums.tolist()] == [pair_sum(g, term).hex() for g in graphs]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            top, bottom = profiles.extremes(terms)
        for g, hi, lo in zip(graphs, top.tolist(), bottom.tolist()):
            per_edge = edge_terms(g, term)
            # an edgeless key gets the identities of max and min
            assert (hi, lo) == ((max(per_edge), min(per_edge)) if per_edge else (-math.inf, math.inf))
    want = [mean_sombor(g, a).hex() for g in graphs]
    for _ in range(2):  # evaluated, then read back from the table's memo
        assert [v.hex() for v in profiles.mso(a).tolist()] == want


def _relabelled(g, rng):
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    return Graph.from_edges(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])


@st.composite
def corpora(draw):
    """Drawn graphs (edgeless ones, isolated vertices and K1 among them), each
    used any number of times, as itself or relabelled, in any order."""
    base = draw(st.lists(st.one_of(edge_sets(), st.just(Graph(1, frozenset()))), min_size=1, max_size=5))
    picks = draw(st.lists(st.tuples(st.sampled_from(base), st.booleans()), max_size=12))
    rng = draw(st.randoms(use_true_random=False))
    return [_relabelled(g, rng) if relabel else g for g, relabel in picks]


@given(corpora())
@example([cycle_graph(6), disjoint_union(complete_graph(3), complete_graph(3)), cycle_graph(6)])
@example([path_graph(3), disjoint_union(path_graph(3), Graph(1, frozenset())), Graph(1, frozenset())])
def test_degree_pair_entries_split_a_corpus_as_its_profile_keys(graphs):
    # the pass gives each graph's degree pairs, graph after graph; each edge,
    # in the order its graph's `edges` iterates, points at its pair's entry;
    # and the sweep's batteries are the (degree pairs, n, connected) keys of
    # the graphs in first-use order
    e = degree_pair_entries(graphs)
    assert e.graph.tolist() == sorted(e.graph.tolist())
    edges = iter(zip(e.ends.tolist(), e.edge_entry.tolist()))
    for i, g in enumerate(graphs):
        at = e.graph == i
        entries = list(zip(zip(e.lo[at].tolist(), e.hi[at].tolist()), e.count[at].tolist()))
        assert entries == list(degree_pairs(g))
        for (u, v), (end, entry) in zip(g.edges, edges):
            assert (end, e.graph[entry]) == ([u, v], i)
            assert (e.lo[entry], e.hi[entry]) == tuple(sorted((g.degrees[u], g.degrees[v])))
    assert next(edges, None) is None
    keyed, columns = bounds._key_columns(graphs)
    batteries = {}
    keys = [(degree_pairs(g), g.vertex_count, is_connected(g)) for g in graphs]
    want = [batteries.setdefault(key, len(batteries)) for key in keys]
    assert keyed == want and len(columns.m) == len(batteries)


@given(st.lists(edge_sets(), max_size=6), st.booleans())
def test_profile_counts_are_each_profiles_edge_counter(graphs, large):
    graphs = graphs + LIMB_PADDING if large else graphs
    profiles = profile_table([degree_pairs(g) for g in graphs])
    counts = profiles.counts()
    assert counts.shape == (len(graphs), len(profiles.items)) and counts.dtype == float
    for g, row in zip(graphs, counts.tolist()):
        deg = g.degrees
        edges = Counter(tuple(sorted((deg[u], deg[v]))) for u, v in g.edge_list)
        assert {p: c for p, c in zip(profiles.items, row) if c} == edges


# Terms for the limb route.  A family's terms lie within a few binary
# exponents of a drawn scale, from the subnormals to the edge of overflow, so
# its keys stay within the span the limbs take; some are half-ulp ties.  The
# odd terms are zeros, the ends of the subnormal and normal ranges, anything
# finite (wide spans), and values fsum rejects or that make it raise.
scales = st.one_of(st.sampled_from((-1080, -1074, -1060, -1022, 0, 1000, 1019)), st.integers(-1080, 1019))
odd_terms = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, 2.0**-1022 - 5e-324, 2.0**-1022, 2.0**-53, sys.float_info.max)),
    st.floats(min_value=0.0, max_value=1e300),
)
rejected_terms = st.sampled_from((math.inf, -math.inf, math.nan, -1.0, -2.0**-1074))


def scaled_terms(e):
    """Terms within five binary exponents of 2^e, or ties: 1 + 2^-52 and 1.0
    sum to a half ulp over 2, and three 1 + 2^-52 to a half ulp over 3."""
    return st.one_of(
        st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(e - 5, e + 5)),
        st.sampled_from((1.0, 1.0 + 2.0**-52, 1.5, 2.0 - 2.0**-52)).map(lambda t: math.ldexp(t, e)),
    )


def entries(items, counts):
    return st.lists(st.tuples(items, counts), unique_by=lambda e: e[0], max_size=4)


@st.composite
def limb_tables(draw):
    """Per-item terms and at least LIMB_MIN_KEYS multisets of (item, count):
    drawn keys within term families and over every kind of term (one of
    them with counts up to 2^22), an edgeless key, and random keys."""
    terms, keys = [], []
    for e in draw(st.lists(scales, min_size=1, max_size=3)):
        family = draw(st.lists(scaled_terms(e), min_size=1, max_size=5))
        items = st.integers(len(terms), len(terms) + len(family) - 1)
        terms += family
        keys += draw(st.lists(entries(items, st.integers(1, 64)), max_size=4))
    terms += draw(st.lists(odd_terms, max_size=4)) + draw(st.lists(rejected_terms, max_size=2))
    items = st.integers(0, len(terms) - 1)
    keys += draw(st.lists(entries(items, st.integers(1, 64)), max_size=4))
    keys.insert(draw(st.integers(0, len(keys))), draw(entries(items, st.integers(1, 2**22)).map(lambda e: e[:2])))
    keys.insert(draw(st.integers(0, len(keys))), [])
    rng = draw(st.randoms(use_true_random=False))
    keys += random_keys(rng, len(terms), LIMB_MIN_KEYS)
    return terms + random_terms(rng), keys


def random_terms(rng):
    """Eight terms whose exponents span 13, so that some keys of them span more than 10."""
    return [math.ldexp(rng.uniform(0.5, 1.0), rng.randint(-6, 6)) for _ in range(8)]


def random_keys(rng, first, n):
    """`n` keys of one to four of the eight items from `first` on, each counted 1 to 40 times."""
    return [[(first + i, rng.randint(1, 40)) for i in rng.sample(range(8), rng.randint(1, 4))] for _ in range(n)]


def fsum_or_error(values):
    try:
        return math.fsum(values).hex()
    except (OverflowError, ValueError) as e:
        return type(e), str(e)


@settings(max_examples=60, deadline=None)
@given(limb_tables())
def test_limb_sums_are_fsum_of_the_repeated_terms(table):
    terms, keys = table
    profiles = profile_table(keys)
    assert len(keys) >= LIMB_MIN_KEYS
    want = [fsum_or_error(chain.from_iterable(repeat(terms[x], c) for x, c in key)) for key in keys]
    error = next((w for w in want if isinstance(w, tuple)), None)
    if error is None:
        assert [v.hex() for v in profiles.sums([terms[x] for x in profiles.items]).tolist()] == want
    else:  # the first key whose fsum raises decides the error
        with pytest.raises(error[0], match=f"^{re.escape(error[1])}$"):
            profiles.sums([terms[x] for x in profiles.items])


def test_limb_sums_round_near_ties_at_the_count_limit():
    # one term counted c times, 2^21 < c < 2^22: its mantissa M < 2^53 is
    # chosen so that M c lies within 2 of a tie of its 53-bit rounding
    # (2^21 mod 2^22, as 2^74 <= M c < 2^75), and its low limb's sum passes
    # 2^53, where a float no longer holds it exactly
    rng = random.Random(5)
    keys, terms = random_keys(rng, 0, LIMB_MIN_KEYS), random_terms(rng)
    for c in (2**21 + 2**13 + 1, 2**21 + 2**19 + 3, 2**22 - 1):
        for offset in (-2, -1, 0, 1, 2):
            low = (2**21 + offset) * pow(c, -1, 2**22) % 2**22
            mantissa = 2**53 - 2**22 + low
            assert (mantissa * c) % 2**22 == 2**21 + offset and (mantissa % 2**32) * c > 2**53
            keys.append([(len(terms), c)])
            terms.append(math.ldexp(mantissa, -52))
    profiles = profile_table(keys)
    for key, v in zip(keys, profiles.sums([terms[x] for x in profiles.items]).tolist()):
        assert v.hex() == math.fsum(chain.from_iterable(repeat(terms[x], c) for x, c in key)).hex()
