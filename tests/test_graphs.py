"""Graph container, parsing, structure queries, and tree enumeration.

The enumeration is checked against OEIS counts and two independent
oracles: networkx's free-tree generator (the Wright-Richmond-Odlyzko-McKay
successor algorithm, used only here) and a brute-force Prufer-sequence
sweep over all labeled trees.
"""

import heapq
import itertools
import math
import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from meansombor.graphs import (
    MAX_VERTICES,
    OCTANE_NAMES,
    Graph,
    GraphParseError,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    default_corpus,
    degree_extremes,
    disjoint_union,
    enumerate_octane_skeletons,
    enumerate_trees,
    is_connected,
    parse_graph,
    path_graph,
    random_connected_graphs,
    star_graph,
    to_edge_list_text,
)
from meansombor.indices import (
    ALPHA_MINUS_INF,
    ALPHA_PLUS_INF,
    SPECIAL_VALUES,
    ZERO_LIMIT,
    Alpha,
    pair_sum,
    power_mean,
    profile_sums,
)
from scalar_battery import RegularityTag, degree_pairs, regularity_class
from tree_codes import _bfs, adjacency, canonical_form, tree_centroids


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_p3():
    g = parse_graph("3\n0 1\n1 2")
    assert g.vertex_count == 3
    assert g.degrees == (1, 2, 1)


def test_parse_triangle():
    g = parse_graph("3\n0 1\n1 2\n0 2")
    assert g.degrees == (2, 2, 2)


def test_parse_comments_and_blanks():
    g = parse_graph("# a path\n\n3\n# edge one\n0 1\n\n1 2\n")
    assert g.degrees == (1, 2, 1)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("2\n0 0", "self-loop"),
        ("3\n0 1\n1 0", "duplicate edge"),
        ("2\n0 5", "out of range"),
        ("2\n0 x", "integers"),
        ("", "vertex count"),
        ("x\n", "line 1: expected vertex count, got 'x'"),
        ("0\n", "line 1: vertex count must be positive"),
        ("3\n0 1 2", "expected 'u v'"),
        # header only: rejected before anything is allocated
        (f"{MAX_VERTICES + 1}\n", f"vertex count {MAX_VERTICES + 1} exceeds the limit"),
    ],
)
def test_parse_errors_name_line(text, fragment):
    with pytest.raises(GraphParseError) as err:
        parse_graph(text)
    assert "line" in str(err.value)
    assert fragment in str(err.value)


def test_parse_error_line_number_is_physical():
    with pytest.raises(GraphParseError, match="line 4"):
        parse_graph("# header\n3\n0 1\n1 1")


def test_parse_accepts_vertex_count_at_limit():
    assert parse_graph(f"{MAX_VERTICES}\n").vertex_count == MAX_VERTICES


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Graph(0, frozenset()), "graph needs at least one vertex"),
        (lambda: Graph(3, frozenset({(1, 1)})), "self-loop at vertex 1"),
        # a self-loop out of range is still named a self-loop
        (lambda: Graph(3, frozenset({(5, 5)})), "self-loop at vertex 5"),
        (lambda: Graph(3, frozenset({(2, 1)})), "edge (2,1) out of range or unnormalized"),
        (lambda: Graph(3, frozenset({(0, 3)})), "edge (0,3) out of range or unnormalized"),
        (lambda: Graph(3, frozenset({(-1, 0)})), "edge (-1,0) out of range or unnormalized"),
        # from_edges leaves the self-loop to the constructor's check
        (lambda: Graph.from_edges(3, [(1, 1)]), "self-loop at vertex 1"),
        (lambda: Graph.from_edges(3, [(0, 1), (1, 0)]), "duplicate edge (0,1)"),
    ],
    ids=[
        "no-vertex", "self-loop", "self-loop-out-of-range", "reversed", "out-of-range",
        "negative", "from-edges-self-loop", "from-edges-duplicate",
    ],
)
def test_constructors_name_the_broken_rule(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_round_trip_serialization():
    for _, g, _ in default_corpus()[:20]:
        again = parse_graph(to_edge_list_text(g))
        assert again.edges == g.edges and again.vertex_count == g.vertex_count


# ---------------------------------------------------------------------------
# structure queries
# ---------------------------------------------------------------------------

def test_degree_extremes(k3, k13, p3):
    assert degree_extremes(k3) == (2, 2)
    assert degree_extremes(k13) == (1, 3)
    assert degree_extremes(p3) == (1, 2)


def _counted_degrees(g):
    # each vertex's count of edge endpoints, as the constructor's pass
    # must leave it in g.degrees
    ends = Counter(x for e in g.edges for x in e)
    return tuple(ends[v] for v in range(g.vertex_count))


def test_degree_sum_is_twice_edges():
    for named in random_connected_graphs(50, seed=5):
        g = named.graph
        assert sum(g.degrees) == 2 * g.edge_count
    g = Graph.from_edges(6, [(0, 1), (2, 3)])
    assert sum(g.degrees) == 4
    # every producer of graphs leaves the counted degrees
    produced = [
        parse_graph("5\n0 1\n3 1\n"),  # vertices 2 and 4 isolated
        g,
        disjoint_union(star_graph(2), complete_graph(3)),
        *enumerate_trees(8),
        # the octane skeletons, the trees on 2..7 vertices and the families
        *(named.graph for named in default_corpus() + random_connected_graphs(50, seed=5)),
    ]
    for g in produced:
        assert g.degrees == _counted_degrees(g)


def test_degrees_take_no_part_in_identity():
    # the constructor derives the degrees: it takes no degrees argument,
    # and ==, hash and repr see only the vertex count and the edges
    g, h = path_graph(3), Graph(3, frozenset({(0, 1), (1, 2)}))
    object.__setattr__(h, "degrees", ())
    assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
    assert "degrees" not in repr(g)
    with pytest.raises(TypeError):
        Graph(3, frozenset({(0, 1), (1, 2)}), (1, 2, 1))
    # an id in range that is no int fails as its degree is counted
    with pytest.raises(TypeError):
        Graph(3, frozenset({(0.0, 1)}))


def test_regularity_examples(k3, k13, p4):
    assert regularity_class(k3) is RegularityTag.REGULAR
    assert regularity_class(k13) is RegularityTag.BIREGULAR
    # P4 has two degree values but the middle edge joins two degree-2
    # vertices, so it is not biregular: check against the definition by
    # an exhaustive edge scan
    degs = p4.degrees
    two_values = len(set(degs)) == 2
    a, b = sorted(set(degs))
    all_cross = all({degs[u], degs[v]} == {a, b} for u, v in p4.edges)
    assert two_values and not all_cross
    assert regularity_class(p4) is RegularityTag.NEITHER


def test_regularity_complete_bipartite_family():
    for a in range(1, 6):
        for b in range(a, 6):
            tag = regularity_class(complete_bipartite(a, b))
            if a == b:
                assert tag is RegularityTag.REGULAR
            else:
                assert tag is RegularityTag.BIREGULAR


def test_regularity_empty_edge_set():
    assert regularity_class(Graph(3, frozenset())) is RegularityTag.NEITHER


def _reached_from_zero(g):
    # the breadth-first walk the union-find replaced, as its oracle
    return len(_bfs(g, 0)[1]) == g.vertex_count


def test_is_connected(p3):
    assert is_connected(p3)
    assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert is_connected(Graph(1, frozenset()))
    assert not is_connected(disjoint_union(complete_graph(3), complete_graph(4)))
    trees = [t for n in range(1, 11) for t in enumerate_trees(n)]
    for g in trees + [named.graph for named in random_connected_graphs(200, 5)]:
        assert is_connected(g) and _reached_from_zero(g)
    # a tree less any one edge falls apart into two components
    for t in trees:
        for e in t.edges:
            assert not is_connected(Graph(t.vertex_count, t.edges - {e}))


@st.composite
def _edge_sets(draw):
    # sparse draws leave isolated vertices and many components; n = 1 included
    n = draw(st.integers(1, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, chosen)


@given(_edge_sets())
def test_is_connected_matches_the_breadth_first_walk(g):
    assert is_connected(g) == _reached_from_zero(g)
    assert g.degrees == _counted_degrees(g)


_exponents = st.one_of(
    st.sampled_from((ZERO_LIMIT, ALPHA_MINUS_INF, ALPHA_PLUS_INF)),
    st.floats(-60.0, 60.0).filter(lambda x: x != 0.0).map(Alpha.finite),
)


@given(_edge_sets(), st.lists(_exponents, min_size=1, max_size=3))
@example(Graph(3, frozenset()), [ZERO_LIMIT])  # edgeless
@example(Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 5)]), [Alpha.finite(-1)])  # isolated 6
def test_pair_sum_and_the_profile_table_are_the_counter_profile_sum(g, alphas):
    # the reference: each term once per distinct pair of the edge-counted
    # profile, repeated by its count, in one fsum; pair_sum takes one term
    # per edge and the table one per pair, and both must give its bits
    profile = degree_pairs(g)
    table = profile_sums([g])[1]
    terms = [term for *_, term in SPECIAL_VALUES]
    terms += [lambda x, y, a=a: power_mean(x, y, a) for a in alphas]
    terms.append(lambda x, y: x - 2 * y)  # not symmetric: the pair is (d_lo, d_hi)
    for term in terms:
        want = math.fsum(itertools.chain.from_iterable(
            itertools.repeat(term(*p), c) for p, c in profile
        ))
        got = table.sums([term(x, y) for x, y in table.items]).tolist()
        assert [pair_sum(g, term).hex(), *(v.hex() for v in got)] == [want.hex(), want.hex()]


def _brute_force_centroids(g):
    """Vertices minimizing the largest component left after removing them."""
    adj = adjacency(g)

    def largest_left(x):
        best = 0
        seen = {x}
        for s in range(g.vertex_count):
            if s in seen:
                continue
            seen.add(s)
            stack, size = [s], 0
            while stack:
                u = stack.pop()
                size += 1
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            best = max(best, size)
        return best

    worst = [largest_left(x) for x in range(g.vertex_count)]
    return [x for x in range(g.vertex_count) if worst[x] == min(worst)]


def test_tree_centroids_match_brute_force():
    assert tree_centroids(path_graph(7)) == [3]
    assert tree_centroids(path_graph(8)) == [3, 4]
    assert tree_centroids(star_graph(5)) == [0]
    for n in range(1, 10):
        for t in enumerate_trees(n):
            assert tree_centroids(t) == _brute_force_centroids(t)


# ---------------------------------------------------------------------------
# canonical form and enumeration
# ---------------------------------------------------------------------------

def test_canonical_form_is_isomorphism_invariant():
    # relabel P6 and a random tree; canonical forms must agree
    rng = random.Random(3)
    for base in enumerate_trees(7):
        perm = list(range(base.vertex_count))
        rng.shuffle(perm)
        relabeled = Graph.from_edges(
            base.vertex_count, [(perm[u], perm[v]) for u, v in base.edges]
        )
        assert canonical_form(relabeled) == canonical_form(base)


def test_canonical_form_rejects_non_trees(k3):
    with pytest.raises(ValueError):
        canonical_form(k3)
    with pytest.raises(ValueError):
        canonical_form(Graph.from_edges(4, [(0, 1), (2, 3)]))
    for g in (cycle_graph(6), Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])):
        with pytest.raises(ValueError, match="trees only"):
            tree_centroids(g)


# The 18 octane skeletons' canonical strings, in manifest order: the
# centroid-rooted level sequence, each vertex's subtrees in descending
# order, the smaller rooting taken when there are two centroids.
OCTANE_CANONICAL = (
    "0.1.2.1.2.1.2.1", "0.1.2.2.1.2.1.1", "0.1.2.2.1.2.1.2", "0.1.2.2.1.2.2.1",
    "0.1.2.2.2.1.1.1", "0.1.2.2.2.1.2.1", "0.1.2.2.2.1.2.2", "0.1.2.3.1.2.1.1",
    "0.1.2.3.1.2.1.2", "0.1.2.3.1.2.2.1", "0.1.2.3.1.2.2.2", "0.1.2.3.1.2.3.1",
    "0.1.2.3.2.1.2.1", "0.1.2.3.2.1.2.2", "0.1.2.3.2.1.2.3", "0.1.2.3.3.1.2.2",
    "0.1.2.3.3.1.2.3", "0.1.2.3.4.1.2.3",
)


def test_octane_canonical_forms_are_pinned():
    assert tuple(s.canonical for s in enumerate_octane_skeletons()) == OCTANE_CANONICAL


# The oracle for OCTANE_NAMES: each isomer's backbone length and its
# substituents (1-based backbone position, chain length).
OCTANE_STRUCTURES = [
    ("n-octane", 8, []),
    ("2-methylheptane", 7, [(2, 1)]),
    ("3-methylheptane", 7, [(3, 1)]),
    ("4-methylheptane", 7, [(4, 1)]),
    ("3-ethylhexane", 6, [(3, 2)]),
    ("2,2-dimethylhexane", 6, [(2, 1), (2, 1)]),
    ("2,3-dimethylhexane", 6, [(2, 1), (3, 1)]),
    ("2,4-dimethylhexane", 6, [(2, 1), (4, 1)]),
    ("2,5-dimethylhexane", 6, [(2, 1), (5, 1)]),
    ("3,3-dimethylhexane", 6, [(3, 1), (3, 1)]),
    ("3,4-dimethylhexane", 6, [(3, 1), (4, 1)]),
    ("3-ethyl-2-methylpentane", 5, [(3, 2), (2, 1)]),
    ("3-ethyl-3-methylpentane", 5, [(3, 2), (3, 1)]),
    ("2,2,3-trimethylpentane", 5, [(2, 1), (2, 1), (3, 1)]),
    ("2,2,4-trimethylpentane", 5, [(2, 1), (2, 1), (4, 1)]),
    ("2,3,3-trimethylpentane", 5, [(2, 1), (3, 1), (3, 1)]),
    ("2,3,4-trimethylpentane", 5, [(2, 1), (3, 1), (4, 1)]),
    ("2,2,3,3-tetramethylbutane", 4, [(2, 1), (2, 1), (3, 1), (3, 1)]),
]


def _build_alkane_skeleton(backbone, substituents):
    edges = [(i, i + 1) for i in range(backbone - 1)]
    nxt = backbone
    for pos, length in substituents:
        prev = pos - 1  # backbone positions are 1-based
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph.from_edges(nxt, edges)


def test_octane_name_table_matches_the_structure_oracle():
    # every named structure's canonical form maps to its own name, and the
    # table's keys are exactly the chemical trees on 8 vertices
    by_structure = {
        canonical_form(_build_alkane_skeleton(backbone, subs)): name
        for name, backbone, subs in OCTANE_STRUCTURES
    }
    assert len(by_structure) == 18
    assert by_structure == OCTANE_NAMES
    chemical = {canonical_form(t) for t in enumerate_trees(8) if max(t.degrees) <= 4}
    assert chemical == set(OCTANE_NAMES)
    assert list(OCTANE_NAMES) == sorted(OCTANE_NAMES)


def test_canonical_form_takes_the_smaller_rooting_at_two_centroids():
    # vertex 0 carries three leaves and vertex 5 two; the centroids are 0
    # and 4, and the rooting at 4 (0.1.2.2.2.1.2.2) sorts before the rooting
    # at 0 (0.1.2.3.3.1.1.1)
    t = Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (5, 6), (5, 7)])
    assert tree_centroids(t) == [0, 4]
    assert canonical_form(t) == "0.1.2.2.2.1.2.2"


def _levels(*runs):
    return ".".join(map(str, itertools.chain(*runs)))


def test_canonical_form_of_the_deepest_trees_parse_graph_accepts():
    # heights of 2,048 and 1,365: a recursion per level would pass the
    # default limit of 1,000
    path = path_graph(MAX_VERTICES)
    assert canonical_form(path) == _levels([0], range(1, 2049), range(1, 2048))
    assert tree_centroids(path) == [2047, 2048]
    leg = 1365
    spider = Graph.from_edges(
        3 * leg + 1,
        [(0 if i % leg == 0 else i, i + 1) for i in range(3 * leg)],
    )
    assert canonical_form(spider) == _levels([0], *[range(1, leg + 1)] * 3)
    assert tree_centroids(spider) == [0]


# Free trees on n = 1..14 vertices (OEIS A000055), and those with maximum
# degree <= 4 (OEIS A000602).
A000055 = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159)
A000602 = (1, 1, 1, 2, 3, 5, 9, 18, 35, 75, 159, 355, 802, 1858)


@pytest.fixture(scope="module")
def trees_by_order():
    return {n: enumerate_trees(n) for n in range(1, 15)}


def test_tree_counts_match_known_sequence(trees_by_order):
    assert [len(trees_by_order[n]) for n in range(1, 15)] == list(A000055)


def test_chemical_tree_counts_match_known_sequence(trees_by_order):
    counts = [sum(max(t.degrees) <= 4 for t in trees_by_order[n]) for n in range(1, 15)]
    assert counts == list(A000602)


def test_trees_strictly_increase_in_canonical_form(trees_by_order):
    for trees in trees_by_order.values():
        forms = [canonical_form(t) for t in trees]
        assert all(a < b for a, b in zip(forms, forms[1:]))


def _level_sequences(rng, count):
    # random level sequences (each depth at most one more than the one
    # before) with every depth at most 9, and a random prefix of each,
    # which sorts first
    out = [tuple(range(10)), (0, 1, 2), (0, 1, 1), (0,)]
    for _ in range(count):
        code = [0]
        for _ in range(rng.randrange(30)):
            d = code[-1]
            code.append(d + 1 if d < 9 and rng.random() < 0.6 else rng.randint(1, max(d, 1)))
        out.append(tuple(code))
        out.append(tuple(code[: rng.randrange(1, len(code) + 1)]))
    return out


def test_one_digit_codes_sort_in_the_order_of_their_strings():
    # below n = 20 enumerate_trees sorts its codes as tuples, which must be
    # the order of their strings; enumeration stops at n = 16 in the tests,
    # so the claim is checked on synthetic codes of every depth it can meet
    codes = list(set(_level_sequences(random.Random(9), 4000)))
    assert sorted(codes) == sorted(codes, key=lambda code: ".".join(map(str, code)))


def _tree_of_level_sequence(levels):
    """Vertex i at depth levels[i], joined to the nearest earlier vertex
    one level up."""
    edges = []
    for v in range(1, len(levels)):
        u = max(w for w in range(v) if levels[w] == levels[v] - 1)
        edges.append((u, v))
    return Graph.from_edges(len(levels), edges)


def test_trees_are_labelled_by_their_canonical_level_sequence(trees_by_order):
    for trees in trees_by_order.values():
        for t in trees:
            levels = [int(d) for d in canonical_form(t).split(".")]
            assert t == _tree_of_level_sequence(levels)


def test_canonical_forms_match_networkx_generator(trees_by_order):
    for n in range(2, 13):
        theirs = {
            canonical_form(Graph.from_edges(n, t.edges())) for t in nx.nonisomorphic_trees(n)
        }
        assert {canonical_form(t) for t in trees_by_order[n]} == theirs


@pytest.mark.parametrize("n, free, chemical", [(15, 7741, 4347), (16, 19320, 10359)])
def test_tree_counts_at_orders_15_and_16(n, free, chemical):
    # A000055 and A000602 past the fixture's orders, which the
    # canonical_form-based tests above would make slow
    trees = enumerate_trees(n)
    assert len(trees) == free
    assert sum(max(t.degrees) <= 4 for t in trees) == chemical


def test_one_enumeration_holds_one_edge_object_per_vertex_pair():
    # the trees of one call share their edge tuples, so however many trees it
    # makes, it holds no more edge objects than there are vertex pairs
    for n in range(2, 13):
        trees = enumerate_trees(n)
        assert len({id(e) for t in trees for e in t.edges}) <= n * (n - 1) // 2, n
    skeletons = enumerate_octane_skeletons()
    assert len({id(e) for s in skeletons for e in s.graph.edges}) <= 28


@pytest.mark.parametrize("n", [0, -1])
def test_enumerate_trees_rejects_non_positive_order(n):
    with pytest.raises(ValueError, match="n must be positive"):
        enumerate_trees(n)


def test_enumeration_matches_networkx_generator():
    # oracle: networkx's free-tree generator, an algorithm independent of ours
    ours = enumerate_trees(8)
    theirs = [nx.Graph(list(t.edges())) for t in nx.nonisomorphic_trees(8)]
    assert len(ours) == len(theirs) == 23
    matched = set()
    for mine in ours:
        g1 = nx.Graph(list(mine.edges))
        hits = [
            j
            for j, g2 in enumerate(theirs)
            if j not in matched and nx.is_isomorphic(g1, g2)
        ]
        assert len(hits) == 1
        matched.add(hits[0])
    assert len(matched) == 23


def _prufer_to_edges(seq, n):
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def test_enumeration_complete_against_prufer_brute_force():
    # every labeled tree on 7 vertices (7^5 Prufer sequences) must land in
    # exactly one of the enumerated isomorphism classes
    reps = [nx.Graph(list(t.edges)) for t in enumerate_trees(7)]
    by_degseq = {}
    for i, g in enumerate(reps):
        by_degseq.setdefault(tuple(sorted(d for _, d in g.degree())), []).append(i)
    seen = set()
    for seq in itertools.product(range(7), repeat=5):
        edges = _prufer_to_edges(seq, 7)
        degs = [0] * 7
        for u, v in edges:
            degs[u] += 1
            degs[v] += 1
        key = tuple(sorted(degs))
        candidates = by_degseq.get(key, [])
        g = nx.Graph(edges)
        hits = [i for i in candidates if nx.is_isomorphic(g, reps[i])]
        assert len(hits) == 1, f"Prufer tree matched {len(hits)} classes"
        seen.add(hits[0])
    assert seen == set(range(11))


def test_octane_skeletons():
    sk = enumerate_octane_skeletons()
    assert len(sk) == 18
    assert len({s.canonical for s in sk}) == 18
    names = [s.name for s in sk]
    assert len(set(names)) == 18
    assert "n-octane" in names and "2,2,3,3-tetramethylbutane" in names
    for s in sk:
        g = s.graph
        assert g.vertex_count == 8 and g.edge_count == 7
        assert is_connected(g)
        assert max(g.degrees) <= 4
        assert canonical_form(g) == s.canonical
    # deterministic canonical order
    assert [s.canonical for s in sk] == sorted(s.canonical for s in sk)


def test_octane_round_trip_preserves_canonical_form():
    for s in enumerate_octane_skeletons():
        again = parse_graph(to_edge_list_text(s.graph))
        assert canonical_form(again) == s.canonical


def test_named_structures_cover_exactly_the_enumerated_trees():
    # n-octane is the path: its canonical form equals P8's
    sk = {s.name: s for s in enumerate_octane_skeletons()}
    assert sk["n-octane"].canonical == canonical_form(path_graph(8))
    # 2,2,3,3-tetramethylbutane is the unique double-degree-4 tree
    degs = sorted(sk["2,2,3,3-tetramethylbutane"].graph.degrees, reverse=True)
    assert degs == [4, 4, 1, 1, 1, 1, 1, 1]


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_family_shapes():
    assert path_graph(5).edge_count == 4
    assert cycle_graph(6).degrees == (2,) * 6
    assert star_graph(4).degrees == (4, 1, 1, 1, 1)
    assert complete_graph(5).edge_count == 10
    assert complete_bipartite(2, 3).edge_count == 6
    with pytest.raises(ValueError, match="cycle needs at least 3 vertices"):
        cycle_graph(2)


def _nested_range_draws(count, seed):
    # the draw with each graph's pairs i < j built anew in nested ranges: the
    # same coin flips in the same order as random_connected_graphs
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = rng.randint(4, 12)
        p = rng.uniform(0.25, 0.85)
        while True:
            pairs = ((i, j) for i in range(n) for j in range(i + 1, n))
            g = Graph(n, frozenset(e for e in pairs if rng.random() < p))
            if is_connected(g):
                break
        out.append((f"random_{seed}_{k:04d}", g))
    return out


@pytest.mark.parametrize("seed", [42, 97, 20240803])
def test_random_graphs_are_the_nested_range_draws(seed):
    drawn = [(named.name, named.graph) for named in random_connected_graphs(1000, seed)]
    assert drawn == _nested_range_draws(1000, seed)


def test_random_graphs_are_connected_and_reproducible():
    a = random_connected_graphs(30, seed=42)
    b = random_connected_graphs(30, seed=42)
    assert [g.graph.edges for g in a] == [g.graph.edges for g in b]
    for named in a:
        assert is_connected(named.graph)
        assert 4 <= named.graph.vertex_count <= 12


def test_default_corpus_names_unique():
    corpus = default_corpus()
    names = [n.name for n in corpus]
    assert len(names) == len(set(names))
    assert len(corpus) >= 70
