"""Mean Sombor matrix, trace-of-square, and the variance identity."""

import io
import math

import numpy as np
import pytest

from meansombor import indices, spectral
from meansombor.graphs import (
    Graph,
    default_corpus,
    random_connected_graphs,
    star_graph,
)
from meansombor.indices import (
    ALPHA_MINUS_INF,
    ALPHA_PLUS_INF,
    Alpha,
    ZERO_LIMIT,
    mean_sombor,
    pair_sum,
    power_mean,
)
from meansombor.spectral import (
    EdgeTermStats,
    IdentityViolation,
    build_matrix,
    edge_term_stats,
    trace_of_square,
    identity_residual,
    variance_columns,
    variance_identity,
    write_matrix_csv,
)
from scalar_battery import degree_pairs, profile_table


def trace_of_square_dense(mat: np.ndarray) -> float:
    """Oracle: tr(mat^2) through an explicit matrix multiplication."""
    return float(np.trace(mat @ mat))


ALPHA_GRID = (
    Alpha.finite(-3),
    Alpha.finite(-1),
    Alpha.finite(0.5),
    Alpha.finite(1),
    Alpha.finite(2),
    Alpha.finite(3),
    ZERO_LIMIT,
    ALPHA_PLUS_INF,
    ALPHA_MINUS_INF,
)


def test_build_matrix_p3_alpha2(p3):
    mat = build_matrix(p3, Alpha.finite(2))
    root = math.sqrt(2.5)
    expected = np.array([[0, root, 0], [root, 0, root], [0, root, 0]])
    assert np.allclose(mat, expected, rtol=1e-15)


def test_build_matrix_regular_entries(k3):
    for a in ALPHA_GRID:
        mat = build_matrix(k3, a)
        off = mat[~np.eye(3, dtype=bool)]
        assert np.all(off == 2.0)


def test_build_matrix_edgeless_is_zero():
    mat = build_matrix(Graph(4, frozenset()), Alpha.finite(2))
    assert mat.shape == (4, 4) and not mat.any()


def test_matrix_support_matches_adjacency():
    for named in default_corpus()[:25]:
        g = named.graph
        mat = build_matrix(g, Alpha.finite(0.5))
        for u in range(g.vertex_count):
            for v in range(g.vertex_count):
                key = (min(u, v), max(u, v))
                assert (mat[u, v] > 0) == (u != v and key in g.edges)
        assert np.array_equal(mat, mat.T)
        assert not np.diag(mat).any()


def _per_edge_matrix(g, a):
    # the oracle: each edge's kernel term, evaluated on that edge, at (u, v) and (v, u)
    mat = np.zeros((g.vertex_count, g.vertex_count))
    deg = g.degrees
    for u, v in g.edge_list:
        mat[u, v] = mat[v, u] = power_mean(deg[u], deg[v], a)
    return mat


def test_build_matrix_is_the_per_edge_kernel_bit_for_bit():
    # each entry of the profile-table matrix has the bit pattern of the scalar
    # kernel on its edge's endpoint degrees, in the edge's own order, and every
    # entry off the support is +0.0; near the 0-limit, at it, at the limit
    # points, and past |a ln(hi/lo)| = 37, where the kernel switches forms;
    # its CSV is the text of each entry formatted on its own
    alphas = [Alpha(x) for x in (-3.0, -1.0, -0.3, 0.5, 1.0, 2.0, 3.0, 37.5, 1e-300, -1e-300)]
    alphas += [ZERO_LIMIT, ALPHA_PLUS_INF, ALPHA_MINUS_INF]
    graphs = [n.graph for n in default_corpus()] + [Graph(3, frozenset()), star_graph(40)]
    graphs.append(Graph.from_edges(6, [(4, 1), (1, 5), (5, 0)]))  # isolated vertices; larger degree first
    for g in graphs:
        for a in alphas:
            mat, want = build_matrix(g, a), _per_edge_matrix(g, a)
            assert mat.dtype == want.dtype and mat.shape == want.shape
            assert np.array_equal(mat.view(np.uint64), want.view(np.uint64)), (g, a)
            buf = io.StringIO()
            write_matrix_csv(mat, buf)
            assert buf.getvalue() == "".join(
                ",".join(format(x, ".17g") for x in row) + "\n" for row in want
            ), (g, a)


def test_trace_examples(p3, k3):
    assert trace_of_square(build_matrix(p3, Alpha.finite(2))) == pytest.approx(10.0)
    assert trace_of_square(build_matrix(k3, Alpha.finite(-7))) == pytest.approx(24.0)
    assert trace_of_square(np.zeros((5, 5))) == 0.0


def test_trace_shortcut_agrees_with_dense_multiplication():
    corpus = default_corpus()[:30] + random_connected_graphs(20, seed=77)
    for named in corpus:
        for a in ALPHA_GRID:
            mat = build_matrix(named.graph, a)
            fast = trace_of_square(mat)
            dense = trace_of_square_dense(mat)
            assert fast == pytest.approx(dense, rel=1e-12)
            # and equals twice the per-edge sum of squared entries
            edge_sq = sum(mat[u, v] ** 2 for u, v in named.graph.edges)
            assert fast == pytest.approx(2 * edge_sq, rel=1e-12)


def test_edge_term_stats_examples(p4, k3, k13):
    assert edge_term_stats(k3, Alpha.finite(2)).sigma2 == 0.0
    st = edge_term_stats(p4, Alpha.finite(1))
    assert st == EdgeTermStats(m=3, mean=pytest.approx(5 / 3), sigma2=pytest.approx(1 / 18))
    assert edge_term_stats(k13, ZERO_LIMIT).sigma2 == pytest.approx(0.0, abs=1e-15)


def test_edge_term_stats_rejects_edgeless():
    with pytest.raises(ValueError):
        edge_term_stats(Graph(3, frozenset()), Alpha.finite(1))


def test_variance_identity_examples(p3, p4, k3):
    assert identity_residual(*variance_identity(k3, Alpha.finite(2))[1:]) == pytest.approx(0.0, abs=1e-12)
    assert abs(identity_residual(*variance_identity(p3, Alpha.finite(2))[1:])) <= 1e-9
    assert abs(identity_residual(*variance_identity(p4, Alpha.finite(1))[1:])) <= 1e-9
    # a radicand at -1e-9 is rounding, clamped to 0; one just below
    # -1e-9 (1 + |radicand|) can only come from a broken implementation
    assert identity_residual(2.0, -1e-9) == 2.0
    with pytest.raises(IdentityViolation, match="negative radicand -1.000000002e-09"):
        identity_residual(2.0, -1.000000002e-9)


def test_variance_identity_across_corpus_and_grid():
    corpus = default_corpus() + random_connected_graphs(30, seed=13)
    for named in corpus:
        g = named.graph
        for a in ALPHA_GRID:
            residual = identity_residual(*variance_identity(g, a)[1:])
            assert abs(residual) <= 1e-9 * (1.0 + mean_sombor(g, a))



def test_variance_identity_matches_separate_edge_sums():
    # one power-mean pass, bit-identical to summing each quantity on its own
    for named in default_corpus() + random_connected_graphs(30, seed=17):
        g = named.graph
        m = g.edge_count
        for a in ALPHA_GRID:
            stats, mso, radicand = variance_identity(g, a)
            mean = mean_sombor(g, a) / m
            sigma2 = pair_sum(g, lambda x, y: (power_mean(x, y, a) - mean) ** 2) / m
            tr = 2.0 * pair_sum(g, lambda x, y: power_mean(x, y, a) ** 2)
            assert mso == mean_sombor(g, a)
            assert stats == EdgeTermStats(m=m, mean=mean, sigma2=sigma2)
            assert radicand == (m / 2.0) * tr - m * m * sigma2


def test_variance_columns_on_a_limb_table_match_per_edge_fsums():
    # a table of LIMB_MIN_KEYS keys or more sums in integer limbs; each column
    # entry must still be the per-edge fsum of d**2 and of PM**2, bit for bit
    # (d * d, which the platform's pow(d, 2) behind d**2 does not always equal,
    # changes keys 93 and 127 of
    # these random graphs at a = -3 and -1)
    graphs = [n.graph for n in default_corpus() + random_connected_graphs(128, seed=97)]
    assert len(graphs) >= indices.LIMB_MIN_KEYS
    edges = profile_table([degree_pairs(g) for g in graphs])
    m = np.array([g.edge_count for g in graphs])
    for a in ALPHA_GRID:
        sigma2, radicand = variance_columns(edges, m, a)
        for g, s2, r in zip(graphs, sigma2.tolist(), radicand.tolist()):
            deg, n = g.degrees, g.edge_count
            terms = [power_mean(deg[u], deg[v], a) for u, v in g.edge_list]
            mean = math.fsum(terms) / n
            want = math.fsum([(t - mean) ** 2 for t in terms]) / n
            tr = 2.0 * math.fsum([t**2 for t in terms])
            assert (s2.hex(), r.hex()) == (want.hex(), ((n / 2.0) * tr - n * n * want).hex())


def test_variance_identity_report_evaluates_each_pair_once(monkeypatch):
    calls = []
    real_row = indices._power_mean_row

    def counting(x, y, alphas):  # one kernel row per evaluated pair
        calls.append((x, y))
        return real_row(x, y, alphas)

    monkeypatch.setattr(indices, "_power_mean_row", counting)
    # the star K1,6 with one edge between two leaves: pairs (1,6), (2,2), (2,6)
    g = Graph(7, frozenset({(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (5, 6)}))
    pairs = [p for p, _ in degree_pairs(g)]
    assert len(pairs) == 3 < g.edge_count
    for a in ALPHA_GRID:
        calls.clear()
        variance_identity(g, a)
        assert sorted(calls) == pairs
    assert not hasattr(spectral, "variance_radicand")

def test_matrix_csv_round_trip(k13):
    mat = build_matrix(k13, Alpha.finite(0.5))
    buf = io.StringIO()
    write_matrix_csv(mat, buf)
    rows = [
        [float(cell) for cell in line.split(",")]
        for line in buf.getvalue().strip().splitlines()
    ]
    assert np.array_equal(np.array(rows), mat)


def test_matrix_csv_full_precision():
    mat = build_matrix(star_graph(2), ZERO_LIMIT)  # entries sqrt(2)
    buf = io.StringIO()
    write_matrix_csv(mat, buf)
    assert "1.4142135623730951" in buf.getvalue()
