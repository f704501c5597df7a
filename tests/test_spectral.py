"""Mean Sombor matrix, trace-of-square, and the variance identity."""

import io
import math

import numpy as np
import pytest

from meansombor import bounds, indices, spectral
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
    build_matrix,
    edge_term_stats,
    trace_of_square,
    identity_residual,
    variance_identity,
    write_matrix_csv,
)


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


def test_variance_identity_report_evaluates_each_pair_once(monkeypatch):
    calls = []

    def counting(x, y, a):
        calls.append((x, y))
        return power_mean(x, y, a)

    monkeypatch.setattr(indices, "power_mean", counting)
    monkeypatch.setattr(spectral, "power_mean", counting)
    # the star K1,6 with one edge between two leaves: pairs (1,6), (2,2), (2,6)
    g = Graph(7, frozenset({(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (5, 6)}))
    pairs = [p for p, _ in g.degree_pairs]
    assert len(pairs) == 3 < g.edge_count
    for a in ALPHA_GRID:
        calls.clear()
        bounds._variance_identity_report(g, a, "g")
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
