"""Inequality checks: spec'd example values, equality biconditionals,
strictness, and the sweep plumbing."""

import csv
import io
import itertools
import math
import random

import numpy as np
import pytest

from meansombor import bounds
from meansombor.bounds import (
    BoundReport,
    VerificationTable,
    check_chain,
    check_jensen_m1_bound,
    check_ka_powersum_bound,
    check_kalpha_bound,
    check_monotonicity,
    check_mso2_m1_m2_bound,
    check_so_sandwich,
    checks_for_graph,
    kalpha_constant,
    kp_constant,
    run_verification,
    verdict,
    write_reports_csv,
)
from meansombor.graphs import (
    Graph,
    NamedGraph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    default_corpus,
    disjoint_union,
    enumerate_trees,
    is_connected,
    path_graph,
    random_connected_graphs,
    star_graph,
)
from meansombor.indices import ALPHA_MINUS_INF, ALPHA_PLUS_INF, Alpha, ZERO_LIMIT


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------

def test_monotonicity_p3(p3):
    rep = check_monotonicity(p3, Alpha.finite(-1), Alpha.finite(2))
    assert rep.lhs == pytest.approx(8 / 3, rel=1e-14)
    assert rep.rhs == pytest.approx(2 * math.sqrt(2.5), rel=1e-14)
    assert rep.ok and not rep.equality_observed


def test_monotonicity_regular_collapses(k3):
    for pair in [(ALPHA_MINUS_INF, ZERO_LIMIT), (Alpha.finite(-2), Alpha.finite(5)),
                 (ZERO_LIMIT, ALPHA_PLUS_INF)]:
        rep = check_monotonicity(k3, *pair)
        assert rep.equality_observed and rep.equality_predicted and rep.ok


def test_monotonicity_star_limits(k13):
    rep = check_monotonicity(k13, ALPHA_MINUS_INF, ALPHA_PLUS_INF)
    assert rep.lhs == 3.0 and rep.rhs == 9.0 and rep.ok


def test_monotonicity_near_zero_exponent(p3):
    # the kernel used to return the maximum at a = 1e-300, a false failure
    rep = check_monotonicity(p3, Alpha.finite(1e-300), Alpha.finite(0.5))
    assert rep.lhs == pytest.approx(2 * math.sqrt(2), rel=1e-15)
    assert rep.ok


def test_monotonicity_rejects_misordered(p3):
    with pytest.raises(ValueError):
        check_monotonicity(p3, Alpha.finite(2), Alpha.finite(-1))
    with pytest.raises(ValueError):
        check_monotonicity(p3, ZERO_LIMIT, ZERO_LIMIT)


# ---------------------------------------------------------------------------
# chain
# ---------------------------------------------------------------------------

def test_chain_star_values(k13):
    reps = check_chain(k13)
    assert len(reps) == 4
    want = [
        (4.5, 3 * math.sqrt(3)),
        (3 * math.sqrt(3), 3 * ((math.sqrt(3) + 1) / 2) ** 2),
        (3 * ((math.sqrt(3) + 1) / 2) ** 2, 6.0),
        (6.0, 3 * math.sqrt(5)),
    ]
    for rep, (lhs, rhs) in zip(reps, want):
        assert rep.lhs == pytest.approx(lhs, rel=1e-12)
        assert rep.rhs == pytest.approx(rhs, rel=1e-12)
        assert rep.ok and not rep.equality_observed


def test_chain_regular_equality(k3):
    for rep in check_chain(k3):
        assert rep.equality_observed and rep.ok
        assert rep.lhs == pytest.approx(6.0, rel=1e-12)


def test_chain_strict_on_path(p3):
    for rep in check_chain(p3):
        assert rep.ok and rep.slack > 1e-12


# ---------------------------------------------------------------------------
# Jensen / variable first Zagreb bound
# ---------------------------------------------------------------------------

def test_jensen_star_equality_alpha2(k13):
    rep = check_jensen_m1_bound(k13, 2)
    assert rep.lhs == pytest.approx(3 * math.sqrt(5), rel=1e-13)
    assert rep.rhs == pytest.approx(math.sqrt(1.5) * math.sqrt(30), rel=1e-13)
    assert rep.equality_observed and rep.equality_predicted and rep.ok


def test_jensen_p4_strict_and_reversed(p4):
    up = check_jensen_m1_bound(p4, 2)
    assert up.ok and not up.equality_observed
    down = check_jensen_m1_bound(p4, -1)
    assert down.ok and not down.equality_observed
    # direction flips: the index is the larger side for alpha < 1;
    # mSO_{-1}(P4) = 2 ISI(P4) = 2 (2/3 + 1 + 2/3) = 14/3
    assert down.rhs == pytest.approx(14 / 3, rel=1e-13)


def test_jensen_alpha_one_is_identity(p4):
    rep = check_jensen_m1_bound(p4, 1)
    assert rep.equality_observed and rep.equality_predicted and rep.ok


def test_jensen_rejects_alpha_zero(p3):
    with pytest.raises(ValueError):
        check_jensen_m1_bound(p3, 0.0)


def test_jensen_equality_clause_needs_connectivity():
    # K_{1,8} + K_{4,7}: every edge has d_u^2 + d_v^2 = 65, so the Jensen
    # step is tight at alpha = 2 even though the union is neither regular
    # nor biregular -- the regular-or-biregular equality clause is an iff
    # for connected graphs only, and the report must flag disconnected
    # input as outside the clause
    g = disjoint_union(star_graph(8), complete_bipartite(4, 7))
    rep = check_jensen_m1_bound(g, 2)
    assert not rep.equality_applicable
    assert rep.equality_observed and not rep.equality_predicted
    assert rep.ok  # tolerated only because the clause is inapplicable


# ---------------------------------------------------------------------------
# converse-Holder constant and bound
# ---------------------------------------------------------------------------

def test_kp_constant_examples():
    assert kp_constant(5, 5, 3) == pytest.approx(1.0, abs=1e-15)
    assert kp_constant(1, 16, 2) == pytest.approx(1.25, abs=1e-14)
    assert kp_constant(1, 4, 4 / 3) == pytest.approx(
        0.75 * 0.25 ** (1 / 8) + 0.25 * 4 ** (3 / 8), rel=1e-14
    )


def test_kp_constant_branch_continuity():
    for a, b in [(1, 2), (2, 7), (3, 11)]:
        below = kp_constant(a, b, 2 - 1e-12)
        above = kp_constant(a, b, 2 + 1e-12)
        assert below == pytest.approx(above, abs=1e-9)
        assert kp_constant(a, b, 2.0) == pytest.approx(above, abs=1e-9)


def test_kp_constant_rejects_bad_arguments():
    with pytest.raises(ValueError):
        kp_constant(3, 1, 2)
    with pytest.raises(ValueError):
        kp_constant(1, 2, 1.0)
    with pytest.raises(ValueError):
        kp_constant(0, 2, 3)


def test_kalpha_constant_branches():
    # dual route: explicit branch formulas against the kp_constant form
    for delta, Delta in [(1, 3), (2, 5), (3, 3), (1, 11), (7, 8)]:
        ratio = Delta / delta
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            if alpha <= 0.5:
                branch = alpha * ratio ** ((1 - alpha) / 2) + (1 - alpha) * ratio ** (
                    -alpha / 2
                )
            else:
                branch = alpha * ratio ** (-(1 - alpha) / 2) + (1 - alpha) * ratio ** (
                    alpha / 2
                )
            k = kalpha_constant(delta, Delta, alpha)
            assert k**alpha == pytest.approx(branch, rel=1e-13)
            assert k**alpha == pytest.approx(
                kp_constant(float(delta), float(Delta), 1 / alpha), rel=1e-13
            )


def test_kalpha_constant_branch_point_continuity():
    for delta, Delta in [(1, 4), (2, 9)]:
        below = kalpha_constant(delta, Delta, 0.5 - 1e-10)
        above = kalpha_constant(delta, Delta, 0.5 + 1e-10)
        assert below == pytest.approx(above, rel=1e-7)


def test_kalpha_bound_examples(k3, k13, p4):
    rep = check_kalpha_bound(k3, 0.3)
    assert rep.equality_observed and rep.equality_predicted and rep.ok
    rep = check_kalpha_bound(k13, 0.5)
    assert rep.ok and not rep.equality_observed
    rep = check_kalpha_bound(p4, 0.75)
    assert rep.ok and not rep.equality_observed


def test_kalpha_bound_argument_errors(p3):
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            check_kalpha_bound(p3, bad)


# ---------------------------------------------------------------------------
# Sombor sandwich
# ---------------------------------------------------------------------------

def test_sandwich_p3_alpha1(p3):
    lower, upper = check_so_sandwich(p3, Alpha.finite(1))
    so = 2 * math.sqrt(5)
    assert lower.lhs == pytest.approx(so / 2, rel=1e-13)
    assert lower.rhs == pytest.approx(3.0, rel=1e-13)
    assert upper.rhs == pytest.approx(so / math.sqrt(2), rel=1e-13)
    assert lower.ok and upper.ok
    assert lower.strict_expected and lower.slack > 1e-12


def test_sandwich_disjoint_regular_components_equality():
    g = disjoint_union(complete_graph(3), complete_graph(4))
    (rep,) = check_so_sandwich(g, Alpha.finite(-1))
    assert rep.equality_predicted and rep.equality_observed and rep.ok


def test_sandwich_alpha3_star(k13):
    lower, upper = check_so_sandwich(k13, Alpha.finite(3))
    so = 3 * math.sqrt(10)
    assert lower.lhs == pytest.approx(so / math.sqrt(2), rel=1e-13)
    assert upper.rhs == pytest.approx(2 ** (-1 / 3) * so, rel=1e-13)
    assert lower.ok and upper.ok and upper.strict_expected


def test_sandwich_alpha2_definitional(p4):
    (rep,) = check_so_sandwich(p4, Alpha.finite(2))
    assert rep.equality_observed and rep.equality_predicted and rep.ok


def test_sandwich_tags(p4, k3):
    (zero,) = check_so_sandwich(p4, ZERO_LIMIT)
    assert zero.ok and not zero.equality_observed
    (minus,) = check_so_sandwich(p4, ALPHA_MINUS_INF)
    assert minus.ok
    lower, upper = check_so_sandwich(p4, ALPHA_PLUS_INF)
    assert lower.ok and upper.ok and upper.strict_expected
    # regular graph: +inf upper link is still strict (max < hypot even when
    # the degrees agree)
    lower_k, upper_k = check_so_sandwich(k3, ALPHA_PLUS_INF)
    assert lower_k.equality_observed and upper_k.slack > 1e-12


# ---------------------------------------------------------------------------
# power-sum bound and the final M1 - M2^{1/2} bound
# ---------------------------------------------------------------------------

def test_powersum_beta_one_collapses(p4):
    rep = check_ka_powersum_bound(p4, 1.7, 1.0)
    assert rep.equality_observed and rep.equality_predicted and rep.ok


def test_powersum_star_equality(k13):
    rep = check_ka_powersum_bound(k13, 1, 2)
    assert rep.lhs == pytest.approx(48.0, rel=1e-13)
    assert rep.rhs == pytest.approx(48.0, rel=1e-13)
    assert rep.equality_observed and rep.equality_predicted and rep.ok


def test_powersum_directions(p4):
    le = check_ka_powersum_bound(p4, 1, 0.5)
    assert le.ok and not le.equality_observed
    ge = check_ka_powersum_bound(p4, 1, -1)
    assert ge.ok and not ge.equality_observed
    ge2 = check_ka_powersum_bound(p4, 1, 2)
    assert ge2.ok


def test_mso2_bound_examples(p3, k3, k13):
    rep = check_mso2_m1_m2_bound(p3)
    assert rep.lhs == pytest.approx(2 * math.sqrt(2.5), rel=1e-13)
    assert rep.rhs == pytest.approx(6 - 2 * math.sqrt(2), rel=1e-13)
    assert rep.ok and not rep.equality_observed
    rep = check_mso2_m1_m2_bound(k3)
    assert rep.lhs == pytest.approx(6.0) and rep.rhs == pytest.approx(6.0)
    assert rep.equality_observed and rep.ok
    rep = check_mso2_m1_m2_bound(k13)
    assert rep.lhs == pytest.approx(3 * math.sqrt(5), rel=1e-13)
    assert rep.rhs == pytest.approx(12 - 3 * math.sqrt(3), rel=1e-13)
    assert rep.ok


def test_mso2_bound_disjoint_regular():
    g = disjoint_union(cycle_graph(4), complete_graph(5))
    rep = check_mso2_m1_m2_bound(g)
    assert rep.equality_predicted and rep.equality_observed and rep.ok


# ---------------------------------------------------------------------------
# report record and sweep plumbing
# ---------------------------------------------------------------------------

def test_report_tolerance_scaling():
    rep = BoundReport("x", "g", None, 1e6, 1e6 + 1e-5, equality_predicted=True)
    assert rep.equality_observed  # tolerance scales with magnitude
    rep = BoundReport("x", "g", None, 1.0, 1.0 + 1e-5, equality_predicted=True)
    assert not rep.equality_observed
    rep = BoundReport("x", "g", None, 2.0, 1.0, equality_predicted=False)
    assert not rep.passed and not rep.ok


def _fixed_point(c):
    # the float x > 0 with x == c * (1.0 + x), so that a row with lhs = 0
    # and rhs = +-x has a scale of 1.0 + x and |slack| == c * scale exactly
    x = c
    for _ in range(10):
        x, previous = c * (1.0 + x), x
        if x == previous:
            return x
    raise AssertionError(f"no fixed point near {c}")


def test_verdict_rule_at_its_boundaries():
    # the column verdicts and BoundReport's properties share one rule; they
    # must agree where each comparison is decided by equality: slack
    # exactly -tol (passes), |slack| exactly tol (an observed equality),
    # and slack exactly 1e-12 * scale (not strict), and one ulp past each
    tol, strict = _fixed_point(1e-9), _fixed_point(1e-12)
    sides = [(0.0, -tol), (0.0, tol), (-tol, 0.0), (0.0, strict)]
    sides += [(0.0, math.nextafter(-tol, -1.0)), (0.0, math.nextafter(tol, 1.0)),
              (0.0, math.nextafter(strict, 1.0))]
    rows = [
        BoundReport("edge", "g", None, lhs, rhs, *flags)
        for lhs, rhs in sides for flags in itertools.product((False, True), repeat=3)
    ]
    assert rows[0].slack == -rows[0].tol and rows[0].passed and rows[0].equality_observed
    assert rows[8].slack == rows[8].tol and rows[8].equality_observed
    assert rows[16].slack == rows[16].tol and rows[16].equality_observed
    at_strict = rows[24:32]
    assert at_strict[0].slack == 1e-12 * (1.0 + abs(at_strict[0].lhs) + abs(at_strict[0].rhs))
    assert [r.ok for r in at_strict if r.strict_expected] == [False] * 4
    assert not rows[32].passed and not rows[40].equality_observed
    # one ulp past 1e-12 * scale the gap is strict, and still an observed equality
    assert [r.ok for r in rows[48:56] if r.strict_expected] == [True, False, True, True]

    def column(name):
        return np.array([[getattr(r, name) for r in rows]])

    table = VerificationTable(
        tuple((r.bound_id, r.alpha) for r in rows), column("lhs"), column("rhs"),
        column("equality_predicted"), column("equality_applicable"),
        column("strict_expected"), [("key",)], [("g", 0)],
    )
    assert list(table) == rows
    v = table.verdict
    for name in ("slack", "tol", "passed", "equality_observed", "ok"):
        assert getattr(v, name)[0].tolist() == [getattr(r, name) for r in rows], name
    scalar = [verdict(r.lhs, r.rhs, r.equality_predicted, r.equality_applicable,
                      r.strict_expected) for r in rows]
    assert [tuple(x) for x in scalar] == [
        (r.slack, r.tol, r.passed, r.equality_observed, r.ok) for r in rows
    ]
    from_table, from_rows = io.StringIO(), io.StringIO()
    write_reports_csv(table, from_table)
    write_reports_csv(rows, from_rows)
    assert from_table.getvalue() == from_rows.getvalue() == _csv_writer_reference(rows)


def test_checks_for_graph_names_rows(k13):
    rows = checks_for_graph(NamedGraph("star", k13))
    assert all(r.graph_id == "star" for r in rows)
    assert {r.bound_id for r in rows} >= {
        "monotonicity",
        "chain-2isi-r1",
        "jensen-m1",
        "kalpha",
        "so-sandwich-lower",
        "so-sandwich-upper",
        "mso2-m1-m2",
        "variance-identity",
    }
    assert all(r.ok for r in rows)


def _relabelled(g, rng):
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    return Graph.from_edges(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])


def test_checks_for_graph_rows_are_label_invariant():
    # every check is a function of the degree-pair profile, the vertex count
    # and connectivity, so relabelling the vertices must not move a bit
    rng = random.Random(11)
    for named in default_corpus() + random_connected_graphs(200, seed=11):
        relabelled = _relabelled(named.graph, rng)
        assert checks_for_graph(NamedGraph(named.name, relabelled)) == checks_for_graph(named)


def test_run_verification_reuses_rows_per_profile_key():
    # the sweep holds one battery per (degree pairs, vertex count, connected)
    # key, computed as columns over the keys, and must equal the plain
    # per-graph sweep row for row, bit for bit
    rng = random.Random(5)
    trees = [
        NamedGraph(f"t{n}_{i}", t) for n in range(2, 11) for i, t in enumerate(enumerate_trees(n))
    ]
    c6, two_c3 = cycle_graph(6), disjoint_union(complete_graph(3), complete_graph(3))
    k23 = complete_bipartite(2, 3)
    collisions = [NamedGraph("C6", c6), NamedGraph("2C3", two_c3), NamedGraph("K2,3", k23)]
    collisions += [NamedGraph(f"K2,3_relabelled_{i}", _relabelled(k23, rng)) for i in range(3)]
    assert c6.degree_pairs == two_c3.degree_pairs  # same profile and n, not connectivity
    dense = [random_connected_graphs(300, seed) for seed in (20240803, 97)]
    for gs in (default_corpus(), trees, collisions, *dense):
        assert list(run_verification(gs, random_count=0)) == [
            r for n in gs for r in checks_for_graph(n)
        ]

    # G + K1 keeps G's profile, but its isolated vertex must still reach
    # kalpha's minimum-degree check: after P3 the connected flag tells them
    # apart, after 2C3 (already disconnected) only the vertex count does
    k1 = Graph(1, frozenset())
    for g in (path_graph(3), two_c3):
        pair = [NamedGraph("G", g), NamedGraph("G+K1", disjoint_union(g, k1))]
        with pytest.raises(ValueError, match="minimum degree"):
            checks_for_graph(pair[1])
        with pytest.raises(ValueError, match="minimum degree"):
            run_verification(pair, random_count=0)
    # an edgeless graph fails the Jensen bound first, connected or not
    for g in (k1, disjoint_union(k1, k1)):
        with pytest.raises(ValueError, match="at least one edge"):
            checks_for_graph(NamedGraph("E", g))
        with pytest.raises(ValueError, match="at least one edge"):
            run_verification([NamedGraph("P3", path_graph(3)), NamedGraph("E", g)], random_count=0)
    # the first rejected graph in corpus order decides the error
    p3_k1 = NamedGraph("P3+K1", disjoint_union(path_graph(3), k1))
    with pytest.raises(ValueError, match="minimum degree"):
        run_verification([p3_k1, NamedGraph("K1", k1)], random_count=0)

    table = run_verification(trees, random_count=0)
    keys = {(n.graph.degree_pairs, n.graph.vertex_count, is_connected(n.graph)) for n in trees}
    assert len(table.batteries) == len(keys) < len(trees)


def test_run_verification_small_corpus_passes():
    corpus = default_corpus()[:15]
    reports = run_verification(corpus, random_count=20, seed=3)
    assert reports and all(r.ok for r in reports)
    # determinism
    again = run_verification(corpus, random_count=20, seed=3)
    assert [(r.bound_id, r.graph_id, r.lhs, r.rhs) for r in reports] == [
        (r.bound_id, r.graph_id, r.lhs, r.rhs) for r in again
    ]


def test_run_verification_sweeps_the_corpus_then_the_requested_random_graphs():
    corpus = default_corpus()[:15]
    table = run_verification(corpus)
    assert len(table) == 61 * len(corpus)
    assert [graph_id for graph_id, _ in table.graphs] == [n.name for n in corpus]
    assert not any(r.graph_id.startswith("random_") for r in table)
    seeded = run_verification(corpus, random_count=5, seed=9)
    assert list(seeded) == list(run_verification(corpus + random_connected_graphs(5, 9)))


def test_write_reports_csv_shape(k13):
    rows = checks_for_graph(NamedGraph("s", k13))
    buf = io.StringIO()
    write_reports_csv(rows, buf, seed=99, random_count=0)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# seed=99 random_graphs=0"
    assert lines[1].startswith("bound_id,graph_id,alpha,lhs,rhs,slack")
    assert len(lines) == len(rows) + 2


def _csv_writer_reference(rows, seed=None, random_count=None):
    # the row-by-row csv.writer output the table writer must reproduce
    buf = io.StringIO()
    if seed is not None:
        buf.write(f"# seed={seed} random_graphs={random_count}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(bounds.REPORT_COLUMNS)
    for r in rows:
        writer.writerow([
            r.bound_id, r.graph_id, r.alpha.token() if r.alpha is not None else "",
            format(r.lhs, ".17g"), format(r.rhs, ".17g"), format(r.slack, ".17g"),
            int(r.equality_predicted), int(r.equality_observed),
            int(r.equality_applicable), int(r.strict_expected), int(r.ok),
        ])
    return buf.getvalue()


def test_write_reports_csv_table_matches_row_by_row_writer():
    # the table formats each battery row once and writes it around every
    # graph id sharing its key; the bytes must equal the per-graph rows
    # written one by one, and csv.writer's own quoting of the ids
    trees = [
        NamedGraph(f"t{n}_{i}", t) for n in range(2, 11) for i, t in enumerate(enumerate_trees(n))
    ]
    k13, p4 = star_graph(3), path_graph(4)
    quoted = [
        NamedGraph("K1,3", k13), NamedGraph("P4", p4), NamedGraph('star "3"', k13),
        NamedGraph('P4, "again"', p4), NamedGraph("star\nthree", k13),
        NamedGraph("star\rthree", k13), NamedGraph("", k13),
    ]
    for gs in (default_corpus(), trees, quoted):
        table = run_verification(gs, random_count=0)
        rows = [r for n in gs for r in checks_for_graph(n)]
        assert len(table) == len(rows)
        from_table, from_rows = io.StringIO(), io.StringIO()
        write_reports_csv(table, from_table, seed=7, random_count=0)
        write_reports_csv(rows, from_rows, seed=7, random_count=0)
        assert from_table.getvalue() == from_rows.getvalue()
        assert from_table.getvalue() == _csv_writer_reference(rows, seed=7, random_count=0)
    # the quoted ids share two batteries, so most are written from the cache
    assert len(table.batteries) == 2
    assert '\nmonotonicity,"K1,3",' in from_table.getvalue()
