"""Regression statistics, dataset plumbing, and the exponent scan.

scipy is the independent oracle for the incomplete beta / F significance;
the fit itself is cross-checked against closed forms on frozen inputs.
"""

import csv
import dataclasses
import io
import json
import math
import random
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from meansombor import indices, qspr
from meansombor.cli import main
from meansombor.graphs import Graph, NamedGraph, complete_graph, enumerate_octane_skeletons
from meansombor.indices import (
    ALPHA_MINUS_INF,
    ALPHA_PLUS_INF,
    Alpha,
    ZERO_LIMIT,
    descriptor_matrix,
    mean_sombor,
)
from meansombor.qspr import (
    MAX_GRID_POINTS,
    AlphaGrid,
    DegeneratePredictorError,
    alpha_scan,
    curve_template,
    f_significance,
    fit_linear,
    load_dataset,
    qspr_at_alpha,
    regularized_incomplete_beta,
    reports_to_json,
    write_curve_csv,
    write_reports_csv,
)
from scalar_battery import degree_pairs, profile_table

SKELETONS = enumerate_octane_skeletons()


def make_csv(rows, header):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def planted_dataset(alpha, slope=10.0, intercept=7.0, prop="P"):
    rows = [
        (s.name, repr(slope * mean_sombor(s.graph, alpha) + intercept))
        for s in SKELETONS
    ]
    return load_dataset(SKELETONS, make_csv(rows, ["name", prop]))


# ---------------------------------------------------------------------------
# incomplete beta / F significance
# ---------------------------------------------------------------------------

def test_betainc_against_scipy():
    rng = random.Random(7)
    for _ in range(400):
        a = rng.uniform(0.2, 50)
        b = rng.uniform(0.2, 50)
        x = rng.random()
        assert regularized_incomplete_beta(x, a, b) == pytest.approx(
            float(scipy.special.betainc(a, b, x)), abs=1e-12
        )
    assert regularized_incomplete_beta(0.0, 2, 3) == 0.0
    assert regularized_incomplete_beta(1.0, 2, 3) == 1.0
    with pytest.raises(ValueError, match="beta parameters must be positive"):
        regularized_incomplete_beta(0.5, 0, 1)


def test_f_significance_reference_value():
    # published benchmark: F = 749.116 on (1, 16) dof has significance
    # 7.25e-15 (to the printed 3 digits)
    sf = f_significance(749.116, 1, 16)
    assert sf == pytest.approx(7.25e-15, rel=0.02)
    assert sf == pytest.approx(float(scipy.stats.f.sf(749.116, 1, 16)), rel=1e-9)


def test_f_significance_against_scipy_grid():
    for f in (0.01, 0.5, 1.0, 4.622, 16.934, 98.128, 749.116, 5e4):
        for df2 in (2, 5, 16, 40):
            assert f_significance(f, 1, df2) == pytest.approx(
                float(scipy.stats.f.sf(f, 1, df2)), rel=1e-9
            )
        # large df2: the documented accuracy there is 1e-8, not 1e-12
        for df2 in (1_000, 100_000, 1_000_000):
            assert f_significance(f, 1, df2) == pytest.approx(
                float(scipy.stats.f.sf(f, 1, df2)), rel=1e-8
            )


def test_f_significance_monotone_in_f():
    values = [f_significance(f, 1, 16) for f in (0.1, 1, 5, 20, 100, 1000)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert f_significance(0.0, 1, 16) == 1.0
    assert f_significance(math.inf, 1, 16) == 0.0


def test_f_significance_rejects_non_positive_dof():
    with pytest.raises(ValueError, match="degrees of freedom must be positive"):
        f_significance(1.0, 0, 3)


# ---------------------------------------------------------------------------
# fit_linear
# ---------------------------------------------------------------------------

def test_fit_exact_line():
    fit = fit_linear([1, 2, 3], [2, 4, 6])
    assert fit.c1 == pytest.approx(2.0, abs=1e-15)
    assert fit.c2 == pytest.approx(0.0, abs=1e-14)
    assert fit.r == 1.0 and fit.se == 0.0
    assert math.isinf(fit.f) and fit.sf == 0.0


def test_fit_four_point_closed_form():
    # r = -2/sqrt(20) by direct Pearson computation
    fit = fit_linear([1, 2, 3, 4], [1, -1, 1, -1])
    assert fit.r == pytest.approx(-0.4472135954999579, abs=1e-15)
    assert fit.f == pytest.approx(0.5, rel=1e-12)
    assert fit.sf > 0.05


def test_fit_errors():
    with pytest.raises(ValueError):
        fit_linear([1, 2], [1, 2])
    with pytest.raises(ValueError):
        fit_linear([1, 2, 3], [1, 2])
    with pytest.raises(DegeneratePredictorError):
        fit_linear([2, 2, 2], [1, 2, 3])


def test_fit_constant_response():
    fit = fit_linear([1, 2, 3], [5, 5, 5])
    assert fit.c1 == 0.0 and fit.c2 == 5.0 and fit.r == 0.0 and fit.sf == 1.0


def test_fit_f_consistency_and_sign():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(5, 40)
        x = [rng.uniform(-5, 5) for _ in range(n)]
        y = [2.5 * xi - 1 + rng.gauss(0, 3) for xi in x]
        fit = fit_linear(x, y)
        if abs(fit.r) < 1:
            expect = fit.r**2 * (n - 2) / (1 - fit.r**2)
            assert fit.f == pytest.approx(expect, rel=1e-9)
        assert math.copysign(1, fit.c1) == math.copysign(1, fit.r)


def test_r_affine_invariance():
    ds = planted_dataset(Alpha.finite(0.7))
    base = qspr_at_alpha(ds, "P", Alpha.finite(-2)).r
    rows = [
        (s.name, repr(10 * (10 * mean_sombor(s.graph, Alpha.finite(0.7)) + 7) + 7))
        for s in SKELETONS
    ]
    scaled = load_dataset(SKELETONS, make_csv(rows, ["name", "P"]))
    assert qspr_at_alpha(scaled, "P", Alpha.finite(-2)).r == pytest.approx(
        base, abs=1e-12
    )


# ---------------------------------------------------------------------------
# dataset loading
# ---------------------------------------------------------------------------

def test_load_octane_shape():
    rows = [(s.name, str(i), "") for i, s in enumerate(SKELETONS)]
    rows[0] = (SKELETONS[0].name, str(0), "1.5")
    ds = load_dataset(SKELETONS, make_csv(rows, ["name", "A", "B"]))
    assert len(ds.records) == 18
    assert ds.property_names == ("A", "B")
    assert ds.usable_properties() == ["A"]  # B has a single value
    assert not ds.is_usable("B")
    assert ds.count("A") == 18


def test_load_rejects_unknown_molecule():
    with pytest.raises(ValueError, match="unknown molecule"):
        load_dataset(SKELETONS, "name,A\nnot-a-molecule,1\n")


def test_load_rejects_duplicate_row():
    name = SKELETONS[0].name
    text = make_csv([(name, "1"), (name, "2")], ["name", "A"])
    with pytest.raises(ValueError, match="duplicate molecule"):
        load_dataset(SKELETONS, text)


def test_load_rejects_non_numeric():
    text = make_csv([(SKELETONS[0].name, "abc")], ["name", "A"])
    with pytest.raises(ValueError, match="non-numeric"):
        load_dataset(SKELETONS, text)


def test_load_rejects_non_finite_cells():
    for cell in ("nan", "inf", "-inf", "Infinity", "NaN"):
        text = make_csv([(SKELETONS[0].name, "1", cell)], ["name", "A", "B"])
        with pytest.raises(ValueError, match=f"row 2: non-finite cell '{cell}' for B"):
            load_dataset(SKELETONS, text)


def test_load_rejects_rows_longer_than_header():
    text = make_csv([(SKELETONS[0].name, "1", "2")], ["name", "A"])
    with pytest.raises(ValueError, match="row 2: 3 cells, header has 2"):
        load_dataset(SKELETONS, text)
    # a short row still just misses its trailing cells
    ds = load_dataset(SKELETONS, make_csv([(SKELETONS[0].name, "1")], ["name", "A", "B"]))
    assert ds.records[0].properties == {"A": 1.0}


def test_load_rejects_bad_header():
    with pytest.raises(ValueError, match="properties CSV is empty"):
        load_dataset(SKELETONS, "")
    with pytest.raises(ValueError, match="duplicate property column in CSV header"):
        load_dataset(SKELETONS, "name,A,A\n")
    with pytest.raises(ValueError, match="header"):
        load_dataset(SKELETONS, "molecule,A\nn-octane,1\n")
    for header in ("name,,BP", "name, ,BP"):
        with pytest.raises(ValueError, match="header column 2"):
            load_dataset(SKELETONS, header + "\nn-octane,1,2\n")


def test_load_rejects_duplicate_graph_names():
    doubled = list(SKELETONS) + [SKELETONS[0]]
    with pytest.raises(ValueError, match="duplicate graph name"):
        load_dataset(doubled, "name,A\n")


def test_load_rejects_edgeless_graph():
    with pytest.raises(ValueError, match="graph 'e' has no edges"):
        load_dataset([NamedGraph("e", Graph(3, frozenset()))], "name,A\n")


def test_load_skips_blank_rows():
    text = "name,A\n\nn-octane,1\n   \n , \n2-methylheptane,2\n"
    ds = load_dataset(SKELETONS, text)
    props = {rec.name: rec.properties for rec in ds.records if rec.properties}
    assert props == {"n-octane": {"A": 1.0}, "2-methylheptane": {"A": 2.0}}


def test_property_with_two_values_unusable():
    rows = [(SKELETONS[0].name, "1"), (SKELETONS[1].name, "2")]
    ds = load_dataset(SKELETONS, make_csv(rows, ["name", "A"]))
    assert not ds.is_usable("A")
    with pytest.raises(ValueError, match="fewer than 3"):
        qspr_at_alpha(ds, "A", Alpha.finite(1))


def test_documented_schema_loads_and_fits():
    # the full 11-column header from the documented schema, with synthetic
    # values and some missing cells
    props = ["AcentFac", "BP", "HCCP", "CT", "DENS", "DHFORM", "DHVAP",
             "HFORM", "HV", "HVAP", "S"]
    rows = []
    for i, s in enumerate(SKELETONS):
        x = mean_sombor(s.graph, ZERO_LIMIT)
        cells = [f"{(j + 1) * x + j!r}" for j in range(len(props))]
        if i % 7 == 0:
            cells[3] = ""  # a few missing CT cells
        rows.append([s.name] + cells)
    ds = load_dataset(SKELETONS, make_csv(rows, ["name"] + props))
    assert ds.usable_properties() == props
    assert ds.count("CT") == 15
    for prop in props:
        rep = qspr_at_alpha(ds, prop, ZERO_LIMIT)
        assert abs(rep.r) == pytest.approx(1.0, abs=1e-12)
    assert qspr_at_alpha(ds, "CT", ZERO_LIMIT).n == 15


# ---------------------------------------------------------------------------
# per-alpha regression and scan
# ---------------------------------------------------------------------------

def test_planted_relation_recovered_exactly():
    ds = planted_dataset(Alpha.finite(0.5))
    rep = qspr_at_alpha(ds, "P", Alpha.finite(0.5))
    assert rep.r == pytest.approx(1.0, abs=1e-12)
    assert rep.c1 == pytest.approx(10.0, abs=1e-9)
    assert rep.c2 == pytest.approx(7.0, abs=1e-9)
    assert rep.n == 18


def test_degenerate_predictor_on_regular_only_dataset():
    regs = [NamedGraph(f"k4_{i}", complete_graph(4)) for i in range(4)]
    text = make_csv([(f"k4_{i}", str(i)) for i in range(4)], ["name", "Z"])
    ds = load_dataset(regs, text)
    with pytest.raises(DegeneratePredictorError):
        qspr_at_alpha(ds, "Z", Alpha.finite(2))
    with pytest.raises(DegeneratePredictorError):
        alpha_scan(ds, "Z", AlphaGrid(-1, 1, 0.5))


def test_scan_constant_property_gives_zero_curve():
    text = make_csv([(s.name, "5.0") for s in SKELETONS], ["name", "K"])
    ds = load_dataset(SKELETONS, text)
    best, curve = alpha_scan(ds, "K", AlphaGrid(-1, 1, 0.25))
    assert len(curve) == 11
    assert all(r == 0.0 for _, r in curve)
    assert best.r == 0.0 and best.c1 == 0.0 and best.c2 == 5.0


def _sorted_grid(grid):
    """The grid as built by sorting the limit points into the finite lattice."""
    k_lo = math.ceil(round(grid.lo / grid.step, 9))
    k_hi = math.floor(round(grid.hi / grid.step, 9))
    finite = [Alpha.finite(round(k * grid.step, 12)) for k in range(k_lo, k_hi + 1) if k != 0]
    return sorted([ALPHA_MINUS_INF, ZERO_LIMIT, ALPHA_PLUS_INF] + finite)


def test_alpha_grid_points():
    grid = AlphaGrid(-1, 1, 0.5)
    pts = grid.points()
    assert pts[0] == ALPHA_MINUS_INF and pts[-1] == ALPHA_PLUS_INF
    assert ZERO_LIMIT in pts
    finite = [a.value for a in pts if a.is_finite]
    assert finite == [-1.0, -0.5, 0.5, 1.0]  # zero excluded, covered by the limit point
    assert pts == sorted(pts)
    grids = [
        grid,
        AlphaGrid(),
        AlphaGrid(-3, -0.5, 0.25),  # one-sided negative
        AlphaGrid(0.5, 3, 0.25),  # one-sided positive
        AlphaGrid(-0.73, 1.19, 0.1),  # off-lattice bounds
        AlphaGrid(0.05, 0.95, 0.3),
        AlphaGrid(-2.01, -0.02, 0.7),
    ]
    for g in grids:
        pts = g.points()
        assert pts == _sorted_grid(g)
        negatives = sum(a.is_finite and a.value < 0 for a in pts)
        assert pts[0] == ALPHA_MINUS_INF and pts[-1] == ALPHA_PLUS_INF
        assert pts.index(ZERO_LIMIT) == negatives + 1
        assert sum(not a.is_finite for a in pts) == 3


def test_alpha_grid_points_are_the_extended_line():
    pts = np.asarray(AlphaGrid(-1, 1, 0.5).points(), float)
    assert pts.tolist() == [-math.inf, -1.0, -0.5, 0.0, 0.5, 1.0, math.inf]


def test_alpha_grid_excludes_zero_even_off_lattice():
    pts = AlphaGrid(-0.05, 0.05, 0.01).points()
    assert all(a.value != 0.0 for a in pts if a.is_finite)


def test_alpha_grid_validation(monkeypatch):
    def no_points(self):
        raise AssertionError("a rejected grid must not be built")

    monkeypatch.setattr(AlphaGrid, "points", no_points)
    cases = [
        ((1, -1, 0.5), "lo <= hi"),
        ((-1, 1, 0.0), "step > 0"),
        ((-math.inf, 1, 0.1), "must be finite"),
        ((math.nan, 1, 0.1), "must be finite"),
        ((-1, 1, math.inf), "must be finite"),
        ((0.001, 0.002, 0.01), "no nonzero lattice point"),
        ((-0.5, 0.5, 1.0), "no nonzero lattice point"),
        ((-1, 1, 1e-13), f"more than {MAX_GRID_POINTS} finite points"),
        ((-500, 500.01, 0.01), f"more than {MAX_GRID_POINTS} finite points"),
        ((-1e300, 1e300, 1e-300), f"more than {MAX_GRID_POINTS} finite points"),
        ((-1e-12, 1e-12, 1e-13), "step below 1e-12"),
        ((2, 2.0000000005, 1e-10), "step 1e-10 is below twice the token resolution 1e-09"),
    ]
    for args, cause in cases:
        with pytest.raises(ValueError, match=re.escape(cause)):
            AlphaGrid(*args)
    AlphaGrid(-500, 500, 0.01)  # exactly MAX_GRID_POINTS finite points


@settings(max_examples=300, deadline=None)
@given(
    exponent=st.integers(-4, 9),
    mantissa=st.floats(1.0, 10.0, exclude_max=True),
    negative=st.booleans(),
    units=st.floats(1.0, 4.0),
    count=st.integers(1, 400),
    share_below=st.floats(0.0, 1.0),
)
def test_accepted_grids_have_distinct_tokens(
    exponent, mantissa, negative, units, count, share_below
):
    # steps of a few units of the last token digit at the largest |alpha|,
    # where a grid is accepted or rejected on that resolution alone
    top = mantissa * 10.0**exponent
    step = units * 10.0 ** (exponent - 9)
    lo, hi = top - count * step * share_below, top + count * step * (1.0 - share_below)
    if negative:
        lo, hi = -hi, -lo
    try:
        grid = AlphaGrid(lo, hi, step)
    except ValueError:
        return
    tokens = [a.token() for a in grid.points()]
    assert len(set(tokens)) == len(tokens)


def test_scan_recovers_planted_finite_alpha():
    ds = planted_dataset(Alpha.finite(0.5))
    best, curve = alpha_scan(ds, "P", AlphaGrid(-3, 3, 0.05))
    assert abs(best.r) == pytest.approx(1.0, abs=1e-9)
    assert best.alpha.is_finite and best.alpha.value == pytest.approx(0.5, abs=0.05)
    assert len(curve) == 123  # 120 finite points + 3 limit points


def test_scan_prefers_zero_limit_tag():
    ds = planted_dataset(ZERO_LIMIT)
    best, _ = alpha_scan(ds, "P", AlphaGrid(-2, 2, 0.1))
    assert best.alpha == ZERO_LIMIT
    assert abs(best.r) == pytest.approx(1.0, abs=1e-12)


def test_scan_finds_infinite_optimum():
    ds = planted_dataset(ALPHA_PLUS_INF, slope=-2.0, intercept=40.0)
    best, _ = alpha_scan(ds, "P", AlphaGrid(-2, 2, 0.1))
    assert best.alpha == ALPHA_PLUS_INF
    assert best.r == pytest.approx(-1.0, abs=1e-12)


def test_scan_rejects_descriptors_not_monotone_in_alpha(monkeypatch):
    ds = planted_dataset(Alpha.finite(1))
    monkeypatch.setattr(qspr, "descriptor_matrix", lambda gs, pts: -descriptor_matrix(gs, pts))
    with pytest.raises(RuntimeError, match="not monotone in alpha"):
        alpha_scan(ds, "P", AlphaGrid(-1, 1, 0.5))


def test_scan_curve_matches_per_point_fits():
    ds = planted_dataset(Alpha.finite(-1.5), slope=4.25, intercept=-11.5)
    points = AlphaGrid().points()
    _, curve = alpha_scan(ds, "P")
    assert [a for a, _ in curve] == points
    y = [4.25 * mean_sombor(s.graph, Alpha.finite(-1.5)) - 11.5 for s in SKELETONS]
    for a, r in curve:
        x = [mean_sombor(s.graph, a) for s in SKELETONS]
        assert r == pytest.approx(fit_linear(x, y).r, rel=0.0, abs=1e-12)


def test_scan_deterministic():
    ds = planted_dataset(Alpha.finite(-1.3))
    b1, c1 = alpha_scan(ds, "P", AlphaGrid(-2, 2, 0.1))
    b2, c2 = alpha_scan(ds, "P", AlphaGrid(-2, 2, 0.1))
    assert b1 == b2
    assert c1 == c2  # bit-exact reproducibility


def three_property_csv():
    """Octane table with a planted law per column and missing cells in B
    and C, so the three properties fit different record subsets."""
    rows = []
    for i, s in enumerate(SKELETONS):
        a = 10.0 * mean_sombor(s.graph, Alpha.finite(0.5)) + 7.0
        b = -2.0 * mean_sombor(s.graph, ZERO_LIMIT) + 40.0 + 0.01 * (i % 3)
        c = 0.3 * mean_sombor(s.graph, Alpha.finite(-1.3)) + math.sin(i)
        rows.append((s.name, repr(a), "" if i in (2, 9) else repr(b), "" if i == 5 else repr(c)))
    return make_csv(rows, ["name", "A", "B", "C"])


def test_scan_properties_matches_per_property_scans():
    ds = load_dataset(SKELETONS, three_property_csv())
    props = ["A", "B", "C"]
    assert [ds.count(p) for p in props] == [18, 16, 17]
    points, scans = qspr.scan_properties(ds, props)
    assert points == AlphaGrid().points()
    for p, (best, r) in zip(props, scans):
        # the report equal, and the r array the one-property curve's r bit for bit
        one_best, one_curve = alpha_scan(ds, p)
        assert best == one_best
        assert [a for a, _ in one_curve] == points
        assert r.shape == (len(points),) and r.dtype == float
        assert r.tobytes() == np.array([v for _, v in one_curve]).tobytes()
        # each curve reads the rows of its own records out of the shared matrix
        recs = ds.column(p)
        y = [rec.properties[p] for rec in recs]
        for a, v in list(zip(points, r.tolist()))[::50] + [(points[-1], r[-1])]:
            x = [mean_sombor(rec.graph, a) for rec in recs]
            assert v == pytest.approx(fit_linear(x, y).r, rel=0.0, abs=1e-12)


def test_scan_command_builds_grid_and_matrix_once(capsys, monkeypatch, tmp_path):
    table = tmp_path / "props.csv"
    table.write_text(three_property_csv(), encoding="utf-8")
    calls = {"descriptor_matrix": 0, "points": 0, "profile_sums": 0}
    real_matrix, real_points, real_profiles = qspr.descriptor_matrix, AlphaGrid.points, qspr.profile_sums

    def counted_matrix(profiles, alphas):
        calls["descriptor_matrix"] += 1
        return real_matrix(profiles, alphas)

    def counted_profiles(graphs):
        calls["profile_sums"] += 1
        return real_profiles(graphs)

    def counted_points(self):
        calls["points"] += 1
        return real_points(self)

    monkeypatch.setattr(qspr, "descriptor_matrix", counted_matrix)
    monkeypatch.setattr(AlphaGrid, "points", counted_points)
    monkeypatch.setattr(qspr, "profile_sums", counted_profiles)
    out = tmp_path / "scan.csv"
    argv = ["scan", "--properties", str(table), "--alpha-range", "-2:2:0.1", "--out", str(out)]
    assert main(argv) == 0
    # one profile table for the dataset, read by the matrix, the refinements and the fits
    assert calls == {"descriptor_matrix": 1, "points": 1, "profile_sums": 1}
    assert [row[0] for row in csv.reader(io.StringIO(out.read_text()))] == ["property", "A", "B", "C"]

    assert main(["scan", "--properties", str(table), "--property", "D"]) == 1
    assert "missing or has fewer than 3 values" in capsys.readouterr().err


def test_default_scan_evaluates_each_exponent_once(monkeypatch, tmp_path):
    # the benchmark's seeded table: 11 properties, each refined by golden section
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import make_properties_csv

    table = tmp_path / "props.csv"
    table.write_text(make_properties_csv(SKELETONS, 20240803)[0], encoding="utf-8")
    pairs = len(load_dataset(SKELETONS, table.read_text()).profiles.items)
    rows, real_row = [], indices._power_mean_row

    def counted_row(x, y, alphas):
        rows.append(list(alphas))
        return real_row(x, y, rows[-1])

    monkeypatch.setattr(indices, "_power_mean_row", counted_row)
    assert main(["scan", "--properties", str(table), "--out", str(tmp_path / "scan.csv")]) == 0
    grid_rows = [r for r in rows if len(r) > 1]
    exponents = Counter(r[0] for r in rows if len(r) == 1)
    # one row per pair for the grid, then each exponent off it once per pair
    assert len(grid_rows) == pairs and len(grid_rows[0]) == len(AlphaGrid().points())
    assert set(exponents.values()) == {pairs}
    assert len(rows) == pairs * (1 + len(exponents))


def _min_best_finite(curve):
    """The best finite grid point as a min over the curve: the rule the
    lexsort pick must keep."""
    return min(((a, r) for a, r in curve if a.is_finite), key=lambda ar: (-abs(ar[1]), abs(ar[0])))


def test_best_finite_point_keeps_the_min_tie_rule():
    points = AlphaGrid(-2, 2, 0.5).points()  # -inf -2 -1.5 -1 -0.5 0 0.5 1 1.5 2 +inf
    alphas = np.array(points, dtype=float)
    finite = np.flatnonzero(np.isfinite(alphas) & (alphas != 0.0))
    by_alpha = dict(zip(alphas.tolist(), range(len(points))))
    cases = [
        {-1.0: 0.9, 1.0: 0.9},  # +-alpha with the same r: -alpha comes first
        {-1.0: -0.9, 1.0: 0.9},  # +-alpha with opposite signs
        {2.0: 0.8, 0.5: -0.8, -1.5: 0.8},  # equal |r| at different |alpha|
        {-0.5: 0.7, 0.5: -0.7, -2.0: 0.7},
        {-math.inf: 1.0, math.inf: -1.0, 0.0: 0.99, 1.5: 0.5, -1.5: -0.5},  # limit points excluded
        {},  # all zero: the smallest |alpha|, the negative first
    ]
    for case in cases:
        r = np.full(len(points), 0.25 if case else 0.0)
        for a, value in case.items():
            r[by_alpha[a]] = value
        curve = list(zip(points, r.tolist()))
        best = qspr._best_finite_point(alphas, finite, r)
        assert (points[best], float(r[best])) == _min_best_finite(curve), case
        assert points[best] is _min_best_finite(curve)[0]
    rng = random.Random(4)
    for _ in range(200):  # coarse r values, so ties are frequent
        r = np.array([rng.choice((-1, 1)) * rng.randrange(4) / 4 for _ in points])
        curve = list(zip(points, r.tolist()))
        assert points[qspr._best_finite_point(alphas, finite, r)] is _min_best_finite(curve)[0]


def _csv_writer_curve(curve):
    """The curve file as csv.writer writes it, one row and one token per point."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("alpha", "r"))
    for a, r in curve:
        writer.writerow([a.token(), format(r, ".17g")])
    return buf.getvalue()


def test_curve_writer_matches_csv_writer_bytes():
    ds = planted_dataset(Alpha.finite(-0.7), slope=-3.0, intercept=2.5)
    grids = [
        AlphaGrid(-1, 1, 0.5),
        AlphaGrid(),
        AlphaGrid(-0.73, 1.19, 0.1),  # off-lattice bounds
        AlphaGrid(0.5, 3, 0.25),  # one-sided positive
        AlphaGrid(-3, -0.5, 0.25),  # one-sided negative
        AlphaGrid(0.5, 0.5, 0.5),  # one finite point
        AlphaGrid(-1e12, -0.99999e12, 2e6),  # tokens in exponent notation
        AlphaGrid(1e-5, 5e-5, 1e-5),
    ]
    curves = [alpha_scan(ds, "P", grid)[1] for grid in grids]
    # a degenerate exponent's nan row, a -0.0 r, +-inf and a subnormal r
    special = AlphaGrid(-1, 1, 0.5).points()
    rs = [math.nan, -0.0, 0.0, math.inf, -math.inf, 5e-324, -0.1234567890123456789]
    assert len(rs) == len(special)
    curves.append(list(zip(special, rs)))
    for points, curve in zip([g.points() for g in grids] + [special], curves):
        expected = _csv_writer_curve(curve)
        buf = io.StringIO()
        write_curve_csv(curve, buf)
        assert buf.getvalue() == expected
        # the scan command's route: one template per grid, filled with each r array
        assert curve_template(points) % tuple(np.array([r for _, r in curve]).tolist()) == expected


def test_profile_mso_is_mean_sombor_bit_for_bit():
    ds = load_dataset(SKELETONS, three_property_csv())
    finite = [1e-9, -3e-7, 0.001, -0.02, 0.5, -0.999, 1.0, 1.37, -2.5, 7.25, -38.0, 400.0]
    exponents = [*map(Alpha.finite, finite), ZERO_LIMIT, ALPHA_MINUS_INF, ALPHA_PLUS_INF]
    for prop in ds.property_names:
        recs, rows = ds.column(prop), ds.rows(prop)
        y = [rec.properties[prop] for rec in recs]
        for a in exponents:
            x = [mean_sombor(rec.graph, a) for rec in recs]
            assert ds.profiles.mso(a)[rows].tolist() == x, (prop, a)
            assert qspr._abs_r(ds, rows, y, a) == abs(fit_linear(x, y).r), (prop, a)


def _report_bits(rep):
    return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(rep)]


def test_qspr_at_alpha_through_the_dataset_table_matches_per_column_tables():
    # B and C miss cells, so their records are a strict subset of the table's
    ds = load_dataset(SKELETONS, three_property_csv())
    finite = [1e-9, -3e-7, 0.001, -0.02, 0.5, -0.999, 1.0, 1.37, -2.5, 7.25, -38.0, 400.0]
    exponents = [*map(Alpha.finite, finite), ZERO_LIMIT, ALPHA_MINUS_INF, ALPHA_PLUS_INF]
    for prop in ds.property_names:
        recs = ds.column(prop)
        column = profile_table([degree_pairs(rec.graph) for rec in recs])  # one table per column
        y = [rec.properties[prop] for rec in recs]
        for a in exponents:
            x = column.mso(a).tolist()
            want = qspr.RegressionReport(prop, a, n=len(x), **fit_linear(x, y)._asdict())
            assert _report_bits(qspr_at_alpha(ds, prop, a)) == _report_bits(want), (prop, a)


# four octanes whose mSO coincide at -inf, and only there on the grid -2:2:0.5
SHARED_AT_MINUS_INF = (
    "3-ethyl-3-methylpentane",
    "2,3,3-trimethylpentane",
    "2,2,3,3-tetramethylbutane",
    "2,2,3-trimethylpentane",
)


def test_scan_gives_a_degenerate_exponent_no_r(tmp_path):
    table = tmp_path / "props.csv"
    table.write_text(make_csv(zip(SHARED_AT_MINUS_INF, ("1", "4", "2.5", "3")), ["name", "P"]))
    ds = load_dataset(SKELETONS, table.read_text())
    with pytest.raises(DegeneratePredictorError):
        qspr_at_alpha(ds, "P", ALPHA_MINUS_INF)
    best, curve = alpha_scan(ds, "P", AlphaGrid(-2, 2, 0.5))
    assert curve[0][0] == ALPHA_MINUS_INF and math.isnan(curve[0][1])
    assert all(math.isfinite(r) for _, r in curve[1:])
    assert best.alpha != ALPHA_MINUS_INF and best == qspr_at_alpha(ds, "P", best.alpha)
    curves, out = tmp_path / "curves", tmp_path / "scan.csv"
    argv = ["scan", "--properties", str(table), "--alpha-range", "-2:2:0.5"]
    assert main(argv + ["--curve-out", str(curves), "--out", str(out)]) == 0
    assert (curves / "curve-P.csv").read_text().splitlines()[1] == "-inf,nan"
    assert out.read_text().splitlines()[1].startswith(f"P,{best.alpha.token()},")


def test_pearson_columns_gives_a_constant_column_no_r():
    # three copies of v do not average to v, so the centred column is not
    # exactly zero: the rule, not the rounding, must give the nan
    v = 13.436424411240122
    x = np.array([[v, 1.0], [v, 2.0], [v, 4.0]])
    assert x[:, 0].mean() != v
    r = qspr._pearson_columns(x, [1.0, 3.0, 2.0])
    assert math.isnan(r[0]) and math.isfinite(r[1])
    assert np.isnan(qspr._pearson_columns(x, [5.0, 5.0, 5.0])).tolist() == [True, False]
    with pytest.raises(DegeneratePredictorError):
        qspr._pearson_columns(x[:, :1], [1.0, 3.0, 2.0])


def test_scan_command_fits_once_per_property_and_formats_one_token_list(monkeypatch, tmp_path):
    table = tmp_path / "props.csv"
    table.write_text(three_property_csv(), encoding="utf-8")
    calls = {"fit_linear": 0, "token": 0}
    real_fit, real_token = qspr.fit_linear, Alpha.token

    def counted_fit(x, y):
        calls["fit_linear"] += 1
        return real_fit(x, y)

    def counted_token(self):
        calls["token"] += 1
        return real_token(self)

    monkeypatch.setattr(qspr, "fit_linear", counted_fit)
    monkeypatch.setattr(Alpha, "token", counted_token)
    argv = [
        "scan", "--properties", str(table), "--alpha-range", "-2:2:0.01",
        "--curve-out", str(tmp_path / "curves"), "--out", str(tmp_path / "scan.csv"),
    ]
    assert main(argv) == 0
    points, props = len(AlphaGrid(-2, 2, 0.01).points()), 3
    assert calls["fit_linear"] == props
    assert calls["token"] <= points + props
    assert len(list((tmp_path / "curves").iterdir())) == props


# ---------------------------------------------------------------------------
# published Table-3 style consistency (no measurement data needed)
# ---------------------------------------------------------------------------

# (property, r, F) from the published octane benchmark at n = 18; the F
# statistic must match r^2 (n-2)/(1-r^2) up to the 3-decimal rounding of r
REFERENCE_STATS = [
    ("AcentFac", -0.990, 749.116),
    ("BP", 0.886, 58.126),
    ("HCCP", 0.928, 98.128),
    ("CT", 0.717, 16.934),
    ("DENS", 0.702, 15.518),
    ("DHFORM", 0.781, 24.924),
    ("DHVAP", -0.962, 196.401),
    ("HFORM", 0.912, 78.903),
    ("HV", 0.895, 4.622),
    ("HVAP", -0.921, 89.724),
    ("S", -0.956, 98.128),
]
# two rows are arithmetically inconsistent in the source (HV's F is ~14x
# too small for its r; S duplicates HCCP's F/SF despite a different r)
INCONSISTENT_ROWS = {"HV", "S"}


def test_reference_f_statistics_recomputable_from_r():
    for prop, r, f_ref in REFERENCE_STATS:
        f_from_r = r * r * 16 / (1 - r * r)
        rel = abs(f_from_r - f_ref) / f_ref
        if prop in INCONSISTENT_ROWS:
            assert rel > 0.06, f"{prop} unexpectedly consistent"
        else:
            assert rel <= 0.06, f"{prop}: {f_from_r} vs {f_ref} ({rel:.1%})"


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def test_report_writers():
    ds = planted_dataset(Alpha.finite(2))
    rep = qspr_at_alpha(ds, "P", ZERO_LIMIT)
    buf = io.StringIO()
    write_reports_csv([rep], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "property,alpha,r,c2,c1,SE,F,SF"
    assert lines[1].startswith("P,0-limit,")
    js = reports_to_json([rep])
    assert '"alpha": "0-limit"' in js and '"n": 18' in js


def reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_report_json_is_strict_on_exact_fit():
    ds = planted_dataset(Alpha.finite(2))
    rep = qspr_at_alpha(ds, "P", Alpha.finite(2))
    assert rep.f == math.inf
    rows = json.loads(reports_to_json([rep]), parse_constant=reject_constant)
    assert rows[0]["f"] == "inf" and rows[0]["sf"] == 0.0 and rows[0]["r"] == rep.r


def test_curve_writer_sentinels():
    ds = planted_dataset(Alpha.finite(1))
    _, curve = alpha_scan(ds, "P", AlphaGrid(-1, 1, 0.5))
    buf = io.StringIO()
    write_curve_csv(curve, buf)
    text = buf.getvalue()
    assert text.startswith("alpha,r\n-inf,")
    assert "\n0-limit," in text and "\n+inf," in text
