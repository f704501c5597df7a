"""QSPR pipeline: join molecular graphs to measured properties, fit the
one-descriptor linear model, and scan the power-mean exponent for the best
Pearson correlation.

The model is ``property ~ c1 * mSO_a(G) + c2`` per property.  A dataset
has one degree-pair profile table (``QsprDataset.profiles``), read by the
descriptor matrix (``indices.descriptor_matrix``, built once per command),
the refinement and every fit, each property taking its records' rows.  The
scan's curve is one r array over the grid, Pearson's r of every matrix
column at once; it agrees with per-point fits to matmul rounding (nan where
the records share one mSO).  Refinement and the candidates are ranked by
|r| alone, from the table's mSO (`ProfileSums.mso`, once per exponent, bit
for bit mean_sombor), and only the winner is fitted, by `qspr_at_alpha`.
A property whose squared deviations leave the float range is an error.  For
each reported exponent the pipeline gives Pearson's r, the slope/intercept,
the standard error of estimate, the F statistic ``r^2 (n-2) / (1-r^2)`` and
its upper-tail significance under F(1, n-2).
The significance is computed with an in-package regularized incomplete
beta (continued fraction, at most 300 iterations), so p-values far below
1e-15 keep their relative accuracy.
The 1e-12 stopping tolerance of the fraction is not that accuracy: against
scipy.stats.f.sf (df1 <= 4, 20k random draws) the worst relative error is
about 1e-12 for df2 <= 100 and below 1e-8 for df2 up to 1e6 (6.4e-9 at
f = 2.99 on (1, 594040)).

Experimental property values are user-supplied (see scripts/
fetch_octane_properties.py for the schema); the package ships no
measurement data.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property, partial
from typing import IO, Callable, NamedTuple, Sequence

import numpy as np

from .graphs import Graph, NamedGraph
from .indices import (
    ALPHA_MINUS_INF,
    ALPHA_PLUS_INF,
    TOKEN_DIGITS,
    Alpha,
    ProfileSums,
    ZERO_LIMIT,
    descriptor_matrix,
)

_BETA_TOL = 1e-12
_BETA_MAX_ITER = 300
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class DegeneratePredictorError(ValueError):
    """The x column is constant; the linear model is undefined."""


# ---------------------------------------------------------------------------
# Regularized incomplete beta and the F-test significance
# ---------------------------------------------------------------------------

def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        # the even and the odd step of the fraction
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_TOL:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("beta parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def f_significance(f: float, df1: int, df2: int) -> float:
    """Upper-tail probability P(F_{df1,df2} >= f)."""
    if df1 < 1 or df2 < 1:
        raise ValueError("degrees of freedom must be positive")
    if f <= 0.0:
        return 1.0
    if math.isinf(f):
        return 0.0
    x = df2 / (df2 + df1 * f)
    return regularized_incomplete_beta(x, df2 / 2.0, df1 / 2.0)


# ---------------------------------------------------------------------------
# Ordinary least squares with the Table-3 statistics
# ---------------------------------------------------------------------------

class LinearFit(NamedTuple):
    c1: float  # slope
    c2: float  # intercept
    r: float
    se: float
    f: float
    sf: float


def _pearson(x: Sequence[float], y: Sequence[float]) -> tuple[float, ...]:
    """Pearson r of y on x with the means and centred sums of the OLS fit:
    (r, mx, my, sxx, syy, sxy), each sum one fsum.

    Needs n >= 3 and a non-constant x; a constant y gives r = 0.
    """
    n = len(x)
    if len(y) != n:
        raise ValueError("x and y must have the same length")
    if n < 3:
        raise ValueError(f"need at least 3 samples, got {n}")
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    sxx = math.fsum((xi - mx) ** 2 for xi in x)
    syy = math.fsum((yi - my) ** 2 for yi in y)
    sxy = math.fsum((xi - mx) * (yi - my) for xi, yi in zip(x, y))
    if sxx <= 0.0:
        raise DegeneratePredictorError("predictor column is constant")
    p = sxx * syy  # sqrt(sxx syy), factored where the product leaves the float range
    root = math.sqrt(p) if 0.0 < p < math.inf else math.sqrt(sxx) * math.sqrt(syy)
    r = 0.0 if syy <= 0.0 else max(-1.0, min(1.0, sxy / root))
    return r, mx, my, sxx, syy, sxy


def fit_linear(x: Sequence[float], y: Sequence[float]) -> LinearFit:
    """OLS fit y ~ c1 x + c2 with Pearson r, standard error of estimate,
    F statistic and its significance.

    Needs n >= 3 and a non-constant x.  A perfect fit (|r| = 1) yields
    se = 0, f = inf, sf = 0.
    """
    r, mx, my, sxx, syy, sxy = _pearson(x, y)
    n = len(x)
    if syy <= 0.0:
        # constant response: zero slope fits exactly, correlation undefined;
        # report r = 0 with a perfect (zero-residual) fit
        return LinearFit(c1=0.0, c2=my, r=0.0, se=0.0, f=0.0, sf=1.0)
    c1 = sxy / sxx
    c2 = my - c1 * mx
    sse = max(syy - c1 * sxy, 0.0)
    se = math.sqrt(sse / (n - 2))
    f = math.inf if abs(r) >= 1.0 else r * r * (n - 2) / (1.0 - r * r)
    return LinearFit(c1=c1, c2=c2, r=r, se=se, f=f, sf=f_significance(f, 1, n - 2))


# ---------------------------------------------------------------------------
# Dataset
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QsprRecord:
    name: str
    graph: Graph
    properties: dict[str, float]


@dataclass(frozen=True)
class QsprDataset:
    """Named molecules joined to measured property columns.

    A property is usable only if at least 3 records carry a value for it;
    records missing a value are dropped pairwise per property.
    """

    records: tuple[QsprRecord, ...]
    property_names: tuple[str, ...]

    def count(self, prop: str) -> int:
        return sum(1 for rec in self.records if prop in rec.properties)

    def is_usable(self, prop: str) -> bool:
        return prop in self.property_names and self.count(prop) >= 3

    def usable_properties(self) -> list[str]:
        return [p for p in self.property_names if self.is_usable(p)]

    def rows(self, prop: str) -> list[int]:
        """Positions of the records that carry a value for a usable property."""
        if not self.is_usable(prop):
            raise ValueError(f"property {prop!r} is missing or has fewer than 3 values")
        return [i for i, rec in enumerate(self.records) if prop in rec.properties]

    def values(self, prop: str) -> list[float]:
        """A usable property's values in row order.  A ValueError names the
        property where the fsum of their squared deviations overflows or, for
        values that differ, falls below the normal floats: r would be lost."""
        y = [self.records[i].properties[prop] for i in self.rows(prop)]
        try:
            my = math.fsum(y) / len(y)
            fits = np.finfo(float).tiny <= math.fsum((v - my) ** 2 for v in y) < math.inf
        except OverflowError:
            fits = False
        if not (fits or min(y) == max(y)):
            raise ValueError(f"property {prop!r}: its squared deviations leave the float range")
        return y

    def column(self, prop: str) -> list[QsprRecord]:
        return [self.records[i] for i in self.rows(prop)]

    @cached_property
    def profiles(self) -> ProfileSums:
        """The records' degree-pair profiles, built on first use."""
        return ProfileSums([rec.graph.degree_pairs for rec in self.records])


def load_dataset(graphs: Sequence[NamedGraph], properties_csv: str) -> QsprDataset:
    """Join named graphs with a properties CSV.

    CSV schema: header ``name,<prop1>,<prop2>,...``; each data row names a
    supplied graph and gives finite numeric or empty (= missing) cells; a
    short row misses its trailing cells.  Unknown molecule names, duplicate
    names, non-numeric or non-finite cells and rows longer than the header
    are errors.
    """
    by_name: dict[str, Graph] = {}
    for ng in graphs:
        if ng.name in by_name:
            raise ValueError(f"duplicate graph name {ng.name!r}")
        if ng.graph.edge_count < 1:
            raise ValueError(f"graph {ng.name!r} has no edges")
        by_name[ng.name] = ng.graph

    reader = csv.reader(io.StringIO(properties_csv))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("properties CSV is empty")
    if not header or header[0].strip().lower() != "name":
        raise ValueError("properties CSV header must start with 'name'")
    prop_names = tuple(h.strip() for h in header[1:])
    if "" in prop_names:
        raise ValueError(f"properties CSV header column {prop_names.index('') + 2} is empty")
    if len(set(prop_names)) != len(prop_names):
        raise ValueError("duplicate property column in CSV header")

    values: dict[str, dict[str, float]] = {}
    for rownum, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        name = row[0].strip()
        if name not in by_name:
            raise ValueError(f"row {rownum}: unknown molecule name {name!r}")
        if name in values:
            raise ValueError(f"row {rownum}: duplicate molecule name {name!r}")
        if len(row) > len(header):
            raise ValueError(f"row {rownum}: {len(row)} cells, header has {len(header)}")
        props: dict[str, float] = {}
        for prop, cell in zip(prop_names, row[1:]):
            cell = cell.strip()
            if not cell:
                continue
            try:
                props[prop] = float(cell)
            except ValueError:
                raise ValueError(f"row {rownum}: non-numeric cell {cell!r} for {prop}")
            if not math.isfinite(props[prop]):
                raise ValueError(f"row {rownum}: non-finite cell {cell!r} for {prop}")
        values[name] = props

    records = tuple(
        QsprRecord(name=ng.name, graph=ng.graph, properties=values.get(ng.name, {}))
        for ng in graphs
    )
    return QsprDataset(records=records, property_names=prop_names)


# ---------------------------------------------------------------------------
# Per-alpha regression and the exponent scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegressionReport:
    """One Table-3 style row: the fitted model for a property at one
    exponent."""

    property: str
    alpha: Alpha
    r: float
    c1: float
    c2: float
    se: float
    f: float
    sf: float
    n: int


def qspr_at_alpha(ds: QsprDataset, prop: str, a: Alpha) -> RegressionReport:
    """Fit the linear model of one property against mSO at one exponent."""
    rows = ds.rows(prop)
    fit = fit_linear(ds.profiles.mso(a)[rows].tolist(), ds.values(prop))
    return RegressionReport(property=prop, alpha=a, n=len(rows), **fit._asdict())


# Largest number of finite points an AlphaGrid may hold: 50 times the
# default grid, and far below what exhausts memory when points() builds it.
MAX_GRID_POINTS = 100_000


@dataclass(frozen=True)
class AlphaGrid:
    """Finite exponent lattice lo..hi in uniform steps, always augmented
    with the limit points 0 and +-inf.

    Lattice points k*step are rounded to 12 decimals, so the step must be
    at least 1e-12, and at least twice the resolution of the tokens at the
    largest |alpha|, so that distinct points have distinct tokens; the grid
    must hold between 1 and MAX_GRID_POINTS nonzero lattice points.
    """

    lo: float = -10.0
    hi: float = 10.0
    step: float = 0.01

    def __post_init__(self) -> None:
        spec = f"{self.lo:.12g}:{self.hi:.12g}:{self.step:.12g}"
        if not all(math.isfinite(x) for x in (self.lo, self.hi, self.step)):
            raise ValueError(f"alpha grid {spec}: lo, hi and step must be finite")
        if self.step <= 0 or self.lo > self.hi:
            raise ValueError(f"alpha grid {spec}: need step > 0 and lo <= hi")
        too_many = ValueError(f"alpha grid {spec}: more than {MAX_GRID_POINTS} finite points")
        try:
            k_lo, k_hi = self._lattice()
        except OverflowError:  # lo/step or hi/step overflows a float
            raise too_many from None
        count = k_hi - k_lo + 1 - (k_lo <= 0 <= k_hi)
        if count > MAX_GRID_POINTS:
            raise too_many
        if count < 1:
            raise ValueError(f"alpha grid {spec}: no nonzero lattice point")
        if self.step < 1e-12:
            raise ValueError(
                f"alpha grid {spec}: step below 1e-12 (points are rounded to 12 decimals)"
            )
        # Rounding to 12 decimals narrows a gap by up to 1e-12, so two units
        # of the last token digit at the largest |alpha| keep every gap above
        # one unit where a unit exceeds 1e-12; below, the tokens are exact.
        top = max(abs(self.lo), abs(self.hi))
        resolution = 10.0 ** (Decimal(top).adjusted() - TOKEN_DIGITS + 1)
        if self.step < 2.0 * resolution:
            raise ValueError(
                f"alpha grid {spec}: step {self.step:g} is below twice the token "
                f"resolution {resolution:g} at |alpha| = {top:g} "
                f"(tokens keep {TOKEN_DIGITS} significant digits)"
            )

    def _lattice(self) -> tuple[int, int]:
        """First and last k with k*step in [lo, hi]."""
        return (
            math.ceil(round(self.lo / self.step, 9)),
            math.floor(round(self.hi / self.step, 9)),
        )

    def points(self) -> list[Alpha]:
        """The lattice and the limit points in ascending order: -inf,
        negatives, 0, positives, +inf."""
        k_lo, k_hi = self._lattice()
        finite = [round(k * self.step, 12) for k in range(k_lo, k_hi + 1) if k != 0]
        return [Alpha(a) for a in sorted(finite + [0.0, -math.inf, math.inf])]


def _pearson_columns(x: np.ndarray, y: Sequence[float]) -> np.ndarray:
    """Pearson r of y against every column of x, without the F test.

    As in fit_linear, a constant y gives r = 0.  A constant column has no r
    and reads nan; when every column is constant, this raises
    DegeneratePredictorError, as fit_linear does on one.
    """
    constant = x.min(axis=0) == x.max(axis=0)
    if constant.all():
        raise DegeneratePredictorError("predictor column is constant")
    yv = np.asarray(y, dtype=float)
    if yv.min() == yv.max():
        return np.where(constant, np.nan, 0.0)
    xc, yc = x - x.mean(axis=0), yv - yv.mean()
    sxx, syy = (xc * xc).sum(axis=0), yc @ yc
    with np.errstate(invalid="ignore", over="ignore"):  # 0/0 in a constant column
        p = sxx * syy  # factored where it leaves the float range, as in _pearson
        r = (yc @ xc) / np.where((0.0 < p) & (p < np.inf), np.sqrt(p), np.sqrt(sxx) * np.sqrt(syy))
    return np.where(constant, np.nan, np.clip(r, -1.0, 1.0))


def scan_properties(
    ds: QsprDataset, props: Sequence[str], grid: AlphaGrid | None = None
) -> tuple[list[Alpha], list[tuple[RegressionReport, np.ndarray]]]:
    """Find the exponent maximizing |r| for each property.

    Builds the grid, its float array and the descriptor matrix over the
    dataset's profile table once, and checks once that the matrix is monotone
    in alpha; a property's grid curve is Pearson's r over the rows of its
    records (nan where those rows share one mSO, an exponent never picked).
    Refines around the best finite grid point (largest |r|, then smallest
    |alpha|, then the earlier point) with a golden-section search to
    bracket width 1e-3, then picks the best of {refined finite, 0-limit,
    -inf, +inf}; ties prefer the smaller |alpha|, then the smaller alpha.
    Returns the grid's points, and per property the report of the winner,
    the one exponent fitted, with its r array over the points.
    """
    rows, ys = [ds.rows(p) for p in props], [ds.values(p) for p in props]
    grid = grid or AlphaGrid()
    points = grid.points()
    alphas = np.array(points, dtype=float)
    finite = np.flatnonzero(np.isfinite(alphas) & (alphas != 0.0))
    x_all = descriptor_matrix(ds.profiles, points)
    # mSO is nondecreasing in the exponent: every row follows the ascending grid
    prev, cur = x_all[:, :-1], x_all[:, 1:]
    if (cur < prev - 1e-9 * (1.0 + np.abs(prev))).any():
        raise RuntimeError("descriptor vectors are not monotone in alpha")
    scans = []
    for prop, prop_rows, y in zip(props, rows, ys):
        r = _pearson_columns(x_all[prop_rows], y)
        best = points[_best_finite_point(alphas, finite, r)]
        abs_r = partial(_abs_r, ds, prop_rows, y)
        scans.append((qspr_at_alpha(ds, prop, _best_alpha(abs_r, best, grid)), r))
    return points, scans


def alpha_scan(
    ds: QsprDataset, prop: str, grid: AlphaGrid | None = None
) -> tuple[RegressionReport, list[tuple[Alpha, float]]]:
    """:func:`scan_properties` for one property, its curve as (alpha, r) points."""
    points, [(report, r)] = scan_properties(ds, [prop], grid)
    return report, list(zip(points, r.tolist()))


def _best_finite_point(alphas: np.ndarray, finite: np.ndarray, r: np.ndarray) -> int:
    """Position of the best finite grid point: the largest |r|, then the
    smallest |alpha|, then the earlier point (so -alpha before +alpha); a
    point with no r (nan) comes after every point with one.

    `finite` holds the positions of the finite points in `alphas`.  One
    lexsort, which is stable and sorts on its last key first."""
    return int(finite[np.lexsort((np.abs(alphas[finite]), -np.abs(r[finite])))[0]])


def _abs_r(ds: QsprDataset, rows: list[int], y: Sequence[float], a: Alpha) -> float:
    """|r| of y on the mSO at `a` of the records at `rows`, bit for bit
    |qspr_at_alpha(...).r|, without the F test; -inf, below every |r|, where
    the records share one mSO and there is no r."""
    try:
        return abs(_pearson(ds.profiles.mso(a)[rows].tolist(), y)[0])
    except DegeneratePredictorError:
        return -math.inf


def _best_alpha(abs_r: Callable[[Alpha], float], best: Alpha, grid: AlphaGrid) -> Alpha:
    """The best exponent: the best finite grid point refined by golden
    section, against the three limit points, all ranked by `abs_r`."""
    lo, hi = max(best - grid.step, grid.lo), min(best + grid.step, grid.hi)
    refined = _golden_section_max(lambda v: abs_r(Alpha(v)), lo, hi, tol=1e-3, seed=best)
    candidates = (Alpha(refined), ZERO_LIMIT, ALPHA_MINUS_INF, ALPHA_PLUS_INF)
    return min(candidates, key=lambda a: (-abs_r(a), abs(a), a))


def _golden_section_max(fun, lo: float, hi: float, tol: float, seed: float) -> float:
    """Golden-section search for the maximizer of fun on [lo, hi].

    Returns the best point among the evaluated ones and `seed`, so
    refinement never loses to the starting grid point.
    """
    a, b = float(lo), float(hi)
    best_x, best_f = seed, fun(seed)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fun(c), fun(d)
    while True:
        if fc > best_f:
            best_x, best_f = c, fc
        if fd > best_f:
            best_x, best_f = d, fd
        if b - a <= tol:
            return best_x
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fun(d)


# ---------------------------------------------------------------------------
# Report output
# ---------------------------------------------------------------------------

REPORT_HEADER = ("property", "alpha", "r", "c2", "c1", "SE", "F", "SF")
# The six statistics as RegressionReport fields, in the order both writers use.
_REPORT_STATS = tuple(h.lower() for h in REPORT_HEADER[2:])


def write_reports_csv(reports: Sequence[RegressionReport], stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(REPORT_HEADER)
    for rep in reports:
        stats = (format(getattr(rep, s), ".17g") for s in _REPORT_STATS)
        writer.writerow([rep.property, rep.alpha.token(), *stats])


def _json_number(x: float) -> float | str:
    """A finite float as itself; inf/nan as the CSV token, which strict
    JSON parsers accept."""
    return x if math.isfinite(x) else format(x, ".17g")


def reports_to_json(reports: Sequence[RegressionReport]) -> str:
    rows = [
        {
            "property": rep.property,
            "alpha": rep.alpha.token(),
            **{s: _json_number(getattr(rep, s)) for s in _REPORT_STATS},
            "n": rep.n,
        }
        for rep in reports
    ]
    return json.dumps(rows, indent=2, allow_nan=False) + "\n"


def curve_template(alphas: Sequence[Alpha]) -> str:
    """The curve CSV over `alphas` with a `%.17g` slot for each r: the header,
    then one line per exponent, its token and the slot.  `template % tuple(r)`
    is the file, each r formatted as `format(r, ".17g")` formats it."""
    return "alpha,r\n" + "".join(f"{a.token()},%.17g\n" for a in alphas)


def write_curve_csv(curve: Sequence[tuple[Alpha, float]], stream: IO[str]) -> None:
    """Two-column CSV (alpha, r); the limit points use their tokens.  A
    caller with several curves over one grid fills one :func:`curve_template`."""
    stream.write(curve_template([a for a, _ in curve]) % tuple(r for _, r in curve))
