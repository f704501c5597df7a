"""Mean Sombor matrix, the trace of its square, and the edge-term variance
identity.

The matrix carries the per-edge power-mean value on the adjacency support
and zeros elsewhere.  Because it is symmetric with zero diagonal, the trace
of its square equals twice the sum of the squared edge entries; combining
that with the variance of the edge-term sequence recovers the index itself.
:func:`variance_identity` takes mSO, the variance and that trace from one
power-mean evaluation per distinct degree pair; the dense matrix serves the
``matrix`` command and the tests' reference route:

    mSO = sqrt( (m/2) * tr(M^2) - m^2 * sigma^2 )

Note the factor of two: the true matrix trace counts each unordered edge in
both orientations.  Published statements of the trace sometimes sum over
unordered edges only, which is off by that factor and would break the
identity above; this module always uses the true trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .graphs import Graph
from .indices import Alpha, edge_terms, pair_sum, power_mean


@dataclass(frozen=True)
class EdgeTermStats:
    """Count, mean, and population variance of the per-edge terms."""

    m: int
    mean: float
    sigma2: float


class IdentityViolation(RuntimeError):
    """The variance identity produced a clearly negative radicand; this
    signals an implementation bug, not bad input."""


def build_matrix(g: Graph, a: Alpha) -> np.ndarray:
    """Dense symmetric matrix with PM_a(d_u, d_v) on edges, 0 elsewhere.

    The support pattern equals the adjacency pattern exactly: power-mean
    terms of positive degrees are strictly positive.
    """
    n = g.vertex_count
    mat = np.zeros((n, n), dtype=float)
    for (u, v), t in zip(g.edge_list, edge_terms(g, a)):
        mat[u, v] = t
        mat[v, u] = t
    return mat


def trace_of_square(mat: np.ndarray) -> float:
    """tr(mat^2) for a symmetric matrix, via the elementwise shortcut
    sum of squares (equals twice the sum over unordered edges)."""
    return float(np.sum(mat * mat))


def variance_identity(g: Graph, a: Alpha) -> tuple[EdgeTermStats, float, float]:
    """Edge-term statistics, mSO and the radicand (m/2) tr(M^2) - m^2 sigma^2
    (the square of mSO in exact arithmetic), all from one power-mean
    evaluation per distinct degree pair, with tr(M^2) = 2 * sum of PM^2."""
    m = g.edge_count
    if m == 0:
        raise ValueError("edge statistics are undefined for an edgeless graph")
    pm = {p: power_mean(*p, a) for p, _ in g.degree_pairs}
    mso = pair_sum(g, lambda x, y: pm[x, y])
    mean = mso / m
    sigma2 = pair_sum(g, lambda x, y: (pm[x, y] - mean) ** 2) / m
    tr = 2.0 * pair_sum(g, lambda x, y: pm[x, y] ** 2)
    return EdgeTermStats(m=m, mean=mean, sigma2=sigma2), mso, (m / 2.0) * tr - m * m * sigma2


def edge_term_stats(g: Graph, a: Alpha) -> EdgeTermStats:
    """Mean and variance of the multiset of per-edge power-mean terms."""
    return variance_identity(g, a)[0]


def identity_residual(mso: float, radicand: float) -> float:
    """Residual mSO - sqrt(radicand) of the values `variance_identity`
    returns.  A correct implementation keeps |residual| <= 1e-9 (1 + mSO);
    a radicand below -1e-9 (1 + |radicand|) raises IdentityViolation."""
    if radicand < -1e-9 * (1.0 + abs(radicand)):
        raise IdentityViolation(f"negative radicand {radicand} in the variance identity")
    return mso - math.sqrt(max(radicand, 0.0))


def write_matrix_csv(mat: np.ndarray, stream: IO[str]) -> None:
    """Write the matrix as CSV, one row per line, full %.17g precision."""
    for row in mat:
        stream.write(",".join(format(x, ".17g") for x in row) + "\n")
