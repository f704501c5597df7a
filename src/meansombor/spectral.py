"""Mean Sombor matrix, the trace of its square, and the edge-term variance
identity.

The matrix carries the per-edge power-mean value on the adjacency support
and zeros elsewhere.  Because it is symmetric with zero diagonal, the trace
of its square equals twice the sum of the squared edge entries; combining
that with the variance of the edge-term sequence recovers the index itself.
:func:`variance_columns` takes the variance and that trace from a profile
table's power means and mSO (``ProfileSums.power_means``/``mso``, one
evaluation per distinct degree pair), for many profile keys at once (the
verification sweep's rows) or, through :func:`variance_identity`, for one
graph, whose table is ``indices.profile_sums([g])``.  The dense matrix,
that table's power means placed at the edges, serves the ``matrix`` command
and the tests' reference route:

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
from .indices import Alpha, ProfileSums, profile_sums


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
    """Dense symmetric matrix with PM_a(d_u, d_v) on edges, 0 elsewhere: the
    profile table's power means (one evaluation per distinct degree pair),
    placed at every edge through its entry in one fancy-indexed assignment.

    The support pattern equals the adjacency pattern exactly: power-mean
    terms of positive degrees are strictly positive.
    """
    e, edges = profile_sums([g])
    mat = np.zeros((g.vertex_count, g.vertex_count), dtype=float)
    u, v = e.ends.T
    mat[u, v] = mat[v, u] = edges.entries(edges.power_means(a))[e.edge_entry]
    return mat


def trace_of_square(mat: np.ndarray) -> float:
    """tr(mat^2) for a symmetric matrix, via the elementwise shortcut
    sum of squares (equals twice the sum over unordered edges)."""
    return float(np.sum(mat * mat))


def variance_columns(edges: ProfileSums, m: np.ndarray, a: Alpha) -> tuple[np.ndarray, np.ndarray]:
    """The edge-term variance and the radicand (m/2) tr(M^2) - m^2 sigma^2 at
    `a` of each key of `edges`, with `m` edges, from the table's per-pair
    power means and mSO, with tr(M^2) = 2 * sum of PM^2.  Each squared
    deviation (PM - mSO/m)^2 is taken once per entry of the table (a key's
    distinct pair), with Python's ``**2``, and each sum is `entry_sums`'s:
    the fsum over the key's edges, the value `pair_sum` gives."""
    pm, mso = edges.power_means(a), edges.mso(a)
    deviations = (edges.entries(pm) - (mso / m)[edges.entry_keys]).tolist()
    sigma2 = edges.entry_sums(np.array([d**2 for d in deviations])) / m
    tr = 2.0 * edges.sums([v**2 for v in pm.tolist()])
    return sigma2, (m / 2.0) * tr - m * m * sigma2


def variance_identity(g: Graph, a: Alpha) -> tuple[EdgeTermStats, float, float]:
    """Edge-term statistics, mSO and the radicand (m/2) tr(M^2) - m^2 sigma^2
    (the square of mSO in exact arithmetic): `variance_columns` of g's
    profile, one power-mean evaluation per distinct degree pair."""
    m = g.edge_count
    if m == 0:
        raise ValueError("edge statistics are undefined for an edgeless graph")
    edges = profile_sums([g])[1]
    sigma2, radicand = (c.item() for c in variance_columns(edges, np.array([m]), a))
    mso = edges.mso(a).item()
    return EdgeTermStats(m=m, mean=mso / m, sigma2=sigma2), mso, radicand


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
    """Write the matrix as CSV, one `%.17g` line template filled per row."""
    line = ",".join(["%.17g"] * mat.shape[1]) + "\n"
    for row in mat:
        stream.write(line % tuple(row.tolist()))
