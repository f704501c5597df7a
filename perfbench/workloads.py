"""The benchmark's three workloads.

Each workload drives the program only through public entry points:
`cli.main([...])` and the public functions of `graphs`, `indices`,
`spectral`, `bounds` and `qspr`.  Every workload offers

- `setup()`: input generation and a small warm-up call;
- `run_pass()`: one untraced pass (one command or one corpus pass), which
  returns its exit code and leaves its outputs in the work directory;
- `check()`: the output gates of the last pass, the items it completed and
  a digest of its output bytes;
- `replay(tr)`: the same work as `run_pass`, split into calls on each layer,
  each wrapped in a span; returns the items replayed and any gate problems;
- `probe(tr)`: extra calls on the layers the replay cannot split out (the
  index functions); probes that must sit next to the call they split (the
  QSPR descriptor matrix and fits) run inside the replay under a `probe`
  span instead;
- `input_graphs()`: the input graphs, for the input-property counters.

Why these three:

- verify-sweep is the command a user runs (`verify`, 1,000 random graphs
  by default).  Its graphs are small and dense with mostly unique degree-pair
  profiles, so bounds, indices, spectral and CSV output dominate.
- qspr-scan is the exponent scan on the default 2,003-point grid over the 18
  octane skeletons, on a seeded synthetic property table.  It is dominated
  by the descriptor matrix, the fits and golden-section refinement, and
  bypasses bounds and spectral.
- chemical-trees runs the bound checks over every tree on 2..14 vertices with
  maximum degree <= 4.  The inputs are sparse trees whose profiles repeat
  heavily, the opposite of verify-sweep, so a change that helps one and
  costs the other shows.  It is exhaustive and does not use the seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random
import shutil
import statistics
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from meansombor import bounds, cli, graphs, indices, qspr, spectral

from spans import NullTracer

# `verify` checks the default corpus plus this many random graphs unless
# told otherwise; the gate on the CSV comment line confirms the default.
CLI_RANDOM_GRAPHS = 1000
# Rows of the bound catalog per graph (66,002 = 61 x 1,082 by default).
REPORTS_PER_GRAPH = 61

# Exponents and parameters of the sweep, from the module's own constants.
SWEEP_EXPONENTS = tuple(
    sorted(
        set(bounds.MONOTONICITY_GRID)
        | set(bounds.SANDWICH_ALPHAS)
        | set(bounds.VARIANCE_ALPHAS)
        | {
            indices.Alpha.finite(a)
            for a in bounds.JENSEN_ALPHAS + bounds.KALPHA_ALPHAS + (2.0,)
        }
    )
)
VARIABLE_M1_ALPHAS = tuple(
    sorted(set(bounds.JENSEN_ALPHAS + bounds.KALPHA_ALPHAS + bounds.POWERSUM_ALPHAS))
)

# OEIS A000055 (trees) and A000602 (trees with maximum degree <= 4).
TREE_ORDERS = range(2, 15)
A000055 = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
           11: 235, 12: 551, 13: 1301, 14: 3159}
A000602 = {2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 9, 8: 18, 9: 35, 10: 75,
           11: 159, 12: 355, 13: 802, 14: 1858}

# Synthetic octane property table: the 11-column schema of
# scripts/fetch_octane_properties.py, each column a planted law
# c1 * mSO_a + c2.  Two columns are noise-free so their optimum is known.
PROPERTIES = ("AcentFac", "BP", "HCCP", "CT", "DENS", "DHFORM", "DHVAP",
              "HFORM", "HV", "HVAP", "S")
ZERO_LIMIT_PROPERTY = "AcentFac"
NOISE_FREE_PROPERTY = "BP"
NOISE_SHARE = 0.05  # noise s.d. as a share of the column's s.d.
MISSING_CELLS = 4
GRID_POINTS = 2003  # default AlphaGrid: 2,000 finite exponents plus 3 tags
GOLDEN_BRACKET = 1e-3


def cli_main(argv: list[str]) -> int:
    """`cli.main` with its terminal messages kept off the benchmark's output."""
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        return cli.main(argv)


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def degree_pair_profile(g: graphs.Graph) -> tuple:
    """The multiset of (lower, higher) endpoint degrees over the edges."""
    deg = g.degrees
    pairs = Counter(
        (min(deg[u], deg[v]), max(deg[u], deg[v])) for u, v in g.edge_list
    )
    return tuple(sorted(pairs.items()))


def input_counters(gs: list[graphs.Graph]) -> dict[str, float]:
    """workload.graphs, workload.edges and the share of graphs whose
    degree-pair profile repeats an earlier graph's."""
    distinct = len({degree_pair_profile(g) for g in gs})
    return {
        "workload.graphs": len(gs),
        "workload.edges": sum(g.edge_count for g in gs),
        "workload.profile_repeat_share": 1.0 - distinct / len(gs),
    }


def check_report_rows(path: Path, graph_count: int, header_lines: int) -> list[str]:
    """Gate on a bound-report CSV: 61 rows per graph, every row ok."""
    lines = path.read_text(encoding="utf-8").split("\n")
    rows = lines[header_lines:-1]
    problems = []
    if lines[header_lines - 1] != ",".join(bounds.REPORT_COLUMNS):
        problems.append(f"{path.name}: unexpected header")
    if len(rows) != REPORTS_PER_GRAPH * graph_count:
        problems.append(
            f"{path.name}: {len(rows)} rows, expected "
            f"{REPORTS_PER_GRAPH} x {graph_count}"
        )
    not_ok = sum(1 for r in rows if not r.endswith(",1"))
    if not_ok:
        problems.append(f"{path.name}: {not_ok} rows with ok = 0")
    return problems


# ---------------------------------------------------------------------------
# Replays shared by the two bound-checking workloads
# ---------------------------------------------------------------------------

def replay_checks(tr, g: graphs.Graph, gid: str) -> list[bounds.BoundReport]:
    """The bound catalog for one graph, one span per family, in the order
    of `bounds.checks_for_graph`.  Variance-identity goes through the public
    spectral functions, one batch per function."""
    out: list[bounds.BoundReport] = []
    grid = bounds.MONOTONICITY_GRID
    with tr.span("bounds.monotonicity"):
        for a1, a2 in zip(grid, grid[1:]):
            out.append(bounds.check_monotonicity(g, a1, a2, gid))
    with tr.span("bounds.chain"):
        out.extend(bounds.check_chain(g, gid))
    with tr.span("bounds.jensen-m1"):
        for alpha in bounds.JENSEN_ALPHAS:
            out.append(bounds.check_jensen_m1_bound(g, alpha, gid))
    with tr.span("bounds.kalpha"):
        for alpha in bounds.KALPHA_ALPHAS:
            out.append(bounds.check_kalpha_bound(g, alpha, gid))
    with tr.span("bounds.so-sandwich"):
        for a in bounds.SANDWICH_ALPHAS:
            out.extend(bounds.check_so_sandwich(g, a, gid))
    with tr.span("bounds.ka-powersum"):
        for alpha in bounds.POWERSUM_ALPHAS:
            for beta in bounds.POWERSUM_BETAS:
                out.append(bounds.check_ka_powersum_bound(g, alpha, beta, gid))
    with tr.span("bounds.mso2-m1-m2"):
        out.append(bounds.check_mso2_m1_m2_bound(g, gid))
    alphas = bounds.VARIANCE_ALPHAS
    k = len(alphas)
    with tr.span("bounds.variance-identity"):
        with tr.span("spectral.edge_term_stats", calls=k):
            stats = [spectral.edge_term_stats(g, a) for a in alphas]
        with tr.span("spectral.build_matrix", calls=k):
            mats = [spectral.build_matrix(g, a) for a in alphas]
        with tr.span("spectral.trace_of_square", calls=k):
            traces = [spectral.trace_of_square(m) for m in mats]
        with tr.span("indices.mean_sombor", calls=k, evals=k * g.edge_count):
            lhs = [indices.mean_sombor(g, a) for a in alphas]
        for a, st, t, mso in zip(alphas, stats, traces, lhs):
            radicand = (st.m / 2.0) * t - st.m**2 * st.sigma2
            out.append(
                bounds.BoundReport(
                    bound_id="variance-identity",
                    graph_id=gid,
                    alpha=a,
                    lhs=mso,
                    rhs=math.sqrt(max(radicand, 0.0)),
                    equality_predicted=True,
                )
            )
    return out


def replay_sweep(tr, corpus: list[graphs.NamedGraph]) -> list[bounds.BoundReport]:
    reports: list[bounds.BoundReport] = []
    for named in corpus:
        with tr.span("bounds.per_graph"):
            reports.extend(replay_checks(tr, named.graph, named.name))
    return reports


def replay_write(tr, reports, path: Path, graph_count: int, **header) -> list[str]:
    """Write the replayed reports and gate them like the command's own."""
    with tr.span("bounds.write_reports_csv") as s:
        with open(path, "w", encoding="utf-8") as fh:
            bounds.write_reports_csv(reports, fh, **header)
    failures = sum(1 for r in reports if not r.ok)
    s.counts.update(bytes=path.stat().st_size, reports=len(reports), failures=failures)
    problems = [f"replay: {failures} reports not ok"] if failures else []
    if len(reports) != REPORTS_PER_GRAPH * graph_count:
        problems.append(f"replay: {len(reports)} reports for {graph_count} graphs")
    return problems


def probe_indices(tr, corpus: list[graphs.NamedGraph]) -> None:
    """Per graph: mSO at every sweep exponent, and the classical sums the
    checks use (ISI, R^-1, M1, SO, KA and variable M1)."""
    k = len(SWEEP_EXPONENTS)
    for named in corpus:
        g = named.graph
        with tr.span("indices.mean_sombor", calls=k, evals=k * g.edge_count):
            for a in SWEEP_EXPONENTS:
                indices.mean_sombor(g, a)
        with tr.span("indices.classical"):
            indices.inverse_sum_indeg(g)
            indices.reciprocal_randic(g)
            indices.first_zagreb(g)
            indices.sombor(g)
            indices.ka_index(g, 0.5, 2.0)
            for alpha in bounds.POWERSUM_ALPHAS:
                for beta in bounds.POWERSUM_BETAS:
                    indices.ka_index(g, alpha, beta)
            for alpha in VARIABLE_M1_ALPHAS:
                indices.variable_first_zagreb(g, alpha + 1.0)


# ---------------------------------------------------------------------------
# verify-sweep
# ---------------------------------------------------------------------------

class VerifySweep:
    name = "verify-sweep"
    command_span = "cli.verify"

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.out = work / "bound_reports.csv"
        self.corpus: list[graphs.NamedGraph] = []

    def setup(self) -> None:
        self.graph_count = len(graphs.default_corpus()) + CLI_RANDOM_GRAPHS
        warm = self.work / "warmup.csv"
        # the exit code is gated in the passes, which count a failure
        cli_main(["verify", "--random", "10", "--seed", str(self.seed), "--out", str(warm)])
        warm.unlink(missing_ok=True)

    def clear(self) -> None:
        self.out.unlink(missing_ok=True)

    def run_pass(self) -> int:
        return cli_main(["verify", "--seed", str(self.seed), "--out", str(self.out)])

    def check(self) -> tuple[list[str], int, str]:
        first = self.out.read_text(encoding="utf-8").split("\n", 1)[0]
        expected = f"# seed={self.seed} random_graphs={CLI_RANDOM_GRAPHS}"
        problems = [] if first == expected else [f"comment line {first!r}, expected {expected!r}"]
        problems += check_report_rows(self.out, self.graph_count, 2)
        return problems, self.graph_count, digest([self.out])

    def replay(self, tr) -> tuple[int, list[str]]:
        with tr.span("graphs.default_corpus"):
            corpus = graphs.default_corpus()
        with tr.span("graphs.random_connected_graphs"):
            corpus += graphs.random_connected_graphs(CLI_RANDOM_GRAPHS, self.seed)
        reports = replay_sweep(tr, corpus)
        problems = replay_write(
            tr, reports, self.work / "replay.csv", len(corpus),
            seed=self.seed, random_count=CLI_RANDOM_GRAPHS,
        )
        self.corpus = corpus
        return len(corpus), problems

    def probe(self, tr) -> None:
        probe_indices(tr, self.corpus)

    def input_graphs(self) -> list[graphs.Graph]:
        return [n.graph for n in self.corpus]


# ---------------------------------------------------------------------------
# qspr-scan
# ---------------------------------------------------------------------------

def make_properties_csv(
    skeletons: list[graphs.NamedGraph], seed: int
) -> tuple[str, dict[str, indices.Alpha]]:
    """Seeded octane property table and the exponent planted in each column.

    AcentFac is planted on the 0-limit and BP on a finite exponent, both
    noise-free; the other columns get Gaussian noise, and a few of their
    cells are left empty.
    """
    rng = random.Random(seed)
    planted: dict[str, indices.Alpha] = {}
    columns: dict[str, list[float]] = {}
    for prop in PROPERTIES:
        if prop == ZERO_LIMIT_PROPERTY:
            a = indices.ZERO_LIMIT
        else:
            a = indices.Alpha.finite(round(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 4.0), 4))
        c1 = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 5.0)
        c2 = rng.uniform(-50.0, 50.0)
        col = [c1 * indices.mean_sombor(s.graph, a) + c2 for s in skeletons]
        if prop not in (ZERO_LIMIT_PROPERTY, NOISE_FREE_PROPERTY):
            sd = statistics.pstdev(col)
            col = [v + rng.gauss(0.0, NOISE_SHARE * sd) for v in col]
        planted[prop] = a
        columns[prop] = col
    noisy = [p for p in PROPERTIES if p not in (ZERO_LIMIT_PROPERTY, NOISE_FREE_PROPERTY)]
    missing = {(rng.choice(noisy), rng.randrange(len(skeletons))) for _ in range(MISSING_CELLS)}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", *PROPERTIES])
    for i, s in enumerate(skeletons):
        writer.writerow(
            [s.name] + ["" if (p, i) in missing else repr(columns[p][i]) for p in PROPERTIES]
        )
    return buf.getvalue(), planted


def probe_scan_grid(tr, ds: qspr.QsprDataset, prop: str, points: list[indices.Alpha]) -> None:
    """The grid part of one property's scan, split into the descriptor
    matrix and the fits; what alpha_scan spends beyond these two is the
    refinement and candidate scoring."""
    recs = ds.column(prop)
    y = [rec.properties[prop] for rec in recs]
    edges = sum(rec.graph.edge_count for rec in recs)
    with tr.span("qspr.descriptor_matrix"):
        with tr.span(
            "indices.mean_sombor",
            calls=len(points) * len(recs),
            evals=len(points) * edges,
        ):
            xs = [[indices.mean_sombor(rec.graph, a) for rec in recs] for a in points]
    with tr.span("qspr.fit_linear", calls=len(xs)):
        for x in xs:
            qspr.fit_linear(x, y)


class QsprScan:
    name = "qspr-scan"
    command_span = "cli.scan"

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.csv = work / "properties.csv"
        self.curves = work / "curves"
        self.out = work / "scan.csv"
        self.skeletons: list[graphs.NamedGraph] = []

    def setup(self) -> None:
        text, self.planted = make_properties_csv(graphs.enumerate_octane_skeletons(), self.seed)
        self.csv.write_text(text, encoding="utf-8")
        warm = self.work / "warmup"
        # the exit code is gated in the passes, which count a failure
        cli_main([
            "scan", "--properties", str(self.csv), "--property", NOISE_FREE_PROPERTY,
            "--alpha-range", "-1:1:0.25", "--curve-out", str(warm),
            "--out", str(warm / "scan.csv"),
        ])
        shutil.rmtree(warm, ignore_errors=True)

    def clear(self) -> None:
        self.out.unlink(missing_ok=True)
        shutil.rmtree(self.curves, ignore_errors=True)

    def run_pass(self) -> int:
        return cli_main([
            "scan", "--properties", str(self.csv), "--curve-out", str(self.curves),
            "--out", str(self.out),
        ])

    def check(self) -> tuple[list[str], int, str]:
        with open(self.out, encoding="utf-8", newline="") as fh:
            rows = {r["property"]: r for r in csv.DictReader(fh)}
        problems = []
        if sorted(rows) != sorted(PROPERTIES):
            problems.append(f"scanned {sorted(rows)}, expected all {len(PROPERTIES)} properties")
        zero = rows.get(ZERO_LIMIT_PROPERTY, {}).get("alpha")
        if zero != "0-limit":
            problems.append(f"{ZERO_LIMIT_PROPERTY} selected {zero}, expected 0-limit")
        want = self.planted[NOISE_FREE_PROPERTY].value
        got = rows.get(NOISE_FREE_PROPERTY, {}).get("alpha", "")
        try:
            err = abs(float(got) - want)
        except ValueError:
            err = math.inf
        if not err <= GOLDEN_BRACKET:
            problems.append(f"{NOISE_FREE_PROPERTY} selected {got}, planted {want}")
        curve_files = sorted(self.curves.glob("curve-*.csv"))
        if len(curve_files) != len(PROPERTIES):
            problems.append(f"{len(curve_files)} curve files, expected {len(PROPERTIES)}")
        for p in curve_files:
            lines = p.read_text(encoding="utf-8").splitlines()
            if lines[0] != "alpha,r" or len(lines) - 1 != GRID_POINTS:
                problems.append(f"{p.name}: {len(lines) - 1} rows, expected {GRID_POINTS}")
        return problems, len(rows), digest([self.out, *curve_files])

    def replay(self, tr) -> tuple[int, list[str]]:
        with tr.span("graphs.enumerate_octane_skeletons"):
            skeletons = graphs.enumerate_octane_skeletons()
        with tr.span("qspr.load_dataset"):
            ds = qspr.load_dataset(skeletons, self.csv.read_text(encoding="utf-8"))
        curve_dir = self.work / "replay-curves"
        curve_dir.mkdir(exist_ok=True)
        points = qspr.AlphaGrid().points()
        reports = []
        for prop in ds.usable_properties():
            with tr.span("qspr.alpha_scan"):
                best, curve = qspr.alpha_scan(ds, prop)
            reports.append(best)
            # right after the scan, so that host-speed drift largely cancels
            # in qspr.refine.self_s
            with tr.span("probe"):
                probe_scan_grid(tr, ds, prop, points)
            with tr.span("qspr.write_curve_csv"):
                buf = io.StringIO()
                qspr.write_curve_csv(curve, buf)
                (curve_dir / f"curve-{prop}.csv").write_text(buf.getvalue(), encoding="utf-8")
        with tr.span("qspr.write_reports_csv"):
            buf = io.StringIO()
            qspr.write_reports_csv(reports, buf)
            (self.work / "replay-scan.csv").write_text(buf.getvalue(), encoding="utf-8")
        self.skeletons = skeletons
        return len(reports), []

    def probe(self, tr) -> None:
        """Nothing more: the grid probes run inside the replay."""

    def input_graphs(self) -> list[graphs.Graph]:
        return [n.graph for n in self.skeletons]


# ---------------------------------------------------------------------------
# chemical-trees
# ---------------------------------------------------------------------------

def chemical_corpus(tr) -> tuple[list[graphs.NamedGraph], dict[int, tuple[int, int]]]:
    """Every tree on 2..14 vertices with maximum degree <= 4, and per order
    the count of all trees and of those kept."""
    corpus: list[graphs.NamedGraph] = []
    counts: dict[int, tuple[int, int]] = {}
    for n in TREE_ORDERS:
        with tr.span("graphs.enumerate_trees") as s:
            trees = graphs.enumerate_trees(n)
        s.counts["trees"] = len(trees)
        kept = [t for t in trees if graphs.degree_extremes(t)[1] <= 4]
        counts[n] = (len(trees), len(kept))
        corpus.extend(graphs.NamedGraph(f"tree{n}_{i:04d}", t) for i, t in enumerate(kept))
    return corpus, counts


class ChemicalTrees:
    name = "chemical-trees"
    command_span = "chemical_trees.pass"

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed  # unused: the workload is exhaustive
        self.work = work
        self.out = work / "tree_reports.csv"
        self.corpus: list[graphs.NamedGraph] = []
        self.counts: dict[int, tuple[int, int]] = {}

    def setup(self) -> None:
        small = [graphs.NamedGraph(f"tree7_{i}", t) for i, t in enumerate(graphs.enumerate_trees(7))]
        warm = self.work / "warmup.csv"
        with open(warm, "w", encoding="utf-8") as fh:
            bounds.write_reports_csv(bounds.run_verification(small, random_count=0), fh)
        warm.unlink()

    def clear(self) -> None:
        self.out.unlink(missing_ok=True)
        self.counts = {}

    def run_pass(self) -> int:
        corpus, self.counts = chemical_corpus(NullTracer())
        reports = bounds.run_verification(corpus, random_count=0)
        with open(self.out, "w", encoding="utf-8") as fh:
            bounds.write_reports_csv(reports, fh)
        return 0

    def check(self) -> tuple[list[str], int, str]:
        problems = []
        for n in TREE_ORDERS:
            want = (A000055[n], A000602[n])
            if self.counts.get(n) != want:
                problems.append(f"n={n}: (trees, chemical) = {self.counts.get(n)}, OEIS {want}")
        graph_count = sum(kept for _, kept in self.counts.values())
        problems += check_report_rows(self.out, graph_count, 1)
        return problems, graph_count, digest([self.out])

    def replay(self, tr) -> tuple[int, list[str]]:
        self.corpus, _ = chemical_corpus(tr)
        reports = replay_sweep(tr, self.corpus)
        return len(self.corpus), replay_write(tr, reports, self.work / "replay.csv", len(self.corpus))

    def probe(self, tr) -> None:
        probe_indices(tr, self.corpus)

    def input_graphs(self) -> list[graphs.Graph]:
        return [n.graph for n in self.corpus]


WORKLOADS = {w.name: w for w in (VerifySweep, QsprScan, ChemicalTrees)}
