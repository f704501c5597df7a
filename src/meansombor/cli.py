"""Command-line front end.

Subcommands: compute (index table for one graph), matrix (mean Sombor
matrix + trace/variance summary), enumerate (octane skeleton files),
qspr (fit at one exponent), scan (exponent scan per property), verify
(inequality sweep).  Exit codes: 0 success, 1 operational error, 2
verification failure.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time
from pathlib import Path

import click

from .bounds import DEFAULT_RANDOM_SEED, run_verification, write_reports_csv
from .graphs import (
    default_corpus,
    enumerate_octane_skeletons,
    parse_graph,
    random_connected_graphs,
    to_edge_list_text,
)
from .indices import SPECIAL_VALUES, parse_alpha, profile_sums
from .qspr import (
    AlphaGrid,
    QsprDataset,
    RegressionReport,
    curve_template,
    load_dataset,
    qspr_at_alpha,
    reports_to_json,
    scan_properties,
    write_reports_csv as write_qspr_csv,
)
from .spectral import (
    build_matrix,
    identity_residual,
    trace_of_square,
    variance_identity,
    write_matrix_csv,
)


class VerificationFailure(Exception):
    """At least one bound check failed; maps to exit code 2."""


def _read_graph(path: str):
    return parse_graph(Path(path).read_text(encoding="utf-8-sig"))


def _echo_timings(*stages: tuple[str, float]) -> None:
    """One `timing <stage> <seconds> s` line per stage, on stderr."""
    for stage, seconds in stages:
        click.echo(f"timing {stage} {seconds:.6f} s", err=True)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


@click.group()
def cli() -> None:
    """Mean Sombor index toolkit: computation, verification, QSPR."""


@cli.command()
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--alpha", "alpha_spec", required=True, help="exponent: decimal, '0', 'inf', '-inf'")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", type=click.Path(), default=None)
def compute(graph_path: str, alpha_spec: str, fmt: str, out: str | None) -> None:
    """Index table: mSO at the requested exponent plus every special case."""
    g = _read_graph(graph_path)
    a = parse_alpha(alpha_spec)
    t = profile_sums([g])[1]  # one key: the values are pair_sum's, bit for bit
    rows: list[tuple[str, float]] = [(f"mSO[{a.token()}]", t.mso(a).item())]
    for special, label, scale, term in SPECIAL_VALUES:
        rows.append((f"mSO[{special.token()}]", t.mso(special).item()))
        rows.append((label, scale * t.sums([term(x, y) for x, y in t.items]).item()))
    if fmt == "json":
        text = json.dumps(
            [{"quantity": q, "value": v} for q, v in rows], indent=2
        ) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("quantity", "value"))
        writer.writerows((q, format(v, ".17g")) for q, v in rows)
        text = buf.getvalue()
    _emit(text, out)


@cli.command()
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--alpha", "alpha_spec", required=True)
@click.option("--out", required=True, type=click.Path(), help="matrix CSV destination")
def matrix(graph_path: str, alpha_spec: str, out: str) -> None:
    """Mean Sombor matrix CSV plus trace and variance-identity summary."""
    g = _read_graph(graph_path)
    a = parse_alpha(alpha_spec)
    mat = build_matrix(g, a)
    with open(out, "w", encoding="utf-8") as fh:
        write_matrix_csv(mat, fh)
    click.echo(f"matrix written to {out}")
    click.echo(f"trace_of_square,{format(trace_of_square(mat), '.17g')}")
    if not g.edge_count:
        click.echo("mean_sombor,0")  # the empty edge sum
        return
    stats, mso, radicand = variance_identity(g, a)
    click.echo(f"mean_sombor,{format(mso, '.17g')}")
    click.echo(f"sigma2,{format(stats.sigma2, '.17g')}")
    click.echo(f"variance_identity_residual,{format(identity_residual(mso, radicand), '.17g')}")


def _slug(name: str) -> str:
    return name.translate(str.maketrans(", /\\", "----"))


@cli.command("enumerate")
@click.option("--out", "out_dir", required=True, type=click.Path())
def enumerate_skeletons(out_dir: str) -> None:
    """Write the 18 octane skeleton edge lists plus a canonical manifest."""
    d = Path(out_dir)
    d.mkdir(parents=True, exist_ok=True)
    manifest = ["index,name,canonical,degrees,file"]
    skeletons = enumerate_octane_skeletons()
    for i, sk in enumerate(skeletons, start=1):
        fname = f"{i:02d}-{_slug(sk.name)}.txt"
        (d / fname).write_text(to_edge_list_text(sk.graph), encoding="utf-8")
        degs = "-".join(str(x) for x in sorted(sk.graph.degrees, reverse=True))
        manifest.append(f'{i:02d},"{sk.name}",{sk.canonical},{degs},{fname}')
    (d / "manifest.csv").write_text("\n".join(manifest) + "\n", encoding="utf-8")
    click.echo(f"wrote {len(skeletons)} skeletons to {out_dir}")


def _load_octane_dataset(properties_path: str):
    csv_text = Path(properties_path).read_text(encoding="utf-8-sig")
    return load_dataset(enumerate_octane_skeletons(), csv_text)


def _properties_to_fit(ds: QsprDataset, prop: str | None) -> list[str]:
    """The requested property, or every usable one; an error if none is."""
    props = [prop] if prop else ds.usable_properties()
    if not props:
        raise ValueError("no property in the properties CSV has at least 3 values")
    return props


def _write_qspr_reports(reports: list[RegressionReport], fmt: str, out: str | None) -> None:
    if fmt == "json":
        _emit(reports_to_json(reports), out)
    else:
        buf = io.StringIO()
        write_qspr_csv(reports, buf)
        _emit(buf.getvalue(), out)


@cli.command()
@click.option("--properties", "properties_path", required=True, type=click.Path(exists=True))
@click.option("--property", "prop", default=None, help="single property (default: all usable)")
@click.option("--alpha", "alpha_spec", required=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", type=click.Path(), default=None)
def qspr(properties_path: str, prop: str | None, alpha_spec: str, fmt: str, out: str | None) -> None:
    """Fit the linear model at one exponent for octane-isomer properties."""
    ds = _load_octane_dataset(properties_path)
    a = parse_alpha(alpha_spec)
    props = _properties_to_fit(ds, prop)
    reports = [qspr_at_alpha(ds, p, a) for p in props]
    _write_qspr_reports(reports, fmt, out)


def _parse_range(spec: str) -> AlphaGrid:
    parts = spec.split(":")
    if len(parts) != 3:
        raise click.BadParameter("alpha range must be LO:HI:STEP")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise click.BadParameter(f"bad alpha range {spec!r}")
    return AlphaGrid(lo, hi, step)


@cli.command()
@click.option("--properties", "properties_path", required=True, type=click.Path(exists=True))
@click.option("--property", "prop", default=None)
@click.option("--alpha-range", "range_spec", default=None, help="LO:HI:STEP (default -10:10:0.01)")
@click.option("--curve-out", "curve_dir", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", type=click.Path(), default=None)
@click.option("--timings", is_flag=True, help="print stage durations to stderr")
def scan(
    properties_path: str,
    prop: str | None,
    range_spec: str | None,
    curve_dir: str | None,
    fmt: str,
    out: str | None,
    timings: bool,
) -> None:
    """Scan the exponent for the best |r| per property."""
    t0 = time.perf_counter()
    ds = _load_octane_dataset(properties_path)
    t1 = time.perf_counter()
    grid = _parse_range(range_spec) if range_spec else AlphaGrid()
    props = _properties_to_fit(ds, prop)
    if curve_dir:
        owners: dict[str, str] = {}
        for p in props:
            other = owners.setdefault(_slug(p), p)
            if other != p:
                raise click.BadParameter(
                    f"properties {other!r} and {p!r} would both write curve-{_slug(p)}.csv",
                    param_hint="'--curve-out'",
                )
    points, scans = scan_properties(ds, props, grid)
    t2 = time.perf_counter()
    # the report is written before any curve file, but after the curve directory
    # is made (it may hold the report): a report that cannot be written leaves no
    # curve file, and the directories made for it are taken back
    made: list[Path] = []
    if curve_dir:
        d = Path(curve_dir)
        made = [p for p in (d, *d.parents) if not p.exists()]
        d.mkdir(parents=True, exist_ok=True)
    try:
        _write_qspr_reports([best for best, _ in scans], fmt, out)
    except OSError:
        for p in made:
            p.rmdir()
        raise
    t3 = time.perf_counter()
    if curve_dir:
        template = curve_template(points)
        for p, (_, r) in zip(props, scans):
            with (d / f"curve-{_slug(p)}.csv").open("w", encoding="utf-8") as fh:
                fh.write(template % tuple(r.tolist()))
    t4 = time.perf_counter()
    if timings:
        _echo_timings(
            ("dataset-load", t1 - t0), ("scan", t2 - t1),
            ("curve-write", t4 - t3), ("report-write", t3 - t2),
        )


@cli.command()
@click.option("--random", "random_count", type=click.IntRange(min=0), default=1000, show_default=True)
@click.option("--seed", type=int, default=DEFAULT_RANDOM_SEED, show_default=True)
@click.option("--out", type=click.Path(), default="bound_reports.csv", show_default=True)
@click.option("--timings", is_flag=True, help="print stage durations to stderr")
def verify(random_count: int, seed: int, out: str, timings: bool) -> None:
    """Check every proved bound over the corpus; exit 2 on any failure."""
    t0 = time.perf_counter()
    corpus = default_corpus() + random_connected_graphs(random_count, seed)
    t1 = time.perf_counter()
    table = run_verification(corpus=corpus)
    t2 = time.perf_counter()
    with open(out, "w", encoding="utf-8") as fh:
        write_reports_csv(table, fh, seed=seed, random_count=random_count)
    t3 = time.perf_counter()
    if timings:
        _echo_timings(("corpus-build", t1 - t0), ("check-sweep", t2 - t1), ("csv-write", t3 - t2))
    failures, worst = table.failures()
    click.echo(f"checked {len(table)} bound instances, {failures} failures")
    if worst is not None:
        bound_id, graph_id, slack = worst
        raise VerificationFailure(
            f"{failures} bound checks failed; worst: {bound_id} on {graph_id} (slack {slack:.3e})"
        )


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except VerificationFailure as exc:
        click.echo(f"verification failed: {exc}", err=True)
        return 2
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
