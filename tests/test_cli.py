"""CLI subcommands: outputs, round trips, determinism, and exit codes."""

import codecs
import csv
import io
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import click
import pytest
import scalar_battery as scalar

import meansombor
from meansombor.cli import main
from meansombor.graphs import (
    Graph,
    enumerate_octane_skeletons,
    parse_graph,
    star_graph,
    to_edge_list_text,
)
from meansombor.indices import Alpha, mean_sombor, parse_alpha, power_mean
from meansombor.qspr import AlphaGrid
from tree_codes import canonical_form


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text("3\n0 1\n1 2\n")
    return path


@pytest.fixture
def octane_csv(tmp_path):
    # synthetic measurements planted on the geometric-mean index
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["name", "PropA", "PropB"])
    for s in enumerate_octane_skeletons():
        x = mean_sombor(s.graph, Alpha.finite(1.5))
        w.writerow([s.name, f"{2.0 * x + 1.0!r}", f"{-0.5 * x + 3.0!r}"])
    path = tmp_path / "props.csv"
    path.write_text(buf.getvalue())
    return path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def test_compute_table(capsys, p3_file):
    code, out, _ = run(capsys, "compute", "--graph", str(p3_file), "--alpha", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "quantity,value"
    table = dict(line.split(",", 1) for line in lines[1:])
    assert float(table["mSO[2]"]) == pytest.approx(2 * math.sqrt(2.5), rel=1e-15)
    assert float(table["mSO[2]"]) == pytest.approx(3.162278, abs=5e-7)
    assert float(table["SP-max"]) == 4.0
    assert float(table["2*ISI"]) == float(table["mSO[-1]"])


def test_compute_json(capsys, p3_file, tmp_path):
    out_path = tmp_path / "t.json"
    code, _, _ = run(
        capsys, "compute", "--graph", str(p3_file), "--alpha", "0",
        "--format", "json", "--out", str(out_path),
    )
    assert code == 0
    rows = json.loads(out_path.read_text())
    by_q = {r["quantity"]: r["value"] for r in rows}
    assert by_q["mSO[0-limit]"] == pytest.approx(2 * math.sqrt(2), rel=1e-15)


def test_compute_csv_reads_back_whole(capsys, tmp_path):
    # two KA labels hold commas, so they must come quoted
    p4 = tmp_path / "p4.txt"
    p4.write_text("4\n0 1\n1 2\n2 3\n")
    code, out, _ = run(capsys, "compute", "--graph", str(p4), "--alpha", "0.5")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["quantity", "value"]
    assert all(len(r) == 2 for r in rows)
    code, out, _ = run(
        capsys, "compute", "--graph", str(p4), "--alpha", "0.5", "--format", "json"
    )
    assert code == 0
    by_q = {r["quantity"]: r["value"] for r in json.loads(out)}
    table = {q: float(v) for q, v in rows[1:]}
    assert table == by_q
    assert "2^-2*KA1[0.5,2]" in table and "2^-1/3*KA1[3,1/3]" in table


def test_compute_near_zero_exponent(capsys, p3_file):
    # the kernel used to print the maximum, mSO[1e-300] = 4
    code, out, _ = run(capsys, "compute", "--graph", str(p3_file), "--alpha", "1e-300")
    assert code == 0
    quantity, value = out.splitlines()[1].split(",")
    assert quantity == "mSO[1e-300]"
    assert float(value) == pytest.approx(2 * math.sqrt(2), rel=1e-15)


def test_compute_deterministic(capsys, p3_file):
    _, out1, _ = run(capsys, "compute", "--graph", str(p3_file), "--alpha", "-1")
    _, out2, _ = run(capsys, "compute", "--graph", str(p3_file), "--alpha", "-1")
    assert out1 == out2


def test_compute_reads_graph_file_with_byte_order_mark(capsys, p3_file, tmp_path):
    # spreadsheet "CSV UTF-8" exports start the file with a BOM
    bom = tmp_path / "p3-bom.txt"
    bom.write_bytes(codecs.BOM_UTF8 + p3_file.read_bytes())
    plain, marked = (run(capsys, "compute", "--graph", str(f), "--alpha", "2") for f in (p3_file, bom))
    assert plain[0] == 0 and marked == plain


# ---------------------------------------------------------------------------
# matrix
# ---------------------------------------------------------------------------

def test_matrix_output(capsys, p3_file, tmp_path):
    out_path = tmp_path / "m.csv"
    code, out, _ = run(
        capsys, "matrix", "--graph", str(p3_file), "--alpha", "2", "--out", str(out_path)
    )
    assert code == 0
    rows = [
        [float(c) for c in line.split(",")]
        for line in out_path.read_text().strip().splitlines()
    ]
    assert rows[0][1] == pytest.approx(math.sqrt(2.5), rel=1e-16)
    assert rows[0][2] == 0.0
    assert "trace_of_square,10" in out
    assert "variance_identity_residual,0" in out

    # the CSV holds each edge's kernel term at (u, v) and (v, u) as '.17g'
    # text, and 0 elsewhere; an isolated vertex gives a row of zeros
    graphs = [enumerate_octane_skeletons()[4].graph, star_graph(6)]
    graphs.append(Graph.from_edges(7, [(5, 1), (1, 3), (3, 5), (3, 0), (2, 6)]))
    for i, g in enumerate(graphs):
        path = tmp_path / f"g{i}.txt"
        path.write_text(to_edge_list_text(g))
        deg, n = g.degrees, g.vertex_count
        for spec in ("0.5", "-3", "0", "inf", "-inf", "1e-300", "37.5"):
            a = parse_alpha(spec)
            cells = [["0"] * n for _ in range(n)]
            for u, v in g.edge_list:
                cells[u][v] = cells[v][u] = format(power_mean(deg[u], deg[v], a), ".17g")
            code, out, _ = run(
                capsys, "matrix", "--graph", str(path), "--alpha", spec, "--out", str(out_path)
            )
            assert code == 0
            assert out_path.read_text() == "".join(",".join(row) + "\n" for row in cells)
            assert f"\nmean_sombor,{format(mean_sombor(g, a), '.17g')}\n" in out

    # an edgeless graph: a zero matrix and the empty edge sum, no variance lines
    path = tmp_path / "edgeless.txt"
    path.write_text("3\n")
    code, out, _ = run(
        capsys, "matrix", "--graph", str(path), "--alpha", "2", "--out", str(out_path)
    )
    assert code == 0
    assert out_path.read_text() == "0,0,0\n" * 3
    assert out.endswith("\ntrace_of_square,0\nmean_sombor,0\n")


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def test_enumerate_round_trip(capsys, tmp_path):
    out_dir = tmp_path / "skeletons"
    code, out, _ = run(capsys, "enumerate", "--out", str(out_dir))
    assert code == 0 and "18" in out
    files = sorted(p for p in out_dir.iterdir() if p.suffix == ".txt")
    assert len(files) == 18
    manifest = (out_dir / "manifest.csv").read_text().splitlines()
    assert len(manifest) == 19
    canon_by_file = {}
    for row in csv.reader(io.StringIO("\n".join(manifest[1:]))):
        canon_by_file[row[4]] = row[2]
    expected = {s.canonical for s in enumerate_octane_skeletons()}
    seen = set()
    for path in files:
        g = parse_graph(path.read_text())
        c = canonical_form(g)
        assert c == canon_by_file[path.name]
        seen.add(c)
    assert seen == expected


# ---------------------------------------------------------------------------
# qspr and scan
# ---------------------------------------------------------------------------

def test_qspr_subcommand(capsys, octane_csv):
    code, out, _ = run(
        capsys, "qspr", "--properties", str(octane_csv), "--alpha", "1.5"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "property,alpha,r,c2,c1,SE,F,SF"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert float(rows["PropA"][2]) == pytest.approx(1.0, abs=1e-12)
    assert float(rows["PropB"][2]) == pytest.approx(-1.0, abs=1e-12)
    assert float(rows["PropA"][4]) == pytest.approx(2.0, abs=1e-9)  # c1


def test_scan_subcommand(capsys, octane_csv, tmp_path):
    curves = tmp_path / "curves"
    report = tmp_path / "scan.json"
    code, _, _ = run(
        capsys, "scan", "--properties", str(octane_csv), "--property", "PropA",
        "--alpha-range", "-2:2:0.1", "--curve-out", str(curves),
        "--format", "json", "--out", str(report),
    )
    assert code == 0
    rows = json.loads(report.read_text())
    assert len(rows) == 1
    assert abs(rows[0]["r"]) == pytest.approx(1.0, abs=1e-9)
    assert abs(float(rows[0]["alpha"]) - 1.5) <= 0.05
    curve_text = (curves / "curve-PropA.csv").read_text()
    assert curve_text.startswith("alpha,r\n-inf,")


def test_scan_deterministic_bytes(capsys, octane_csv, tmp_path):
    outs = []
    for i in range(2):
        report = tmp_path / f"scan{i}.csv"
        code, _, _ = run(
            capsys, "scan", "--properties", str(octane_csv), "--property", "PropB",
            "--alpha-range", "-1:1:0.1", "--out", str(report),
        )
        assert code == 0
        outs.append(report.read_bytes())
    assert outs[0] == outs[1]


def test_qspr_and_scan_read_properties_csv_with_byte_order_mark(capsys, octane_csv, tmp_path):
    bom = tmp_path / "props-bom.csv"
    bom.write_bytes(codecs.BOM_UTF8 + octane_csv.read_bytes())
    for argv in (
        ("qspr", "--alpha", "1.5"),
        ("scan", "--property", "PropA", "--alpha-range", "-1:1:0.5"),
    ):
        plain, marked = (run(capsys, *argv, "--properties", str(f)) for f in (octane_csv, bom))
        assert plain[0] == 0 and marked == plain


def test_scan_json_is_strict_on_exact_fit(capsys, octane_csv):
    def reject_constant(token):
        raise ValueError(f"non-standard JSON constant {token}")

    for argv in (("scan", "--alpha-range", "-2:2:0.5"), ("qspr", "--alpha", "1.5")):
        code, out, _ = run(
            capsys, *argv, "--properties", str(octane_csv), "--property", "PropA",
            "--format", "json",
        )
        assert code == 0
        rows = json.loads(out, parse_constant=reject_constant)
        assert rows[0]["f"] == "inf" and rows[0]["sf"] == 0.0


def test_scan_rejects_non_finite_cell(capsys, tmp_path):
    names = [s.name for s in enumerate_octane_skeletons()]
    props = tmp_path / "props.csv"
    props.write_text(
        "name,BP\n" + "".join(f'"{n}",{i}\n' for i, n in enumerate(names[:-1]))
        + f'"{names[-1]}",nan\n'
    )
    code, out, err = run(capsys, "scan", "--properties", str(props), "--property", "BP")
    assert code == 1 and out == ""
    assert "row 19: non-finite cell 'nan' for BP" in err


def _scaled_octane_csv(path, scale):
    """P = (i + 1) * scale on the i-th octane skeleton."""
    path.write_text("name,P\n" + "".join(
        f'"{s.name}",{(i + 1) * scale!r}\n' for i, s in enumerate(enumerate_octane_skeletons())
    ))
    return path


@pytest.mark.parametrize("scale", [1e153, 1e-160, 1e-170])
def test_qspr_and_scan_name_a_property_whose_squared_deviations_leave_the_float_range(
    capsys, tmp_path, scale
):
    # 1e153: the deviations' fsum overflowed in a traceback, after numpy's overflow
    # warning in the scan; 1e-160: it was subnormal, and r lost digits to it;
    # 1e-170: it rounded to 0, so qspr reported r = 0
    table = _scaled_octane_csv(tmp_path / "props.csv", scale)
    out = tmp_path / "out"
    for argv in (
        ("qspr", "--alpha", "1", "--out", str(out / "qspr.csv")),
        ("scan", "--alpha-range", "-1:1:0.5", "--curve-out", str(out / "curves"),
         "--out", str(out / "scan.csv")),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, argv[0], "--properties", str(table), *argv[1:])
        assert code == 1 and stdout == ""
        assert err == "error: property 'P': its squared deviations leave the float range\n"
        assert not out.exists()


def test_qspr_and_scan_fit_huge_property_values_as_their_scaled_copy(capsys, tmp_path):
    # at 2^507 the deviations' sum of squares is finite but its product with the
    # predictor's overflows: qspr read r = 0 and the scan warned of it
    args = ("--alpha-range", "-2:2:0.5", "--format", "json")
    reports = []
    for scale in (1.0, 2.0**507):
        table = _scaled_octane_csv(tmp_path / f"props-{scale!r}.csv", scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, qspr_out, _ = run(capsys, "qspr", "--properties", str(table), "--alpha", "1",
                                    "--format", "json")
            assert code == 0
            code, scan_out, _ = run(capsys, "scan", "--properties", str(table), *args)
            assert code == 0
        reports.append([json.loads(qspr_out)[0], json.loads(scan_out)[0]])
    for plain, huge in zip(*reports):
        assert huge["alpha"] == plain["alpha"]
        for stat, power in (("r", 0), ("c1", 1), ("c2", 1), ("se", 1), ("f", 0)):
            assert huge[stat] == pytest.approx(plain[stat] * 2.0 ** (507 * power), rel=1e-14)


@pytest.fixture
def template_csv(tmp_path):
    """The unfilled template that scripts/fetch_octane_properties.py writes."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "fetch_octane_properties.py"
    src = str(Path(meansombor.__file__).resolve().parent.parent)
    path = tmp_path / "template.csv"
    subprocess.run(
        [sys.executable, str(script), "--out", str(path)],
        env={"PYTHONPATH": src},
        capture_output=True,
        check=True,
    )
    return path


def test_qspr_and_scan_reject_a_table_without_usable_property(capsys, tmp_path, template_csv):
    header_only = tmp_path / "header-only.csv"
    header_only.write_text("name\n")
    curves, report = tmp_path / "curves", tmp_path / "report.csv"
    for table in (template_csv, header_only):
        for argv in (
            ("qspr", "--alpha", "1.5", "--out", str(report)),
            ("scan", "--curve-out", str(curves), "--out", str(report)),
        ):
            code, out, err = run(capsys, argv[0], "--properties", str(table), *argv[1:])
            assert code == 1 and out == ""
            assert "no property in the properties CSV has at least 3 values" in err
            assert not curves.exists() and not report.exists()


def _two_property_csv(path, first, second):
    path.write_text(f"name,{first},{second}\n" + "".join(
        f'"{s.name}",{i},{2 * i}\n' for i, s in enumerate(enumerate_octane_skeletons())
    ))
    return path


def test_scan_rejects_colliding_curve_files(capsys, tmp_path, monkeypatch):
    def no_scan(*args):
        raise AssertionError("colliding curve files must be rejected before scanning")

    monkeypatch.setattr("meansombor.cli.scan_properties", no_scan)
    for i, (first, second) in enumerate([("BP 1", "BP-1"), ("BP/x", "BP-x")]):
        props = _two_property_csv(tmp_path / f"props{i}.csv", first, second)
        curves = tmp_path / f"curves{i}"
        code, out, err = run(
            capsys, "scan", "--properties", str(props), "--curve-out", str(curves)
        )
        assert code == 1 and out == ""
        assert f"'{first}' and '{second}' would both write curve-{second}.csv" in err
        assert not curves.exists()


def test_scan_curve_file_names_replace_path_separators(capsys, tmp_path):
    props = _two_property_csv(tmp_path / "props.csv", "BP/x", "MP\\y")
    curves = tmp_path / "curves"
    code, _, _ = run(
        capsys, "scan", "--properties", str(props), "--alpha-range", "-1:1:0.5",
        "--curve-out", str(curves),
    )
    assert code == 0
    assert sorted(p.name for p in curves.iterdir()) == ["curve-BP-x.csv", "curve-MP-y.csv"]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes_and_writes_csv(capsys, tmp_path):
    out_path = tmp_path / "reports.csv"
    code, out, _ = run(
        capsys, "verify", "--random", "10", "--seed", "5", "--out", str(out_path)
    )
    assert code == 0
    assert "0 failures" in out
    text = out_path.read_text()
    assert text.startswith("# seed=5 random_graphs=10\n")
    lines = text.splitlines()
    assert lines[1].startswith("bound_id,")
    assert all(line.endswith(",1") for line in lines[2:])  # ok column


def test_verify_timings_print_three_stages(capsys, tmp_path):
    plain_csv, timed_csv = tmp_path / "plain.csv", tmp_path / "timed.csv"
    args = ("verify", "--random", "10", "--seed", "5", "--out")
    code, plain_out, plain_err = run(capsys, *args, str(plain_csv))
    assert code == 0 and plain_err == ""
    code, out, err = run(capsys, *args, str(timed_csv), "--timings")
    assert code == 0 and out == plain_out
    assert timed_csv.read_bytes() == plain_csv.read_bytes()
    lines = err.splitlines()
    assert [line.split()[1] for line in lines] == ["corpus-build", "check-sweep", "csv-write"]
    for line in lines:
        tag, _, seconds, unit = line.split()
        assert tag == "timing" and unit == "s" and float(seconds) >= 0.0


def test_scan_report_that_cannot_be_written_leaves_no_curves(capsys, octane_csv, tmp_path):
    # the report is written before any curve file; directories made for the
    # curves are taken back when it cannot be
    for d in (tmp_path, tmp_path / "new" / "deeper"):
        code, out, err = run(
            capsys, "scan", "--properties", str(octane_csv), "--alpha-range", "-1:1:0.5",
            "--curve-out", str(d / "curves"), "--out", str(d / "missing" / "scan.csv"),
        )
        assert code == 1 and out == ""
        assert "[Errno 2]" in err
        assert not (d / "curves").exists()
    assert sorted(tmp_path.iterdir()) == [octane_csv]
    # a report inside the curve directory still works
    code, _, _ = run(
        capsys, "scan", "--properties", str(octane_csv), "--alpha-range", "-1:1:0.5",
        "--curve-out", str(tmp_path / "d"), "--out", str(tmp_path / "d" / "scan.csv"),
    )
    assert code == 0
    assert sorted(p.name for p in (tmp_path / "d").iterdir()) == [
        "curve-PropA.csv", "curve-PropB.csv", "scan.csv",
    ]


def test_scan_timings_print_four_stages(capsys, octane_csv, tmp_path):
    def scan_into(name, *extra):
        d = tmp_path / name
        code, out, err = run(
            capsys, "scan", "--properties", str(octane_csv), "--alpha-range", "-1:1:0.1",
            "--curve-out", str(d / "curves"), "--out", str(d / "scan.csv"), *extra,
        )
        assert code == 0 and out == ""
        files = sorted(d.rglob("*.csv"))
        return err, [f.relative_to(d) for f in files], [f.read_bytes() for f in files]

    plain_err, plain_names, plain_bytes = scan_into("plain")
    assert plain_err == "" and len(plain_names) == 3
    err, names, timed_bytes = scan_into("timed", "--timings")
    assert names == plain_names and timed_bytes == plain_bytes
    lines = err.splitlines()
    stages = [line.split()[1] for line in lines]
    assert stages == ["dataset-load", "scan", "curve-write", "report-write"]
    for line in lines:
        tag, _, seconds, unit = line.split()
        assert tag == "timing" and unit == "s" and float(seconds) >= 0.0


def _fake_table(labels, lhs, rhs, graphs):
    # a table whose rows predict no equality, one battery per row of lhs
    import numpy as np

    from meansombor.bounds import VerificationTable

    lhs, rhs = np.array(lhs), np.array(rhs)
    return VerificationTable(
        labels, lhs, rhs, np.zeros(lhs.shape, bool), np.ones(lhs.shape, bool),
        np.zeros(lhs.shape, bool), graphs,
    )


def test_verify_failure_exits_2(capsys, tmp_path, monkeypatch):
    # a failing bound can only come from a broken implementation, so fake
    # one report to exercise the exit-code contract
    import meansombor.cli as cli_mod

    table = _fake_table((("fake", None),), [[2.0]], [[1.0]], [("g", 0)])
    monkeypatch.setattr(cli_mod, "run_verification", lambda **kw: table)
    out_path = tmp_path / "reports.csv"
    code, out, err = run(capsys, "verify", "--out", str(out_path))
    assert code == 2
    assert "verification failed" in err
    assert out_path.exists()  # the report is still written


def test_verify_failures_count_every_graph_sharing_a_key(capsys, tmp_path, monkeypatch):
    # graphs sharing a battery with a failing row each count its failures,
    # and the worst row is the one a row-by-row scan finds first (the first
    # minimum slack, under the first graph with its key)
    import meansombor.cli as cli_mod

    shared = _fake_table(
        (("fine", None), ("fake", None)), [[1.0, 2.0]], [[2.0, 1.0]],
        [("first", 0), ("second", 0)],
    )
    # two batteries tie on slack: the one whose first graph comes first wins
    tied = _fake_table(
        (("fake", None),), [[2.0], [3.0]], [[1.0], [2.0]],
        [("x", 1), ("first", 0), ("second", 0), ("y", 1)],
    )
    cases = [
        (shared, "checked 4 bound instances, 2 failures",
         "2 bound checks failed; worst: fake on first (slack -1.000e+00)"),
        (tied, "checked 4 bound instances, 4 failures",
         "4 bound checks failed; worst: fake on x (slack -1.000e+00)"),
    ]
    for table, summary, message in cases:
        failures = [r for r in scalar.table_rows(table) if not r.ok]
        worst = min(failures, key=lambda r: r.slack)
        assert message == (
            f"{len(failures)} bound checks failed; worst: {worst.bound_id} on "
            f"{worst.graph_id} (slack {worst.slack:.3e})"
        )
        monkeypatch.setattr(cli_mod, "run_verification", lambda **kw: table)
        code, out, err = run(capsys, "verify", "--out", str(tmp_path / "reports.csv"))
        assert code == 2
        assert out == summary + "\n"
        assert f"verification failed: {message}" in err


def test_underflowing_alpha_is_operational_error(capsys, p3_file):
    code, _, err = run(capsys, "compute", "--graph", str(p3_file), "--alpha", "1e-400")
    assert code == 1
    assert "below the smallest representable exponent" in err


def test_verify_rejects_negative_random_count(capsys, tmp_path):
    out_path = tmp_path / "reports.csv"
    code, out, err = run(capsys, "verify", "--random", "-3", "--out", str(out_path))
    assert code == 1 and out == ""
    assert "--random" in err and "-3" in err
    assert not out_path.exists()


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_missing_file_is_operational_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "compute", "--graph", str(tmp_path / "nope.txt"), "--alpha", "2"
    )
    assert code == 1


def test_bad_alpha_is_operational_error(capsys, p3_file, monkeypatch):
    for spec, message in [("0.0", "literal '0'"), ("nan", "cannot parse alpha 'nan'")]:
        code, _, err = run(capsys, "compute", "--graph", str(p3_file), "--alpha", spec)
        assert code == 1
        assert message in err
    # click's Abort (an interrupted prompt or input) exits 1 too
    import meansombor.cli as cli_mod

    def abort(spec):
        raise click.exceptions.Abort()

    monkeypatch.setattr(cli_mod, "parse_alpha", abort)
    code, out, _ = run(capsys, "compute", "--graph", str(p3_file), "--alpha", "2")
    assert code == 1 and out == ""


def test_malformed_graph_is_operational_error(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0 0\n")
    code, _, err = run(capsys, "compute", "--graph", str(bad), "--alpha", "2")
    assert code == 1
    assert "self-loop" in err


def test_oversized_graph_header_is_operational_error(capsys, tmp_path):
    big = tmp_path / "big.txt"
    big.write_text("10000000000\n0 1\n")
    code, _, err = run(capsys, "compute", "--graph", str(big), "--alpha", "2")
    assert code == 1
    assert "line 1" in err and "exceeds the limit" in err


def test_bad_alpha_range_is_operational_error(capsys, octane_csv, monkeypatch):
    def no_points(self):
        raise AssertionError("a rejected grid must not be built")

    monkeypatch.setattr(AlphaGrid, "points", no_points)
    for spec, cause in [
        ("-inf:1:0.1", "must be finite"),
        ("nan:1:0.1", "must be finite"),
        ("-1:1:inf", "must be finite"),
        ("0.001:0.002:0.01", "no nonzero lattice point"),
        ("-1:1:1e-13", "more than 100000 finite points"),
        ("2:2.0000000005:1e-10", "step 1e-10 is below twice the token resolution 1e-09"),
    ]:
        code, _, err = run(
            capsys, "scan", "--properties", str(octane_csv), "--alpha-range", spec
        )
        assert code == 1
        assert f"alpha grid {spec}" in err and cause in err
    # a spec that is not three numbers is rejected as it is parsed
    for spec, message in [
        ("1:2", "Invalid value: alpha range must be LO:HI:STEP"),
        ("a:b:c", "bad alpha range 'a:b:c'"),
    ]:
        code, _, err = run(
            capsys, "scan", "--properties", str(octane_csv), "--alpha-range", spec
        )
        assert code == 1
        assert message in err


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_cli_imports_only_runtime_dependencies():
    src = str(Path(meansombor.__file__).resolve().parent.parent)
    cases = [
        # the package needs numpy and click alone; networkx, mpmath and
        # hypothesis are test oracles, and scipy is not used at all
        ("meansombor, meansombor.cli", ("scipy", "networkx", "mpmath", "hypothesis")),
        # scripts/fetch_octane_properties.py imports the graphs module alone
        ("meansombor.graphs", (
            "numpy", "meansombor.indices", "meansombor.bounds",
            "meansombor.spectral", "meansombor.qspr", "meansombor.cli",
        )),
    ]
    for imports, absent in cases:
        code = f"import sys, {imports}; print(' '.join(m for m in {absent!r} if m in sys.modules))"
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.strip() == "", imports
