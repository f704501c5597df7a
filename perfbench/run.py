"""Benchmark of the meansombor package: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-sweep --seed 20240803 --seconds 25 --trace 0

Workloads: verify-sweep, qspr-scan, chemical-trees (see workloads.py).  The
default seed is 20240803, the CLI's own default, so verify-sweep then runs
exactly `meansombor verify`.  Seed 97 is held out: check a performance claim
on it after writing the claim with the default seed.

Each run is one process with one thread and a closed loop with one caller:
a pass (one command or one corpus pass) starts when the previous one has
returned and passed its output gates.  Passes repeat until --seconds have
gone by, and at least five are made (traced runs: at least one).

--trace 0 reports the end-to-end metrics: setup_s, the median of five
set-ups (this process's own, from its first line to the end of warm-up,
plus four more in child processes); pass_s_p50 and items_per_s, medians
over the passes; peak_rss_mb of this process.  Times are rescaled to a
nominal host speed by reference work sampled during the same interval (see
speed.py); the measured seconds are printed too, as "unscaled".  --trace 1 runs the
command, then replays the same work with a span around each call the
benchmark makes into a layer, then probes the index and QSPR layers; it
reports per-layer metrics from those spans and writes the spans, with self
times, to .perfbench-out/trace-<workload>-seed<seed>.jsonl.  Layers a
workload does not call report 0.

The last line of standard output is one JSON object: correct, attempted and
failed passes, and the metrics.  A pass fails when its command exits nonzero
or an output gate fails.  A record of the run with the environment, every
pass and every gate problem goes to .perfbench-out/<workload>-seed<seed>-trace<t>.json.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

# One thread: keep numpy's BLAS from starting a worker pool on import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from spans import Tracer, write_jsonl  # noqa: E402
from speed import NOMINAL_S, SAMPLE_SPAN, SpeedSampler, rescaled  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
DEFAULT_SEED = 20240803
HELD_OUT_SEED = 97
SETUP_REPEATS = 5
SETUP_INTERVAL_S = 0.02  # set-up is short: sample the reference more often
MIN_PASSES = 5

# Layers whose time is the summed duration of their spans in a pass.
TIMED_LAYERS = (
    "graphs.enumerate_trees",
    "graphs.enumerate_octane_skeletons",
    "graphs.default_corpus",
    "graphs.random_connected_graphs",
    "indices.mean_sombor",
    "indices.classical",
    "spectral.build_matrix",
    "spectral.edge_term_stats",
    "spectral.trace_of_square",
    "bounds.monotonicity",
    "bounds.chain",
    "bounds.jensen-m1",
    "bounds.kalpha",
    "bounds.so-sandwich",
    "bounds.ka-powersum",
    "bounds.mso2-m1-m2",
    "bounds.variance-identity",
    "bounds.write_reports_csv",
    "qspr.load_dataset",
    "qspr.descriptor_matrix",
    "qspr.fit_linear",
    "qspr.write_curve_csv",
    "cli.verify",
    "cli.scan",
    "chemical_trees.pass",
)


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify-sweep", "qspr-scan", "chemical-trees"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; held out: {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=25.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics; 1: traced run with per-layer metrics")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def setup_in_child(args: argparse.Namespace) -> dict:
    """One more set-up, from a fresh interpreter, timed by the child."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


def run_checked(wl, digests: list) -> tuple[list[str], int]:
    """Gates of the pass just run; returns its problems and items."""
    problems, items, dig = wl.check()
    if digests and dig != digests[0]:
        problems.append("output bytes differ from the first pass")
    digests.append(dig)
    return problems, items


def untraced_run(wl, seconds: float) -> tuple[list[dict], dict, dict]:
    passes: list[dict] = []
    digests: list[str] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        wl.clear()
        gc.collect()
        speed = SpeedSampler()
        try:
            with speed:
                t = time.perf_counter()
                rc = wl.run_pass()
                dt = time.perf_counter() - t
            problems, items = run_checked(wl, digests) if rc == 0 else ([f"exit code {rc}"], 0)
        except Exception:  # a crashing pass is a failed pass; keep measuring
            dt, items, problems = time.perf_counter() - t, 0, [traceback.format_exc()]
        samples = speed.samples()  # taken inside the pass, so not its work
        dt -= sum(samples)
        passes.append({"seconds": dt, "rescaled_s": rescaled(dt, samples),
                       "ref_samples": len(samples), "items": items, "problems": problems})
    ok = [p for p in passes if not p["problems"]] or passes
    metrics = {
        "items_per_s": (median_or_zero(ratio(p["items"], p["rescaled_s"]) for p in ok), "1/s"),
        "pass_s_p50": (median_or_zero(p["rescaled_s"] for p in ok), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = {
        "items_per_s": (median_or_zero(ratio(p["items"], p["seconds"]) for p in ok), "1/s"),
        "pass_s_p50": (median_or_zero(p["seconds"] for p in ok), "s"),
    }
    return passes, metrics, raw


def traced_run(wl, seconds: float, tracer) -> tuple[list[dict], dict]:
    import workloads

    passes: list[dict] = []
    digests: list[str] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        tracer.pass_id = len(passes) + 1
        wl.clear()
        gc.collect()
        try:
            with SpeedSampler(tracer=tracer), tracer.span("pass"):
                with tracer.span(wl.command_span):
                    rc = wl.run_pass()
                with tracer.span("replay"):
                    replayed, problems = wl.replay(tracer)
                with tracer.span("probe"):
                    wl.probe(tracer)
            if rc == 0:
                gate_problems, items = run_checked(wl, digests)
                problems += gate_problems
                if replayed != items:
                    problems.append(f"replay covered {replayed} items, the command {items}")
            else:
                problems.append(f"exit code {rc}")
        except Exception:  # a crashing pass is a failed pass; keep measuring
            problems = [traceback.format_exc()]
        passes.append({"problems": problems})
    metrics = layer_metrics(tracer.spans, wl.command_span)
    for name, value in workloads.input_counters(wl.input_graphs()).items():
        unit = "ratio" if name.endswith("share") else "count"
        metrics[name] = (value, unit)
    return passes, metrics


def rescaled_durations(spans) -> list[float]:
    """Each span's duration without the reference samples taken inside it,
    rescaled to the nominal speed by the samples taken in the same phase
    (command, replay or probe) of its pass."""
    sampled = [0.0] * len(spans)
    phase: list[int | None] = [None] * len(spans)
    refs: dict[int | None, list[float]] = defaultdict(list)
    for s in spans:  # in creation order, so a parent comes before its children
        if s.parent_id is not None:
            parent = spans[s.parent_id]
            phase[s.span_id] = s.span_id if parent.parent_id is None else phase[s.parent_id]
        if s.name != SAMPLE_SPAN:
            continue
        refs[phase[s.span_id]].append(s.duration)
        pid = s.parent_id
        while pid is not None:
            # a sample taken just after a span ended can still name it as parent
            if spans[pid].start <= s.start and s.end <= spans[pid].end:
                sampled[pid] += s.duration
            pid = spans[pid].parent_id
    every = [d for v in refs.values() for d in v]
    fallback = NOMINAL_S / statistics.median(every) if every else 1.0
    factor = {ph: NOMINAL_S / statistics.median(v) for ph, v in refs.items()}
    return [
        (s.duration - sampled[s.span_id]) * factor.get(phase[s.span_id], fallback)
        for s in spans
    ]


def layer_metrics(spans, command_span: str) -> dict:
    """Per-layer metrics from rescaled span durations: per-pass sums, then
    the median over passes; percentiles pool the spans of every pass."""
    per_pass: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    pooled: dict[str, list[float]] = defaultdict(list)
    for s, duration in zip(spans, rescaled_durations(spans)):
        if s.name == SAMPLE_SPAN:
            continue
        p = per_pass[s.pass_id]
        p[s.name] += duration
        for key, value in s.counts.items():
            p[f"{s.name}.{key}"] += value
        if s.parent_id is not None and spans[s.parent_id].name == "replay":
            p["replay.probes" if s.name == "probe" else "replay.children"] += duration
        pooled[s.name].append(duration)

    def med(f) -> float:
        return median_or_zero(f(p) for p in per_pass.values())

    def p99(name: str) -> float:
        durations = pooled[name]
        return statistics.quantiles(durations, n=100)[98] if len(durations) > 1 else 0.0

    m = {f"{name}.s": (med(lambda p, n=name: p[n]), "s") for name in TIMED_LAYERS}
    is_cli = command_span.startswith("cli.")
    m.update({
        "graphs.enumerate_trees.trees_per_s": (
            med(lambda p: ratio(p["graphs.enumerate_trees.trees"], p["graphs.enumerate_trees"])), "1/s"),
        "indices.mean_sombor.calls": (med(lambda p: p["indices.mean_sombor.calls"]), "count"),
        "indices.power_mean.evals": (med(lambda p: p["indices.mean_sombor.evals"]), "count.computed"),
        "indices.power_mean.evals_per_s": (
            med(lambda p: ratio(p["indices.mean_sombor.evals"], p["indices.mean_sombor"])), "1/s"),
        "bounds.per_graph.s_p50": (median_or_zero(pooled["bounds.per_graph"]), "s"),
        "bounds.per_graph.s_p99": (p99("bounds.per_graph"), "s"),
        "bounds.write_reports_csv.bytes": (med(lambda p: p["bounds.write_reports_csv.bytes"]), "bytes"),
        "bounds.reports": (med(lambda p: p["bounds.write_reports_csv.reports"]), "count"),
        "bounds.failures": (med(lambda p: p["bounds.write_reports_csv.failures"]), "count"),
        "qspr.fit_linear.calls": (med(lambda p: p["qspr.fit_linear.calls"]), "count"),
        "qspr.alpha_scan.s_p50": (median_or_zero(pooled["qspr.alpha_scan"]), "s"),
        "qspr.refine.self_s": (
            med(lambda p: p["qspr.alpha_scan"] - p["qspr.descriptor_matrix"] - p["qspr.fit_linear"]), "s"),
        "cli.self_s": (med(lambda p: p[command_span] - p["replay.children"]) if is_cli else 0.0, "s"),
        "trace.overhead_ratio": (
            med(lambda p: ratio(p["replay"] - p["replay.probes"], p[command_span])), "ratio"),
    })
    return m


def environment(args: argparse.Namespace) -> dict:
    import numpy
    from meansombor import bounds, graphs
    from workloads import CLI_RANDOM_GRAPHS

    corpus = graphs.default_corpus()
    sweep_graphs = len(corpus) + CLI_RANDOM_GRAPHS
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "python_threads": threading.active_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "jobs": "not passed: one process, one thread",
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "default_sweep": {
            "graphs": sweep_graphs,
            "reports": sweep_graphs * len(bounds.checks_for_graph(corpus[0])),
        },
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "meansombor" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'meansombor'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        speed = SpeedSampler(SETUP_INTERVAL_S)
        with speed:
            sys.path.insert(0, str(SRC))
            import workloads

            wl = workloads.WORKLOADS[args.workload](args.seed, work)
            wl.setup()
            setup_raw = time.perf_counter() - T0
        samples = speed.samples()
        setup_raw -= sum(samples)
        setup = {"rescaled_s": rescaled(setup_raw, samples), "seconds": setup_raw}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        setups = [setup]
        raw: dict = {}
        tracer = Tracer()
        if args.trace:
            passes, metrics = traced_run(wl, args.seconds, tracer)
        else:
            setups += [setup_in_child(args) for _ in range(SETUP_REPEATS - 1)]
            passes, metrics, raw = untraced_run(wl, args.seconds)
            metrics["setup_s"] = (statistics.median(s["rescaled_s"] for s in setups), "s")
            raw["setup_s"] = (statistics.median(s["seconds"] for s in setups), "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args)
    failed = sum(1 for p in passes if p["problems"])
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        write_jsonl(OUT / f"trace-{stem}.jsonl", tracer.spans, env)
    record = {"env": env, "setups": setups, "passes": passes,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "unscaled": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}}
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value!r} {unit}")
    for name, (value, unit) in sorted(raw.items()):
        print(f"unscaled {name} = {value!r} {unit}")
    print(f"passes = {len(passes)}, failed = {failed}, error_rate = {ratio(failed, len(passes))!r}")
    for i, p in enumerate(passes, start=1):
        for problem in p["problems"]:
            print(f"pass {i} failed: {problem}")
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
