"""Benchmark of the public solve path: parse_game -> solve -> artifacts.

One workload per process:

    python3 perfbench/run.py --workload pd-patient --seed 1 --seconds 10 --trace 0

runs whole passes (a solve plus its three artifacts written) until
--seconds have elapsed, at least one, then checks every operator
application of the solve with an independent LP (check.py) and prints
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
The last line of standard output is a JSON object with the keys
correct, attempted, failed and metrics.  A traced run alternates an
untraced and a traced pass, so that it can report the tracing overhead.

Every workload, each in a fresh process, untraced and then traced:

    python3 perfbench/run.py --workload all --seed 1 --seconds 10

The solver runs with its defaults: every PPE_* environment variable is
removed before ppesolve is imported.  The workloads are fixed games from
games/; the seed only draws the check's extra probe directions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from check import GameLP
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 3
PROBES_PER_APPLICATION = 2
ARTIFACTS = ("report.json", "trace.csv", "final.svg")
SETUP_PHASES = ("setup.import_s", "game.parse_game_s", "game.individually_rational_set_s")

# Why each workload is here is recorded in README.md.
WORKLOADS = {
    "pd-patient": dict(game="prisoners_dilemma.json", delta=0.9, theta=0.02,
                       max_iter=200, stop=("area_epsilon", "hausdorff_epsilon")),
    "cournot-collapse": dict(game="cournot.json", delta=0.5, theta=0.0,
                             max_iter=200, stop=("area_epsilon", "hausdorff_epsilon")),
    "cournot-patient": dict(game="cournot.json", delta=0.9, theta=0.05,
                            max_iter=3, stop=("max_iter",)),
}


def load_solver():
    """Import ppesolve from this checkout's src/, never from elsewhere."""
    for key in [k for k in os.environ if k.startswith("PPE_")]:
        del os.environ[key]
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ppesolve
    from ppesolve import aps, reporting

    if not Path(ppesolve.__file__).resolve().is_relative_to(src):
        raise ImportError(f"ppesolve was imported from {ppesolve.__file__}, not {src}")
    return ppesolve, aps, reporting


def setup_times(game_path: Path) -> list[dict]:
    """Run the set-up probe in SETUP_REPEATS fresh interpreters."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(game_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def run_pass(aps, reporting, game, config, out_dir: Path):
    """One solve with its artifacts written: the unit of solve_s."""
    t0 = time.perf_counter()
    report = aps.solve(game, config)
    report_json, trace_csv, svg = (out_dir / n for n in ARTIFACTS)
    reporting.write_report_json(report, report_json)
    reporting.write_trace_csv(report, trace_csv)
    reporting.emit_svg(report, svg)
    return report, time.perf_counter() - t0


def same_iterates(a, b) -> bool:
    return (a.stop_reason == b.stop_reason and len(a.trace) == len(b.trace)
            and all(np.array_equal(s.vertices, t.vertices)
                    for s, t in zip(a.trace, b.trace)))


def output_problems(report, spec, out_dir: Path) -> list[str]:
    """Properties of the report and its artifacts that must hold."""
    problems = []
    if report.stop_reason not in spec["stop"]:
        problems.append(f"stop reason {report.stop_reason}, expected {spec['stop']}")
    if spec["stop"] == ("max_iter",) and report.iterations != spec["max_iter"]:
        problems.append(f"{report.iterations} iterations, expected {spec['max_iter']}")
    if not np.array_equal(report.final_set.vertices, report.trace[-1].vertices):
        problems.append("final set differs from the last iterate")
    doc = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    if (doc["iterations"] != report.iterations
            or doc["stop_reason"] != report.stop_reason
            or not np.array_equal(np.array(doc["final_vertices"]).reshape(-1, 2),
                                  report.final_set.vertices)):
        problems.append("report.json disagrees with the report")
    rows = (out_dir / "trace.csv").read_text(encoding="utf-8").splitlines()[1:]
    if [int(r.split(",", 1)[0]) for r in rows] != list(range(len(report.trace))):
        problems.append("trace.csv does not list every iteration")
    svg = (out_dir / "final.svg").read_text(encoding="utf-8")
    if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
        problems.append("final.svg is not a complete SVG document")
    return problems


def check_solve(game, spec, report, seed: int):
    """Independent LP check of every operator application.

    Returns the number of applications and the failing ones with their
    violations.
    """
    lp = GameLP(game.payoffs, game.signal_probs, spec["delta"])
    rng = np.random.default_rng(seed)
    failing = []
    trace = report.trace
    for k in range(1, len(trace)):
        angles = rng.uniform(0, 2 * np.pi, PROBES_PER_APPLICATION)
        probes = np.column_stack([np.cos(angles), np.sin(angles)])
        found = lp.check_application(trace[k - 1].vertices, trace[k].vertices,
                                     probes, game.profile_label)
        if found:
            failing.append((k, found))
    return len(trace) - 1, failing


# per-layer metric -> (span name, field of Tracer.totals())
SPAN_METRICS = {
    "vertex_enum.enumerate_product_s": ("vertex_enum.enumerate_product", "self_s"),
    "vertex_enum.enumerate_product_calls": ("vertex_enum.enumerate_product", "calls"),
    "kernels.adjacent_pairs_s": ("kernels.adjacent_pairs", "s"),
    "kernels.adjacent_pairs_calls": ("kernels.adjacent_pairs", "calls"),
    "aps.solve_s": ("aps.solve", "s"),
    "aps.solve_self_s": ("aps.solve", "self_s"),
    "aps.apply_B_s": ("aps.apply_B", "s"),
    "aps.apply_B_calls": ("aps.apply_B", "calls"),
    "aps.enforceable_payoffs_s": ("aps.enforceable_payoffs", "s"),
    "aps.enforceable_payoffs_calls": ("aps.enforceable_payoffs", "calls"),
    "geometry.convex_hull_s": ("geometry.convex_hull", "s"),
    "geometry.rdp_simplify_s": ("geometry.rdp_simplify", "s"),
    "geometry.intersect_polygons_s": ("geometry.intersect_polygons", "s"),
    "geometry.hausdorff_s": ("geometry.hausdorff", "s"),
    "reporting.write_s": ("reporting.write", "s"),
}


def layer_metrics(tracers, report, traced_s, untraced_s, setups):
    """Per-layer figures: times are medians over the traced passes; counts
    repeat exactly, so they come from the first one."""
    def med(values):
        return float(statistics.median(values))

    totals = [t.totals() for t in tracers]
    out = {}
    for metric, (name, field) in SPAN_METRICS.items():
        if name in totals[0]:
            out[metric] = (med(t[name][field] for t in totals),
                           "count" if field == "calls" else "s")
    for name, value in tracers[0].counts.items():
        out[name] = (float(value), "count")
    if "aps.apply_B_s" in out and "aps.enforceable_payoffs_s" in out:
        out["aps.profile_parallelism"] = (
            out["aps.enforceable_payoffs_s"][0] / out["aps.apply_B_s"][0], "ratio")
    out["aps.iterations"] = (float(report.iterations), "count")
    out["geometry.iterate_vertices"] = (
        float(sum(len(t.vertices) for t in report.trace[1:])), "count")
    out["reporting.bytes"] = (float(sum(
        (OUT / "artifacts" / n).stat().st_size for n in ARTIFACTS)), "bytes")
    for key in SETUP_PHASES:
        out[key] = (med(s[key] for s in setups), "s")
    out["trace.overhead_s"] = (med(traced_s) - med(untraced_s), "s")
    out["process.peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[name]
    ppesolve, aps, reporting = load_solver()

    game_path = ROOT / "games" / spec["game"]
    setups = setup_times(game_path)
    game = ppesolve.parse_game(game_path.read_text(encoding="utf-8"))
    config = aps.SolverConfig(delta=spec["delta"], theta=spec["theta"],
                              max_iter=spec["max_iter"])
    out_dir = OUT / "artifacts"
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"{name}-spans.jsonl"
    if trace:
        spans_path.unlink(missing_ok=True)

    reports, untraced_s, traced_s, tracers = [], [], [], []
    start = time.perf_counter()
    while not reports or time.perf_counter() - start < seconds:
        report, dt = run_pass(aps, reporting, game, config, out_dir)
        reports.append(report)
        untraced_s.append(dt)
        if trace:
            tracer = Tracer()
            with tracer.installed():
                report, dt = run_pass(aps, reporting, game, config, out_dir)
            tracer.dump(spans_path, len(tracers))
            reports.append(report)
            traced_s.append(dt)
            tracers.append(tracer)

    problems = output_problems(reports[-1], spec, out_dir)
    if not all(same_iterates(reports[0], r) for r in reports[1:]):
        problems.append("passes gave different iterates")
    applications, failing = check_solve(game, spec, reports[0], seed)

    for k, found in failing:
        for v in found:
            print(f"{name}: application {k} fails ({v.kind}, {v.amount:.6g} "
                  f"outside): {v.detail}", file=sys.stderr)
    for p in problems:
        print(f"{name}: {p}", file=sys.stderr)

    passes = len(reports)
    if trace:
        metrics = layer_metrics(tracers, reports[0], traced_s, untraced_s, setups)
    else:
        setup_s = statistics.median(sum(s[k] for k in SETUP_PHASES) for s in setups)
        metrics = {"solve_s": (statistics.median(untraced_s), "s"),
                   "setup_s": (setup_s, "s")}
    print(f"{name}: {passes} passes, {applications} operator applications each, "
          f"{len(failing)} of them failing the LP check")
    for key, (value, unit) in metrics.items():
        print(f"{name}: {key} = {value:.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": passes * applications,
        "failed": passes * len(failing),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload in a fresh process, untraced then traced."""
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in (ROOT / "src").rglob("*.py"))
    print(f"src/ line count: {lines}")
    status = 0
    for name in WORKLOADS:
        results = []
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name}: run failed with exit code {proc.returncode}")
                status = 1
                break
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        if len(results) < 2:
            continue
        plain, traced = results
        print(f"\n{name}: correct={plain['correct'] and traced['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']}")
        for key, m in plain["metrics"].items():
            print(f"  {key:40s} {m['value']:12.6g} {m['unit']}")
        base = traced["metrics"].get("aps.solve_s", {}).get("value")
        for key, m in traced["metrics"].items():
            share = ""
            if base and m["unit"] == "s" and not key.startswith(("setup.", "game.")):
                share = f"{100 * m['value'] / base:6.1f}% of traced solve"
            print(f"  {key:40s} {m['value']:12.6g} {m['unit']:6s} {share}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
