"""Time the benchmark's pass on this tree and on another, in one process.

    python3 tests/ab_time.py DIR [--rounds N] [--cpu]

Run from anywhere; DIR is the root of another checkout (for instance a
`git archive` of the parent commit).  Both trees' `src/ppesolve` are
loaded into this one process under two package names.  Each round
times `perfbench/run.py`'s pass (`run_pass`: the solve, then
report.json, trace.csv and final.svg) once per tree on each workload
that `BENCHMARK.json` lists, and the tree that goes first alternates
from round to round.  The pass is timed in wall time as the benchmark
does, or with --cpu in this process's CPU time (`time.process_time`),
which other jobs on the host move less.  It prints, per tree and
workload, the least, the median and the quartiles; then the ratio of
the medians, the number of rounds that this tree won, and the median
gap against the other tree's quartile spread.

The timings of one tree can move by about 1.7x from one process to the
next; within one process both trees share that swing, so their ratio
is steadier than a comparison of two benchmark runs.  This is a
developer script; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tree(tree: Path, name: str):
    """Import tree/src/ppesolve as the package `name`; returns (package, aps, reporting)."""
    src = tree / "src" / "ppesolve"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package  # the package's relative imports resolve through it
    spec.loader.exec_module(package)
    return package, importlib.import_module(f"{name}.aps"), importlib.import_module(f"{name}.reporting")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="root of the other checkout")
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--cpu", action="store_true", help="time each pass in process CPU time, not wall time")
    args = parser.parse_args(argv)
    clock = time.process_time if args.cpu else time.perf_counter

    sys.path.insert(0, str(ROOT / "perfbench"))
    import run as bench  # perfbench/run.py: its workloads and its timed pass

    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    trees = {"this": load_tree(ROOT, "ppesolve_this"), "other": load_tree(args.other.resolve(), "ppesolve_other")}
    cases = {}  # (workload, tree) -> (aps, reporting, game, config)
    for name in names:
        spec = bench.WORKLOADS[name]
        text = (ROOT / "games" / spec["game"]).read_text(encoding="utf-8")
        for tree, (package, aps, reporting) in trees.items():
            config = aps.SolverConfig(delta=spec["delta"], theta=spec["theta"], max_iter=spec["max_iter"])
            cases[name, tree] = (aps, reporting, package.parse_game(text), config)

    times = {key: [] for key in cases}
    order = list(trees)
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        for key in cases:  # warm-up, untimed
            bench.run_pass(*cases[key], out_dir)
        for _ in range(args.rounds):
            for name in names:
                for tree in order:
                    t0 = clock()
                    bench.run_pass(*cases[name, tree], out_dir)
                    times[name, tree].append(clock() - t0)
            order.reverse()

    print(f"{args.rounds} rounds of {'CPU' if args.cpu else 'wall'} time, this tree = {ROOT}, "
          f"other = {args.other.resolve()}")
    for name in names:
        medians, spreads = {}, {}
        for tree in trees:
            t = times[name, tree]
            q1, medians[tree], q3 = statistics.quantiles(t, n=4)
            spreads[tree] = q3 - q1
            print(f"{name:18s} {tree:5s}  least {min(t) * 1e3:8.2f} ms  median {medians[tree] * 1e3:8.2f} ms"
                  f"  quartiles {q1 * 1e3:8.2f} - {q3 * 1e3:8.2f} ms")
        wins = sum(a < b for a, b in zip(times[name, "this"], times[name, "other"]))
        gap = medians["other"] - medians["this"]
        print(f"{name:18s} median this / other = {medians['this'] / medians['other']:.3f}; "
              f"this tree won {wins} of {args.rounds} rounds; median gap {gap * 1e3:.2f} ms "
              f"against the other tree's quartile spread {spreads['other'] * 1e3:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
