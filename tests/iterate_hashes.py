"""The registry of pinned runs: seven solves, their iterates, walks and pivots.

    PYTHONPATH=src python3 tests/iterate_hashes.py
    PYTHONPATH=src python3 tests/iterate_hashes.py --against DIR

Run from the repository root, the script prints for each run its
iteration count, its stop reason, the SHA-256 over the C-contiguous
float64 bytes of every `trace[k].vertices` from k = 0, and its calls
into the shadow walk with their pivots in total.  It then names each
run whose line differs from EXPECTED and exits 1; a change that means to
move an iterate, a walk or a pivot updates EXPECTED in the same commit.
The seven runs take about 5 s on a 2-CPU machine, nearly all of it in
exact PD (44 applications, with iterates of up to 1,237 vertices).

The test suite solves each run once per session (`conftest.pinned_runs`),
checks every line against EXPECTED, and reads the iterates of these
configurations from there: iterate k does not depend on max_iter, so a
prefix of a run serves a smaller max_iter.

With --against DIR, the runs are also solved on DIR/src and every
iterate and every `hausdorff_diff`, which the stop rule reads, is
compared (`compare_against`); EXPECTED is not read, and the walks and
pivots of both trees are printed for information only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from ppesolve import SolverConfig, aps, parse_game, solve
from ppesolve.geometry import PolygonV, hausdorff

GAMES = Path(__file__).resolve().parents[1] / "games"

# (name, game file, delta, theta, max_iter)
RUNS = [
    ("pd delta=0.9 theta=0.02", "prisoners_dilemma.json", 0.9, 0.02, 200),
    ("cournot delta=0.5 theta=0", "cournot.json", 0.5, 0.0, 200),
    ("cournot-patient delta=0.9 theta=0.05", "cournot.json", 0.9, 0.05, 3),
    ("pd delta=0.5 theta=0", "prisoners_dilemma.json", 0.5, 0.0, 200),
    ("pd delta=0.9 theta=0", "prisoners_dilemma.json", 0.9, 0.0, 200),
    ("cournot delta=0.9 theta=0.05", "cournot.json", 0.9, 0.05, 200),
    ("cournot delta=0.9 theta=0", "cournot.json", 0.9, 0.0, 200),
]


EXPECTED = {
    "pd delta=0.9 theta=0.02": "44 iterations, area_epsilon, "
    "96caea2b900f3364e61b33a0171e9ffa2f9d25d8a3921010a4b6ff9578d8af3a; 132 walks, 2133 pivots",
    "cournot delta=0.5 theta=0": "36 iterations, hausdorff_epsilon, "
    "6f53272257004c3991698dc0cd7ea681316a67495f328a429129b6693bd4d486; 65 walks, 682 pivots",
    "cournot-patient delta=0.9 theta=0.05": "3 iterations, max_iter, "
    "3bfdeb88604d7dfcf9c077d992d1f15a45f2fec5d34fb474832f217c9fb2cbe3; 24 walks, 254 pivots",
    "pd delta=0.5 theta=0": "22 iterations, hausdorff_epsilon, "
    "79f35932500d0fd460d2d6194fa7117773c3abcf396ee97db3c0bfc0210ac316; 3 walks, 7 pivots",
    "pd delta=0.9 theta=0": "44 iterations, area_epsilon, "
    "a4c681c7cb6b77757044a93db8ad8e4df6708d5a63ae40d0c6768507241281cb; 132 walks, 51320 pivots",
    "cournot delta=0.9 theta=0.05": "24 iterations, area_epsilon, "
    "ca3e5ac4e7b6c1ab8b1c619b7268745f6841f033e607cef8336f32ef83c69ca5; 192 walks, 2135 pivots",
    "cournot delta=0.9 theta=0": "24 iterations, area_epsilon, "
    "56f0fef929944d87a239c19b4fd5d2618aeec5752090c5f9eeba9b3bbef0027e; 192 walks, 2692 pivots",
}


def iterate_hash(report) -> str:
    h = hashlib.sha256()
    for t in report.trace:
        h.update(np.ascontiguousarray(t.vertices, dtype=np.float64).tobytes())
    return h.hexdigest()


def run_walks(game_file, delta, theta, max_iter):
    """Solve one run; returns the report and the pivots of each walk.

    The spy takes the walk's arguments as *args, so it works whatever
    the walk's signature on the tree under test."""
    game = parse_game((GAMES / game_file).read_text(encoding="utf-8"))
    pivots = []
    walk = aps.shadow_polygon

    def spy(*args):
        result = walk(*args)
        pivots.append(result[1])
        return result

    aps.shadow_polygon = spy
    try:
        report = solve(game, SolverConfig(delta=delta, theta=theta, max_iter=max_iter))
    finally:
        aps.shadow_polygon = walk
    return report, pivots


def walk_counts(pivots) -> str:
    return f"{len(pivots)} walks, {sum(pivots)} pivots"


def report_line(report, pivots) -> str:
    """A run's line: iteration count, stop reason, iterate hash, walks and pivots."""
    return f"{report.iterations} iterations, {report.stop_reason}, {iterate_hash(report)}; {walk_counts(pivots)}"


def dump_runs(path: str) -> None:
    """Pickle each run's iteration count, stop reason, iterates, step
    distances (`hausdorff_diff`) and walk pivots."""
    out = {}
    for name, *run in RUNS:
        report, pivots = run_walks(*run)
        steps = [t.hausdorff_diff for t in report.trace]
        out[name] = (report.iterations, report.stop_reason, [t.vertices for t in report.trace], steps, pivots)
    Path(path).write_bytes(pickle.dumps(out))


def iterate_distance(p: np.ndarray, q: np.ndarray) -> float:
    if len(p) == 0 or len(q) == 0:
        return 0.0 if len(p) == len(q) else float("inf")
    return hausdorff(PolygonV(p), PolygonV(q))


def compare_against(other: Path) -> int:
    """Solve the pinned runs here and on `other`/src, and compare them.

    The other tree's runs are made in a subprocess with `other`/src
    first on PYTHONPATH.  For each run, prints whether the iteration
    count and stop reason match, how many iterates differ in bytes, the
    worst Hausdorff distance between iterates of the same index, and how
    many `hausdorff_diff` values differ (compared by repr, so exactly,
    NaN equal to NaN), then each tree's walks and pivots.  Exits 1 if any iteration count
    or stop reason differs.
    """
    with tempfile.TemporaryDirectory() as tmp:
        dump = os.path.join(tmp, "runs.pickle")
        env = dict(os.environ, PYTHONPATH=str(other.resolve() / "src"))
        subprocess.run([sys.executable, __file__, "--dump", dump], env=env, check=True)
        theirs = pickle.loads(Path(dump).read_bytes())
    differ = 0
    for name, *run in RUNS:
        report, pivots = run_walks(*run)
        ours = [t.vertices for t in report.trace]
        iterations, reason, vertices, their_steps, their_pivots = theirs[name]
        same = (report.iterations, report.stop_reason) == (iterations, reason)
        differ += not same
        changed = sum(
            a.shape != b.shape or a.tobytes() != b.tobytes() for a, b in zip(ours, vertices)
        )
        worst = max(iterate_distance(a, b) for a, b in zip(ours, vertices))
        steps = sum(repr(t.hausdorff_diff) != repr(d) for t, d in zip(report.trace, their_steps))
        print(
            f"{name}: {'same' if same else 'DIFFERENT'} count and reason "
            f"({iterations} {reason} there, {report.iterations} {report.stop_reason} here); "
            f"{changed} of {min(len(ours), len(vertices))} iterates differ in bytes; "
            f"worst Hausdorff distance {worst:.2g}; "
            f"{steps} of {min(len(ours), len(their_steps))} hausdorff_diff values differ; "
            f"{walk_counts(their_pivots)} there, {walk_counts(pivots)} here",
            flush=True,
        )
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="compare every iterate with the tree at DIR instead of with EXPECTED")
    parser.add_argument("--dump", metavar="FILE", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.dump:
        dump_runs(args.dump)
        return 0
    if args.against:
        return compare_against(args.against)
    differ = []
    for name, *run in RUNS:
        report, pivots = run_walks(*run)
        line = report_line(report, pivots)
        print(f"{name}: {line}", flush=True)
        if line != EXPECTED[name]:
            differ.append(name)
    for name in differ:
        print(f"differs from the expected line: {name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
