"""Fingerprints of five pinned solves, to check that a change keeps every iterate.

Run from the repository root:

    PYTHONPATH=src python3 tests/iterate_hashes.py
    PYTHONPATH=src python3 tests/iterate_hashes.py --against DIR

Each line gives a run, its iteration count, its stop reason, and the
SHA-256 over the C-contiguous float64 bytes of every `trace[k].vertices`,
in order from k = 0.  Two trees that print the same hashes produced
bit-identical iterates.  Each line then gives the run's calls into the
shadow walk and their pivots in total, which EXPECTED does not hold.
After printing, the script names each run whose count, reason or hash
differs from EXPECTED and exits 1; a change that means to move an
iterate updates EXPECTED in the same commit.  The five runs take about
7 s together on a 2-CPU machine, 6.5 s of it in the exact PD run (44
applications, with iterates of up to 1,237 vertices).  The file is not
collected by pytest; `tests/test_aps.py` checks the four fast runs.

With --against DIR, the five runs are also solved on DIR/src and every
iterate is compared (`compare_against`); EXPECTED is not read.  The
walks and pivots of both trees are printed for information only.
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
]


EXPECTED = {
    "pd delta=0.9 theta=0.02": "39 iterations, area_epsilon, "
    "801e7f0576aac90679b53b45b74be28efa03abb34bce7c7b8b34929cce84b1a9",
    "cournot delta=0.5 theta=0": "36 iterations, hausdorff_epsilon, "
    "6f53272257004c3991698dc0cd7ea681316a67495f328a429129b6693bd4d486",
    "cournot-patient delta=0.9 theta=0.05": "3 iterations, max_iter, "
    "c18e1fe5bdca298a4c39ccd367f7e58c76fdcacaa71827b395e62a2cb03d306c",
    "pd delta=0.5 theta=0": "22 iterations, hausdorff_epsilon, "
    "79f35932500d0fd460d2d6194fa7117773c3abcf396ee97db3c0bfc0210ac316",
    "pd delta=0.9 theta=0": "44 iterations, area_epsilon, "
    "a4c681c7cb6b77757044a93db8ad8e4df6708d5a63ae40d0c6768507241281cb",
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


def report_line(report) -> str:
    """A run's line: iteration count, stop reason and iterate hash."""
    return f"{report.iterations} iterations, {report.stop_reason}, {iterate_hash(report)}"


def run_line(game_file, delta, theta, max_iter) -> str:
    return report_line(run_walks(game_file, delta, theta, max_iter)[0])


def walk_counts(pivots) -> str:
    return f"{len(pivots)} walks, {sum(pivots)} pivots"


def dump_runs(path: str) -> None:
    """Pickle each run's iteration count, stop reason, iterates and walk pivots."""
    out = {}
    for name, *run in RUNS:
        report, pivots = run_walks(*run)
        out[name] = (report.iterations, report.stop_reason, [t.vertices for t in report.trace], pivots)
    Path(path).write_bytes(pickle.dumps(out))


def iterate_distance(p: np.ndarray, q: np.ndarray) -> float:
    if len(p) == 0 or len(q) == 0:
        return 0.0 if len(p) == len(q) else float("inf")
    return hausdorff(PolygonV(p), PolygonV(q))


def compare_against(other: Path) -> int:
    """Solve the pinned runs here and on `other`/src, and compare them.

    The other tree's runs are made in a subprocess with `other`/src
    first on PYTHONPATH.  For each run, prints whether the iteration
    count and stop reason match, how many iterates differ in bytes, and
    the worst Hausdorff distance between iterates of the same index,
    then each tree's walks and pivots.  Exits 1 if any iteration count
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
        iterations, reason, vertices, their_pivots = theirs[name]
        same = (report.iterations, report.stop_reason) == (iterations, reason)
        differ += not same
        changed = sum(
            a.shape != b.shape or a.tobytes() != b.tobytes() for a, b in zip(ours, vertices)
        )
        worst = max(iterate_distance(a, b) for a, b in zip(ours, vertices))
        print(
            f"{name}: {'same' if same else 'DIFFERENT'} count and reason "
            f"({iterations} {reason} there, {report.iterations} {report.stop_reason} here); "
            f"{changed} of {min(len(ours), len(vertices))} iterates differ in bytes; "
            f"worst Hausdorff distance {worst:.2g}; "
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
        line = report_line(report)
        print(f"{name}: {line}; {walk_counts(pivots)}", flush=True)
        if line != EXPECTED[name]:
            differ.append(name)
    for name in differ:
        print(f"differs from the expected line: {name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
