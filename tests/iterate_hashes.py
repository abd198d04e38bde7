"""Fingerprints of five pinned solves, to check that a change keeps every iterate.

Run from the repository root:

    PYTHONPATH=src python3 tests/iterate_hashes.py

Each line gives a run, its iteration count, its stop reason, and the
SHA-256 over the C-contiguous float64 bytes of every `trace[k].vertices`,
in order from k = 0.  Two trees that print the same lines produced
bit-identical iterates.  The five runs take about 10 s together on a
2-CPU machine.  The file is not collected by pytest.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from ppesolve import SolverConfig, parse_game, solve

GAMES = Path(__file__).resolve().parents[1] / "games"

# (name, game file, delta, theta, max_iter)
RUNS = [
    ("pd delta=0.9 theta=0.02", "prisoners_dilemma.json", 0.9, 0.02, 200),
    ("cournot delta=0.5 theta=0", "cournot.json", 0.5, 0.0, 200),
    ("cournot-patient delta=0.9 theta=0.05", "cournot.json", 0.9, 0.05, 3),
    ("pd delta=0.5 theta=0", "prisoners_dilemma.json", 0.5, 0.0, 200),
    ("pd delta=0.9 theta=0", "prisoners_dilemma.json", 0.9, 0.0, 200),
]


def iterate_hash(report) -> str:
    h = hashlib.sha256()
    for t in report.trace:
        h.update(np.ascontiguousarray(t.vertices, dtype=np.float64).tobytes())
    return h.hexdigest()


def main():
    for name, game_file, delta, theta, max_iter in RUNS:
        game = parse_game((GAMES / game_file).read_text(encoding="utf-8"))
        report = solve(game, SolverConfig(delta=delta, theta=theta, max_iter=max_iter))
        print(f"{name}: {report.iterations} iterations, {report.stop_reason}, "
              f"{iterate_hash(report)}", flush=True)


if __name__ == "__main__":
    main()
