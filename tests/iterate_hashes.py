"""Fingerprints of five pinned solves, to check that a change keeps every iterate.

Run from the repository root:

    PYTHONPATH=src python3 tests/iterate_hashes.py

Each line gives a run, its iteration count, its stop reason, and the
SHA-256 over the C-contiguous float64 bytes of every `trace[k].vertices`,
in order from k = 0.  Two trees that print the same lines produced
bit-identical iterates.  After printing, the script names each run whose
line differs from EXPECTED and exits 1; a change that means to move an
iterate updates EXPECTED in the same commit.  The five runs take about
10 s together on a 2-CPU machine.  The file is not collected by pytest.
"""

from __future__ import annotations

import hashlib
import sys
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


EXPECTED = {
    "pd delta=0.9 theta=0.02": "39 iterations, area_epsilon, "
    "698ee276913152c314f4cd51e7c7f40b14cac5ee5858d66e4eb309fe36082d37",
    "cournot delta=0.5 theta=0": "36 iterations, hausdorff_epsilon, "
    "bf270188043e22afe8fb111986451be4f58be979bafb44071f7f172a50e436e2",
    "cournot-patient delta=0.9 theta=0.05": "3 iterations, max_iter, "
    "e7b19493bd76ac4302ee1579eb8ff539dc706104a17d088aa462f332a8c318d1",
    "pd delta=0.5 theta=0": "22 iterations, hausdorff_epsilon, "
    "79f35932500d0fd460d2d6194fa7117773c3abcf396ee97db3c0bfc0210ac316",
    "pd delta=0.9 theta=0": "12 iterations, truncated, "
    "ed40064724d5ffb8c48679dcf7968f4d1cc356b3f94a95aea1621b0b0626c88c",
}


def iterate_hash(report) -> str:
    h = hashlib.sha256()
    for t in report.trace:
        h.update(np.ascontiguousarray(t.vertices, dtype=np.float64).tobytes())
    return h.hexdigest()


def main() -> int:
    differ = []
    for name, game_file, delta, theta, max_iter in RUNS:
        game = parse_game((GAMES / game_file).read_text(encoding="utf-8"))
        report = solve(game, SolverConfig(delta=delta, theta=theta, max_iter=max_iter))
        line = f"{report.iterations} iterations, {report.stop_reason}, {iterate_hash(report)}"
        print(f"{name}: {line}", flush=True)
        if line != EXPECTED[name]:
            differ.append(name)
    for name in differ:
        print(f"differs from the expected line: {name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
