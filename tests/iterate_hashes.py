"""Fingerprints of five pinned solves, to check that a change keeps every iterate.

Run from the repository root:

    PYTHONPATH=src python3 tests/iterate_hashes.py

Each line gives a run, its iteration count, its stop reason, and the
SHA-256 over the C-contiguous float64 bytes of every `trace[k].vertices`,
in order from k = 0.  Two trees that print the same lines produced
bit-identical iterates.  After printing, the script names each run whose
line differs from EXPECTED and exits 1; a change that means to move an
iterate updates EXPECTED in the same commit.  The five runs take about
9 s together on a 2-CPU machine, 8 s of it in the exact PD run (44
applications, with iterates of up to 1,234 vertices).  The file is not
collected by pytest.
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
    "64e566cbc41cd1727f578b1a4a690e98c5b97b249b78656939ed0ab927e14c8e",
    "cournot delta=0.5 theta=0": "36 iterations, hausdorff_epsilon, "
    "802430620d8d9f0173e9117e0d7e61c772389ce08842aa8fd730e394611ec0b5",
    "cournot-patient delta=0.9 theta=0.05": "3 iterations, max_iter, "
    "8693729fff2af35d1f39d4e218801373d8b69912d0eec7a96280975aec6b3e0f",
    "pd delta=0.5 theta=0": "22 iterations, hausdorff_epsilon, "
    "79f35932500d0fd460d2d6194fa7117773c3abcf396ee97db3c0bfc0210ac316",
    "pd delta=0.9 theta=0": "44 iterations, area_epsilon, "
    "c97fee9d550e729a426a2ba5887f38dbe1c564fe1170f6f02824dfaaff0da318",
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
