"""Set-up cost in a fresh interpreter: import, parse, W0.

Usage: python3 perfbench/setup_probe.py GAME_FILE
Prints one JSON object with the seconds spent in each phase.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import ppesolve  # noqa: E402

t1 = time.perf_counter()
game = ppesolve.parse_game(Path(sys.argv[1]).read_text(encoding="utf-8"))
t2 = time.perf_counter()
w0 = ppesolve.individually_rational_set(game).individually_rational
t3 = time.perf_counter()
print(json.dumps({
    "setup.import_s": t1 - t0,
    "game.parse_game_s": t2 - t1,
    "game.individually_rational_set_s": t3 - t2,
    "w0_vertices": w0.num_vertices,
}))
