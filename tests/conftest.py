import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ppesolve import parse_game

from iterate_hashes import RUNS, solve_run

ROOT = Path(__file__).resolve().parents[1]
GAMES = ROOT / "games"

# tests that start `python3 -m ppesolve.cli` import the package from src/
# as well, whether or not it is installed
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
)


@pytest.fixture(scope="session")
def pd_game():
    return parse_game((GAMES / "prisoners_dilemma.json").read_text())


@pytest.fixture(scope="session")
def cournot_game():
    return parse_game((GAMES / "cournot.json").read_text())


@pytest.fixture(scope="session")
def pd_game_path():
    return GAMES / "prisoners_dilemma.json"


@pytest.fixture(scope="session")
def cournot_game_path():
    return GAMES / "cournot.json"


@pytest.fixture(scope="session")
def pinned_runs():
    """Every run of `iterate_hashes.RUNS`, solved once per session:
    name -> report."""
    return {name: solve_run(*run) for name, *run in RUNS}
