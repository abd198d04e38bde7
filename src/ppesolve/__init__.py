"""Equilibrium payoff set computation for two-player repeated games
with imperfect public monitoring and public randomization.

Exports the documented API; internals are imported from their modules.
"""

from .aps import Report, SolverConfig, solve, verify_enforceability
from .game import GameFormatError, StageGame, individually_rational_set, parse_game
from .geometry import PolygonV

__version__ = "0.1.0"

__all__ = [
    "GameFormatError",
    "PolygonV",
    "Report",
    "SolverConfig",
    "StageGame",
    "individually_rational_set",
    "parse_game",
    "solve",
    "verify_enforceability",
]
