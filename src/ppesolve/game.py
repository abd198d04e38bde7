"""Stage game parsing and static analysis.

Game files are JSON; any number may instead be a string like "2/3",
parsed exactly before conversion to float.  Action and signal labels are
validated for uniqueness, action labels may not contain a comma,
probability rows must be nonnegative and sum to one within 1e-12 (then
renormalized), and the parser enforces the two-player small-game caps
(<= 3 actions per player, <= 4 signals).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .geometry import PolygonV, Tolerances, DEFAULT_TOL, convex_hull, intersect_halfplane

PROB_SUM_TOL = 1e-12
MAX_ACTIONS = 3
MAX_SIGNALS = 4


class GameFormatError(ValueError):
    """Malformed or invalid game file; message names the offending part."""


@dataclass(frozen=True)
class StageGame:
    action_labels: tuple  # (labels player 1, labels player 2)
    payoffs: np.ndarray  # (n1, n2, 2)
    signal_labels: tuple
    signal_probs: np.ndarray  # (n1, n2, S)

    def __post_init__(self):
        # results are keyed by profile label, one per profile
        for i, labels in enumerate(self.action_labels):
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate player {i + 1} action labels: {labels}")
        u = np.asarray(self.payoffs, dtype=float)
        rho = np.asarray(self.signal_probs, dtype=float)
        u.setflags(write=False)
        rho.setflags(write=False)
        object.__setattr__(self, "payoffs", u)
        object.__setattr__(self, "signal_probs", rho)

    @property
    def num_actions(self):
        return (len(self.action_labels[0]), len(self.action_labels[1]))

    @property
    def num_signals(self) -> int:
        return len(self.signal_labels)

    def profile_label(self, a) -> str:
        return f"({self.action_labels[0][a[0]]},{self.action_labels[1][a[1]]})"

    @property
    def payoff_magnitude(self) -> float:
        return float(np.max(np.abs(self.payoffs)))

    def profiles(self):
        n1, n2 = self.num_actions
        return [(i, j) for i in range(n1) for j in range(n2)]

    @cached_property  # it writes __dict__, which the frozen dataclass leaves open
    def profile_keys(self) -> tuple:
        """Each profile's pair of action labels, in `profiles()` order."""
        return tuple((self.action_labels[0][i], self.action_labels[1][j]) for i, j in self.profiles())


@dataclass(frozen=True)
class MinmaxPair:
    values: tuple  # (v1, v2)
    punishing_actions: tuple  # opponent action index minimizing each player's max


@dataclass(frozen=True)
class PayoffSetPair:
    feasible: PolygonV  # W*
    individually_rational: PolygonV  # W0

    @property
    def ir_empty(self) -> bool:
        return self.individually_rational.is_empty


def _num(x, where: str) -> float:
    if isinstance(x, bool):
        raise GameFormatError(f"{where}: expected a number, got a boolean")
    try:
        if isinstance(x, (int, float)):
            if not math.isfinite(x):
                raise GameFormatError(f"{where}: {x!r} is not a finite number")
            return float(x)
        if isinstance(x, str):
            try:
                return float(Fraction(x))
            except (ValueError, ZeroDivisionError) as exc:
                raise GameFormatError(f"{where}: bad rational literal {x!r}") from exc
    except OverflowError as exc:  # too large for a float
        raise GameFormatError(f"{where}: {x!r} is not a finite number") from exc
    raise GameFormatError(f"{where}: expected a number or 'p/q' string")


def _unique_labels(labels, what: str):
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise GameFormatError(f"{what} must be a list of strings")
    if len(set(labels)) != len(labels):
        raise GameFormatError(f"duplicate {what}: {labels}")
    return tuple(labels)


def parse_game(text: str) -> StageGame:
    """Parse and validate a UTF-8 game file."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise GameFormatError("top level must be a JSON object")
    for key in ("actions", "payoffs", "signals", "signal_probs"):
        if key not in data:
            raise GameFormatError(f"missing field {key!r}")

    actions = data["actions"]
    if not isinstance(actions, list) or len(actions) != 2:
        raise GameFormatError("'actions' must list two players' action labels")
    a1 = _unique_labels(actions[0], "player 1 action labels")
    a2 = _unique_labels(actions[1], "player 2 action labels")
    for label in a1 + a2:
        if "," in label:
            # report.json keys a profile by its labels joined with ","
            raise GameFormatError(f"action label {label!r} contains a comma")
    signals = _unique_labels(data["signals"], "signal labels")
    n1, n2, S = len(a1), len(a2), len(signals)
    if n1 == 0 or n2 == 0 or S == 0:
        raise GameFormatError("action and signal lists must be nonempty")
    if n1 > MAX_ACTIONS or n2 > MAX_ACTIONS:
        raise GameFormatError(f"more than {MAX_ACTIONS} actions per player")
    if S > MAX_SIGNALS:
        raise GameFormatError(f"more than {MAX_SIGNALS} signals")

    payoffs = np.zeros((n1, n2, 2))
    raw_u = data["payoffs"]
    if not isinstance(raw_u, list) or len(raw_u) != n1:
        raise GameFormatError("'payoffs' must have one row per player-1 action")
    for i in range(n1):
        row = raw_u[i]
        if not isinstance(row, list) or len(row) != n2:
            raise GameFormatError(f"payoff row for action {a1[i]!r} has wrong length")
        for j in range(n2):
            cell = row[j]
            where = f"payoffs at profile ({a1[i]},{a2[j]})"
            if not isinstance(cell, list) or len(cell) != 2:
                raise GameFormatError(f"{where}: expected a [u1,u2] pair")
            payoffs[i, j] = [_num(cell[0], where), _num(cell[1], where)]

    probs = np.zeros((n1, n2, S))
    raw_p = data["signal_probs"]
    if not isinstance(raw_p, list) or len(raw_p) != n1:
        raise GameFormatError("'signal_probs' must have one row per player-1 action")
    for i in range(n1):
        row = raw_p[i]
        if not isinstance(row, list) or len(row) != n2:
            raise GameFormatError(
                f"signal_probs row for action {a1[i]!r} has wrong length"
            )
        for j in range(n2):
            where = f"signal_probs at profile ({a1[i]},{a2[j]})"
            vec = row[j]
            if not isinstance(vec, list) or len(vec) != S:
                raise GameFormatError(f"{where}: expected {S} probabilities")
            p = np.array([_num(x, where) for x in vec])
            if np.any(p < 0):
                k = int(np.argmin(p))
                raise GameFormatError(
                    f"{where}: negative probability {p[k]!r} for signal "
                    f"{signals[k]!r}"
                )
            total = float(p.sum())
            if abs(total - 1.0) > PROB_SUM_TOL:
                raise GameFormatError(f"{where}: probabilities sum to {total!r}, not 1")
            probs[i, j] = p / total

    return StageGame((a1, a2), payoffs, signals, probs)


def serialize_game(game: StageGame) -> str:
    """Inverse of parse_game up to numeric formatting."""
    return json.dumps(
        {
            "actions": [list(game.action_labels[0]), list(game.action_labels[1])],
            "payoffs": game.payoffs.tolist(),
            "signals": list(game.signal_labels),
            "signal_probs": game.signal_probs.tolist(),
        },
        indent=2,
    )


def minmax(game: StageGame) -> MinmaxPair:
    """Pure-action minmax values and the minimizing opponent actions."""
    u1, u2 = game.payoffs[:, :, 0], game.payoffs[:, :, 1]
    best1 = u1.max(axis=0)  # player 1's best reply value per opponent column
    best2 = u2.max(axis=1)
    j_star = int(np.argmin(best1))
    i_star = int(np.argmin(best2))
    return MinmaxPair(
        (float(best1[j_star]), float(best2[i_star])), (j_star, i_star)
    )


def pure_nash(game: StageGame):
    """All pure profiles where neither player can gain more than eps,
    scaled to the game's payoff magnitude, by deviating."""
    u1, u2 = game.payoffs[:, :, 0], game.payoffs[:, :, 1]
    eps = DEFAULT_TOL.scaled(game.payoff_magnitude).eps
    out = []
    for i, j in game.profiles():
        if u1[i, j] >= u1[:, j].max() - eps and u2[i, j] >= u2[i, :].max() - eps:
            out.append((i, j))
    return out


def feasible_set(game: StageGame, tol: Tolerances = DEFAULT_TOL) -> PolygonV:
    """W*: convex hull of all pure stage payoff pairs."""
    return convex_hull(game.payoffs.reshape(-1, 2), tol)


def individually_rational_set(
    game: StageGame, tol: Tolerances = DEFAULT_TOL
) -> PayoffSetPair:
    """W0: W* cut down by both players' minmax halfplanes."""
    w_star = feasible_set(game, tol)
    v = minmax(game).values
    w0 = intersect_halfplane(w_star, (-1.0, 0.0), -v[0], tol)
    w0 = intersect_halfplane(w0, (0.0, -1.0), -v[1], tol)
    return PayoffSetPair(w_star, w0)
