"""Known answers at delta > 0 that need no LP.

Each game is a literal here, with the payoffs of the shipped Prisoner's
Dilemma (C = cooperate, D = defect).  W0 is then conv{(0,0), (8/3,0),
(2,2), (0,8/3)} and (D,D) is the only static Nash profile.
"""

import numpy as np
import pytest

from ppesolve.aps import SolverConfig, apply_B, solve
from ppesolve.game import StageGame, individually_rational_set

from oracles import match_point_sets

PD_PAYOFFS = np.array([[[2, 2], [-1, 3]], [[3, -1], [0, 0]]], dtype=float)
PD_W0 = np.array([(0.0, 0.0), (8 / 3, 0.0), (2.0, 2.0), (0.0, 8 / 3)])
LABELS = (("C", "D"), ("C", "D"))


def pd_with_signals(signals, probs):
    return StageGame(LABELS, PD_PAYOFFS, signals, np.asarray(probs, dtype=float))


def mirrors_itself(vertices, eps):
    """The polygon equals its image under swapping the players."""
    v = np.asarray(vertices)
    return match_point_sets(v, v[:, ::-1], eps)


class TestUninformativeSignals:
    """Every profile draws the same signal distribution, so every
    deviation row is constant: only the static Nash profile (D,D) is
    enforceable, and B(W) = (1-delta)u(D,D) + delta W = delta W."""

    GAME = pd_with_signals(("y1", "y2"), np.tile([1 / 3, 2 / 3], (2, 2, 1)))

    @pytest.mark.parametrize("delta", [0.2, 0.5, 0.9])
    def test_collapses_to_nash_payoff(self, delta):
        rep = solve(self.GAME, SolverConfig(delta=delta))
        assert rep.converged and rep.stop_reason == "hausdorff_epsilon"
        assert np.all(np.linalg.norm(rep.final_set.vertices, axis=1) <= 1e-5)
        for t in rep.trace:
            assert match_point_sets(t.vertices, delta**t.iteration * PD_W0, 1e-9)
        for t in rep.trace[1:]:
            assert t.enforceable == {
                ("C", "C"): False,
                ("C", "D"): False,
                ("D", "C"): False,
                ("D", "D"): True,
            }


class TestPerfectMonitoring:
    """One signal per profile.  Grim trigger enforces (C,C) iff
    (1-delta)/delta <= 2, that is delta >= 1/3 (Mailath & Samuelson
    2006): W0 then generates itself, and below 1/3 only (0,0) is left."""

    GAME = pd_with_signals(("cc", "cd", "dc", "dd"), np.eye(4).reshape(2, 2, 4))

    @pytest.mark.parametrize("delta", [0.34, 0.5, 0.9])
    def test_individually_rational_set_is_self_generating(self, delta):
        w0 = individually_rational_set(self.GAME).individually_rational
        assert match_point_sets(w0.vertices, PD_W0, 1e-12)
        assert match_point_sets(apply_B(self.GAME, delta, w0).set.vertices, PD_W0, 1e-9)
        rep = solve(self.GAME, SolverConfig(delta=delta))
        assert rep.converged and rep.stop_reason == "area_epsilon"
        assert rep.iterations == 1

    @pytest.mark.parametrize("delta", [0.2, 0.33])
    def test_impatient_run_collapses(self, delta):
        rep = solve(self.GAME, SolverConfig(delta=delta))
        assert rep.converged and rep.stop_reason == "hausdorff_epsilon"
        assert np.all(np.linalg.norm(rep.final_set.vertices, axis=1) <= 1e-5)


class TestPlayerSwapSymmetry:
    """A game unchanged by swapping the players has mirror-symmetric
    iterates."""

    def test_exact_pd_iterates(self, pd_game):
        rep = solve(pd_game, SolverConfig(delta=0.9, max_iter=8))
        for t in rep.trace:
            assert mirrors_itself(t.vertices, rep.tolerances.eps), t.iteration

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_symmetric_games(self, n, seed):
        rng = np.random.default_rng(9000 + 10 * n + seed)
        a = rng.uniform(-4, 4, size=(n, n))
        probs = rng.dirichlet(np.ones(2), size=(n, n))
        labels = tuple("abc"[:n])
        game = StageGame(
            (labels, labels),
            np.stack([a, a.T], axis=-1),
            ("y1", "y2"),
            (probs + probs.transpose(1, 0, 2)) / 2,
        )
        rep = solve(game, SolverConfig(delta=0.8, max_iter=6))
        for t in rep.trace:
            assert mirrors_itself(t.vertices, rep.tolerances.eps), t.iteration

    @pytest.mark.xfail(
        strict=True,
        reason="rdp_simplify is not mirror-equivariant: on B(W_2) it drops "
        "(2.245, 1.045) and keeps its mirror (1.045, 2.245)",
    )
    def test_criterion_03_iterates(self, pd_game):
        rep = solve(pd_game, SolverConfig(delta=0.9, theta=0.02))
        for t in rep.trace:
            assert mirrors_itself(t.vertices, rep.tolerances.eps), t.iteration
