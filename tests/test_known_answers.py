"""Known answers at delta > 0, derived by hand or from the payoffs and
signals alone.

Most games are literals here, with the payoffs of the shipped Prisoner's
Dilemma (C = cooperate, D = defect).  W0 is then conv{(0,0), (8/3,0),
(2,2), (0,8/3)} and (D,D) is the only static Nash profile.
"""

import numpy as np
import pytest

from ppesolve.aps import SolverConfig, apply_B, solve
from ppesolve.game import StageGame, individually_rational_set

from oracles import match_point_sets, profile_score, score_bound

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

    def test_criterion_03_iterates(self, pd_game):
        rep = solve(pd_game, SolverConfig(delta=0.9, theta=0.02))
        for t in rep.trace:
            assert mirrors_itself(t.vertices, rep.tolerances.eps), t.iteration


class TestScoreBound:
    """FLM's maximal score k*(lam) bounds every pure PPE payoff at every
    delta: lam . v <= k*(lam).  Derived from the payoffs and rho alone
    (`oracles.score_bound`), never from the solver.

    For the shipped PD and lam = (1,1)/sqrt2, write x(y) for the
    delta-free continuation units; each lam . x(y) <= 0.  At (C,D),
    player 1's move to D gains 1 and moves rho(ybar) from 1/2 to 1/4, so
    x1(ybar) - x1(ylow) >= 4; player 2's move to C loses 1, so
    x2(ybar) - x2(ylow) <= 6.  The transfer x(ybar) = (2,-2),
    x(ylow) = (-2,2) meets both with lam . x = 0, so (C,D) scores
    lam . u = 2/sqrt2 = sqrt2, the most lam . x <= 0 allows; (D,C) the
    same by symmetry.  At (C,C) each player's move to D gains 1 and
    moves rho(ybar) from 2/3 to 1/2, so each x_i spreads by 6 and
    lam . x(ylow) <= lam . x(ybar) - 6 sqrt2: the score is
    4/sqrt2 - (1/3) 6 sqrt2 = 0.  (D,D) is stage Nash and scores 0.
    So k* = sqrt2, and v1 + v2 <= 2 for every pure PPE payoff.
    """

    LAM = np.array([1.0, 1.0]) / np.sqrt(2.0)

    def test_pd_diagonal_score_is_root_two(self, pd_game):
        u, rho = pd_game.payoffs, pd_game.signal_probs
        assert score_bound(u, rho, self.LAM) == pytest.approx(np.sqrt(2.0), abs=1e-9)
        scores = {a: profile_score(u, rho, a, self.LAM) for a in np.ndindex(2, 2)}
        assert scores == pytest.approx({(0, 0): 0.0, (0, 1): np.sqrt(2.0), (1, 0): np.sqrt(2.0), (1, 1): 0.0}, abs=1e-9)

    def test_cournot_w0_lies_inside_q(self, cournot_game):
        w0 = individually_rational_set(cournot_game).individually_rational
        slack = 1e-9 * cournot_game.payoff_magnitude
        for t in 2 * np.pi * np.arange(64) / 64:
            lam = np.array([np.cos(t), np.sin(t)])
            k = score_bound(cournot_game.payoffs, cournot_game.signal_probs, lam)
            assert (w0.vertices @ lam).max() <= k + slack, t
