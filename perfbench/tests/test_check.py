"""The independent check against a case solvable by hand.

At delta = 0 the continuation promises carry no weight, so B_a(W) is
{u(a)} when a is a pure stage-Nash profile and empty otherwise: B(W) is
the convex hull of the static pure-Nash payoffs for any W holding them.

Run with: python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from check import GameLP  # noqa: E402


def nash_payoffs(u):
    n1, n2 = u.shape[:2]
    return [u[i, j] for i in range(n1) for j in range(n2)
            if u[i, j, 0] == u[:, j, 0].max() and u[i, j, 1] == u[i, :, 1].max()]


def hull_ccw(points):
    """Andrew's monotone chain, counter-clockwise, collinear points dropped."""
    pts = sorted(map(tuple, points))
    if len(pts) <= 2:
        return np.array(pts)

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return np.array(half(pts) + half(pts[::-1]))


def random_games(n, count):
    rng = np.random.default_rng(n)
    made = 0
    while made < count:
        u = rng.normal(size=(n, n, 2)).round(3)
        if not nash_payoffs(u):
            continue
        rho = rng.dirichlet(np.ones(3), size=(n, n))
        made += 1
        yield u, rho


def box(u):
    lo, hi = u.reshape(-1, 2).min(axis=0) - 1, u.reshape(-1, 2).max(axis=0) + 1
    return np.array([lo, [hi[0], lo[1]], hi, [lo[0], hi[1]]])


@pytest.mark.parametrize("n", [2, 3])
def test_static_nash_hull_is_reproduced(n):
    for u, rho in random_games(n, 12):
        lp = GameLP(u, rho, 0.0)
        w = box(u)
        nash = hull_ccw(nash_payoffs(u))
        assert lp.check_application(w, nash) == []

        dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-0.6, 0.8], [-0.8, -0.6]])
        for a in lp.profiles:
            h = lp.support_in(a, w, dirs)
            if any(np.array_equal(u[a], p) for p in nash):
                assert h == pytest.approx(dirs @ u[a], abs=1e-9)
            else:
                assert h is None


@pytest.mark.parametrize("n", [2, 3])
def test_wrong_hulls_are_caught(n):
    for u, rho in random_games(n, 6):
        lp = GameLP(u, rho, 0.0)
        w = box(u)
        nash = nash_payoffs(u)
        others = [p for p in u.reshape(-1, 2)
                  if not any(np.array_equal(p, q) for q in nash)]
        grown = hull_ccw(nash + others[:1])
        if len(grown) > len(hull_ccw(nash)):
            kinds = {v.kind for v in lp.check_application(w, grown)}
            assert "outer" in kinds
        moved = hull_ccw(nash) + np.array([0.5, 0.0])
        kinds = {v.kind for v in lp.check_application(w, moved)}
        assert {"outer", "complete", "nash"} <= kinds
        kinds = {v.kind for v in lp.check_application(w, np.zeros((0, 2)))}
        assert kinds == {"complete", "nash"}


def test_distance_is_max_norm_to_a_single_nash_payoff():
    u = np.array([[[3.0, 3.0], [0.0, 4.0]], [[4.0, 0.0], [1.0, 1.0]]])
    rho = np.full((2, 2, 2), 0.5)
    lp = GameLP(u, rho, 0.0)
    assert lp.distance_to_B([1.0, 1.0], box(u)) == pytest.approx(0.0, abs=1e-9)
    assert lp.distance_to_B([1.5, 3.0], box(u)) == pytest.approx(2.0, abs=1e-9)
