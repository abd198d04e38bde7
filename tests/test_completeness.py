"""P(a) is complete: it keeps every payoff the full 2S-dimensional problem
enforces, and neither folding unreachable signals out of it nor screening
its deviation rows over W^k changes it.

The reference is posed on the unfolded problem (continuations on every
signal block, all deviation rows) and solved as one LP per direction, so
it shares only the row builders with the shadow walk.
"""

import json

import numpy as np
import pytest
from scipy.optimize import linprog

from ppesolve import aps, parse_game
from ppesolve.aps import (
    Certificate,
    SolverConfig,
    _cutting_rows,
    _fold_unreachable_signals,
    _payoff_map,
    apply_B,
    enforceable_payoffs,
    ic_constraints,
    solve,
    verify_enforceability,
)
from ppesolve.game import StageGame, individually_rational_set
from ppesolve.geometry import PolygonV, Tolerances, area, contains_point, convex_hull, hausdorff
from ppesolve.shadow import shadow_polygon
from ppesolve.vertex_enum import enumerate_product, product_polytope

ANGLES = 2 * np.pi * (np.arange(32) + 0.25) / 32
DIRECTIONS = np.column_stack([np.cos(ANGLES), np.sin(ANGLES)])


def lp_support(game, a, delta, w):
    """Support values of the full-2S P(a) along DIRECTIONS; None if empty."""
    ic = ic_constraints(game, a, delta)
    if ic.infeasible:
        return None
    S = game.num_signals
    prod = product_polytope(w, S)
    A = np.vstack([prod.normals, ic.normals])
    b = np.concatenate([prod.offsets, ic.offsets])
    M, c = _payoff_map(game, a, delta)
    out = []
    for d in DIRECTIONS:
        res = linprog(-(d @ M), A_ub=A, b_ub=b, bounds=[(None, None)] * 2 * S, method="highs")
        if res.status == 2:
            return None
        assert res.status == 0, res.message
        out.append(-res.fun + d @ c)
    return np.array(out)


def assert_complete(game, delta, w, tol):
    """Every profile's P(a) reaches the LP support in every direction."""
    scale = max(1.0, game.payoff_magnitude)
    feasible = 0
    for a in game.profiles():
        p, _ = enforceable_payoffs(game, a, delta, w, tol)
        ref = lp_support(game, a, delta, w)
        if ref is None:
            continue
        feasible += 1
        assert not p.is_empty, f"P{a} is empty, the LP is feasible"
        gap = ref - (p.vertices @ DIRECTIONS.T).max(axis=0)
        assert gap.max() <= 1e-7 * scale, f"P{a} misses payoffs by {gap.max():.3g}"
    return feasible


def cournot_iterates(game, delta, iterations):
    rep = solve(game, SolverConfig(delta=delta, theta=0.0, max_iter=iterations))
    return [PolygonV(t.vertices) for t in rep.trace]


@pytest.fixture(scope="module")
def cournot_09_iterates(cournot_game):
    return cournot_iterates(cournot_game, 0.9, 4)


@pytest.fixture(scope="module")
def cournot_05_iterates(cournot_game):
    return cournot_iterates(cournot_game, 0.5, 8)


def sparse_support_case(seed):
    """A random 2x2 or 3x3 game whose signal distributions have zeros,
    with a full polygon, a segment and a point as continuation sets."""
    rng = np.random.default_rng(seed)
    n = 2 + seed % 2
    S = int(rng.integers(3, 5))
    probs = np.zeros((n, n, S))
    for i in range(n):
        for j in range(n):
            support = rng.choice(S, size=int(rng.integers(1, S)), replace=False)
            probs[i, j, support] = rng.dirichlet(np.ones(len(support)))
    labels = tuple(tuple(f"{p}{k}" for k in range(n)) for p in "ab")
    payoffs = rng.uniform(-4, 4, size=(n, n, 2))
    game = StageGame(labels, payoffs, tuple(f"y{k}" for k in range(S)), probs)
    poly = convex_hull(rng.uniform(-4, 4, size=(6, 2)))
    return game, [poly, PolygonV(poly.vertices[:2]), PolygonV(poly.vertices[:1])]


SPARSE_SEEDS = range(12)
SPARSE_DELTA = 0.8


class TestCompleteness:
    @pytest.mark.parametrize("k", range(5))
    def test_cournot_patient(self, cournot_game, cournot_09_iterates, k):
        tol = Tolerances().scaled(cournot_game.payoff_magnitude)
        assert assert_complete(cournot_game, 0.9, cournot_09_iterates[k], tol) > 0

    @pytest.mark.parametrize("k", range(9))
    def test_cournot_impatient(self, cournot_game, cournot_05_iterates, k):
        tol = Tolerances().scaled(cournot_game.payoff_magnitude)
        assert assert_complete(cournot_game, 0.5, cournot_05_iterates[k], tol) > 0

    @pytest.mark.parametrize("seed", SPARSE_SEEDS)
    def test_sparse_support_games(self, seed):
        game, ws = sparse_support_case(seed)
        tol = Tolerances().scaled(game.payoff_magnitude)
        feasible = sum(assert_complete(game, SPARSE_DELTA, w, tol) for w in ws)
        assert feasible > 0

    def test_roadmap_repro_payoffs_are_kept(self, cournot_game, cournot_09_iterates):
        # Cournot at delta 0.9 after two applications: the LP certifies
        # both payoffs, and a hull that dropped a vertex below an
        # ULP-shifted column missed them by 0.66 and 0.64
        w = cournot_09_iterates[2]
        assert w.num_vertices == 9
        tol = Tolerances().scaled(cournot_game.payoff_magnitude)
        res = apply_B(cournot_game, 0.9, w, 0.0, tol)
        for label, profile, v in ((("H", "M"), (2, 1), (1.5, 0.0)), (("H", "H"), (2, 2), (0.3, 0.7))):
            cert = verify_enforceability(cournot_game, profile, 0.9, v, w, tol)
            assert isinstance(cert, Certificate) and cert.max_violation <= 1e-12
            assert contains_point(res.per_action[label], v, 1e-9)


def fold_kinds(game, a):
    """For each signal `a` never emits: how many players' rows reach it."""
    rho = game.signal_probs[a[0], a[1]]
    ic = ic_constraints(game, a, SPARSE_DELTA)
    reached = (ic.normals.reshape(len(ic.offsets), -1, 2) != 0).any(axis=0)
    return [int(reached[y].sum()) for y in np.flatnonzero(rho == 0)]


class TestFold:
    def test_sparse_games_fire_every_case(self):
        games = [sparse_support_case(seed)[0] for seed in SPARSE_SEEDS]
        kinds = {k for g in games for a in g.profiles() for k in fold_kinds(g, a)}
        assert kinds == {0, 1, 2}  # dropped, folded, kept

    @pytest.mark.parametrize("seed", SPARSE_SEEDS)
    def test_matches_unfolded_enumeration(self, seed):
        game, ws = sparse_support_case(seed)
        tol = Tolerances().scaled(game.payoff_magnitude)
        compared = 0
        for w in ws:
            for a in game.profiles():
                p, _ = enforceable_payoffs(game, a, SPARSE_DELTA, w, tol)
                ic = ic_constraints(game, a, SPARSE_DELTA)
                if ic.infeasible:
                    assert p.is_empty
                    continue
                vs, _ = enumerate_product(w, game.num_signals, ic.normals, ic.offsets, tol)
                M, c = _payoff_map(game, a, SPARSE_DELTA)
                ref = convex_hull(vs.points @ M.T + c, tol)
                assert p.is_empty == ref.is_empty
                if not ref.is_empty:
                    compared += 1
                    assert hausdorff(p, ref) <= tol.eps
        assert compared > 0

    @staticmethod
    def blocks_walked(game, delta, monkeypatch):
        # one recorded call per profile: at W0 with delta 0.9 the row
        # screen settles no Cournot or PD profile, so each one is walked
        seen = []

        def recording(w, num_signals, *args):
            seen.append(num_signals)
            return shadow_polygon(w, num_signals, *args)

        monkeypatch.setattr(aps, "shadow_polygon", recording)
        w0 = individually_rational_set(game).individually_rational
        counts = {}
        for a in game.profiles():
            enforceable_payoffs(game, a, delta, w0)
            counts[game.profile_label(a)] = seen.pop()
        return counts

    def test_cournot_block_counts(self, cournot_game, monkeypatch):
        counts = self.blocks_walked(cournot_game, 0.9, monkeypatch)
        assert counts == {
            "(L,L)": 1, "(L,H)": 1, "(H,L)": 1, "(H,H)": 1,
            "(L,M)": 2, "(M,L)": 2, "(M,H)": 2, "(H,M)": 2,
            "(M,M)": 4,
        }

    def test_pd_keeps_every_block(self, pd_game, monkeypatch):
        counts = self.blocks_walked(pd_game, 0.9, monkeypatch)
        assert set(counts.values()) == {2}


def screen_branch(game, a, delta, w, tol):
    """Which way the row screen settles profile `a`, or None if infeasible."""
    ic = ic_constraints(game, a, delta)
    if ic.infeasible:
        return None
    kept, normals, offsets = _fold_unreachable_signals(game, a, ic, w)
    rows = _cutting_rows(w, len(kept), normals, offsets, tol)
    if rows is None:
        return "empty"
    if len(rows) == 0:
        return "no row left"
    return "rows dropped" if len(rows) < len(offsets) else "every row kept"


def assert_matches_unscreened(game, delta, ws, tol):
    """P(a) equals the hull of the image of the folded, unscreened
    enumeration, on every profile and every W in ws."""
    for w in ws:
        for a in game.profiles():
            p, _ = enforceable_payoffs(game, a, delta, w, tol)
            ic = ic_constraints(game, a, delta)
            if ic.infeasible:
                assert p.is_empty
                continue
            kept, normals, offsets = _fold_unreachable_signals(game, a, ic, w)
            vs, _ = enumerate_product(w, len(kept), normals, offsets, tol)
            M, c = _payoff_map(game, a, delta)
            cols = (2 * kept[:, None] + np.arange(2)).ravel()
            ref = convex_hull(vs.points @ M[:, cols].T + c, tol)
            assert p.is_empty == ref.is_empty, f"P{a}: screen and enumeration disagree"
            if not ref.is_empty:
                assert hausdorff(p, ref) <= 2 * tol.eps, f"P{a} moved"


def solve_iterates(game, delta, theta):
    rep = solve(game, SolverConfig(delta=delta, theta=theta))
    return [PolygonV(t.vertices) for t in rep.trace], rep.tolerances


@pytest.fixture(scope="module")
def collapse_iterates(cournot_game):
    return solve_iterates(cournot_game, 0.5, 0.0)  # the cournot-collapse benchmark


@pytest.fixture(scope="module")
def criterion_04_iterates(cournot_game):
    return solve_iterates(cournot_game, 0.9, 0.05)


class TestRowScreen:
    W = PolygonV(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))

    def test_cournot_collapse_iterates(self, cournot_game, collapse_iterates):
        assert_matches_unscreened(cournot_game, 0.5, *collapse_iterates)

    def test_criterion_04_iterates(self, cournot_game, criterion_04_iterates):
        assert_matches_unscreened(cournot_game, 0.9, *criterion_04_iterates)

    @pytest.mark.parametrize("seed", SPARSE_SEEDS)
    def test_sparse_support_games(self, seed):
        game, ws = sparse_support_case(seed)
        assert_matches_unscreened(game, SPARSE_DELTA, ws, Tolerances().scaled(game.payoff_magnitude))

    def test_every_branch_fires(self, cournot_game, collapse_iterates, criterion_04_iterates):
        cases = [(cournot_game, 0.5, *collapse_iterates), (cournot_game, 0.9, *criterion_04_iterates)]
        for seed in SPARSE_SEEDS:
            game, ws = sparse_support_case(seed)
            cases.append((game, SPARSE_DELTA, ws, Tolerances().scaled(game.payoff_magnitude)))
        branches = {
            screen_branch(game, a, delta, w, tol)
            for game, delta, ws, tol in cases
            for w in ws
            for a in game.profiles()
        }
        assert {"empty", "no row left", "rows dropped", "every row kept"} <= branches

    @staticmethod
    def one_row_game(gain):
        """Player 1 alone moves; deviating is detected and gains `gain`."""
        probs = np.array([[[0.9, 0.1]], [[0.1, 0.9]]])
        payoffs = np.array([[[0.0, 0.0]], [[gain, 0.0]]])
        return StageGame((("a0", "a1"), ("b",)), payoffs, ("y0", "y1"), probs)

    @pytest.fixture
    def no_walk(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the row screen should have settled this profile")

        monkeypatch.setattr(aps, "shadow_polygon", refuse)

    def test_row_minimum_above_offset_is_empty(self, no_walk):
        game = self.one_row_game(100.0)
        ic = ic_constraints(game, (0, 0), 0.5)
        assert len(ic.offsets) == 1
        lowest = sum((ic.normals[0].reshape(2, 2) @ self.W.vertices.T).min(axis=1))
        assert lowest > ic.offsets[0]
        p, pivots = enforceable_payoffs(game, (0, 0), 0.5, self.W)
        assert p.is_empty and pivots == 0

    def test_all_slack_profile_is_discounted_stage_payoff_plus_w(self, no_walk):
        game = self.one_row_game(-100.0)
        delta = 0.5
        scale = max(1.0, game.payoff_magnitude)
        p, pivots = enforceable_payoffs(game, (0, 0), delta, self.W)
        expected = convex_hull((1 - delta) * game.payoffs[0, 0] + delta * self.W.vertices)
        assert pivots == 0 and p.num_vertices == 4
        assert hausdorff(p, expected) <= 1e-12 * scale
        assert abs(area(p) - delta**2) <= 1e-12 * scale

    # profiles with no deviation row and a signal they never emit: the
    # 1x1 game has one profile; in the 2x1 game player 1's deviation at
    # (B, C) loses and emits the same signal, so ic_constraints drops it
    ROW_FREE_GAMES = {
        "1x1": ({"actions": [["A"], ["B"]], "payoffs": [[[-1, 2]]],
                 "signals": ["y0", "y1"], "signal_probs": [[[0, 1]]]}, (0, 0), (-1.0, 2.0)),
        "2x1": ({"actions": [["A", "B"], ["C"]], "payoffs": [[[1, 2]], [[3, 3]]],
                 "signals": ["y", "z"], "signal_probs": [[[1, 0]], [[1, 0]]]}, (1, 0), (3.0, 3.0)),
    }

    @pytest.mark.parametrize("name", ROW_FREE_GAMES)
    def test_row_free_profile_is_discounted_stage_payoff_plus_w(self, name, no_walk):
        spec, a, _ = self.ROW_FREE_GAMES[name]
        game = parse_game(json.dumps(spec))
        delta = 0.3
        assert len(ic_constraints(game, a, delta).offsets) == 0
        scale = max(1.0, game.payoff_magnitude)
        for w in (self.W, individually_rational_set(game).individually_rational):
            p, pivots = enforceable_payoffs(game, a, delta, w)
            expected = convex_hull((1 - delta) * game.payoffs[a] + delta * w.vertices)
            assert pivots == 0 and not p.is_empty
            assert hausdorff(p, expected) <= 1e-12 * scale

    @pytest.mark.parametrize("name", ROW_FREE_GAMES)
    def test_row_free_profile_solves(self, name):
        spec, _, point = self.ROW_FREE_GAMES[name]
        rep = solve(parse_game(json.dumps(spec)), SolverConfig(delta=0.3))
        assert rep.stop_reason == "hausdorff_epsilon"
        assert np.abs(rep.final_set.vertices - point).max() <= rep.tolerances.eps
