"""P(a) is complete: it keeps every payoff the full 2S-dimensional problem
enforces, and folding unreachable signals out of it does not change it.
P(a) is also empty whenever that problem is infeasible by more than the
LP's own tolerance, which the shadow walk's dual-simplex phase alone
decides; and the closed form for rows that hold on the diagonal of W^k
matches the walk on the same compiled system.

The reference is posed on the unfolded problem (continuations on every
signal block, all deviation rows) and solved as one LP per direction, or
one LP for the least uniform relaxation of its rows.  Its deviation rows
come from `oracles.deviation_rows`, posed from the payoffs, the signal
probabilities and delta alone, so it shares only `halfspace_rows`, W's
own rows, with the solver.
"""

import json

import numpy as np
import pytest
from scipy.optimize import linprog

from ppesolve import aps, parse_game
from ppesolve.aps import (
    Certificate,
    SolverConfig,
    apply_B,
    compile_profile,
    enforceable_payoffs,
    solve,
    verify_enforceability,
)
from ppesolve.game import StageGame, individually_rational_set
from ppesolve.geometry import (
    PolygonV,
    Tolerances,
    area,
    contains_point,
    convex_hull,
    halfspace_rows,
    hausdorff,
)
from ppesolve.shadow import shadow_polygon

from oracles import byte_equal, deviation_rows, product_rows
from test_aps import payoffs

ANGLES = 2 * np.pi * (np.arange(32) + 0.25) / 32
DIRECTIONS = np.column_stack([np.cos(ANGLES), np.sin(ANGLES)])


def game_rows(game, a, delta):
    """The deviation rows of profile `a`, from the oracle."""
    return deviation_rows(game.payoffs, game.signal_probs, a, delta)


def unfolded_rows(game, a, delta, w):
    """W's rows on every signal block, then the deviation rows, as (A, b)."""
    dev_normals, dev_offsets = game_rows(game, a, delta)
    normals, offsets = product_rows(*halfspace_rows(w), game.num_signals)
    return np.vstack([normals, dev_normals]), np.concatenate([offsets, dev_offsets])


def least_relaxation(game, a, delta, w):
    """The least t >= 0 for which A x <= b + t has a solution: how far the
    unfolded problem is from feasible.  Every row has unit length but
    the zero row of a deviation that keeps `a`'s signal distribution,
    which needs t >= -b."""
    A, b = unfolded_rows(game, a, delta, w)
    obj = np.zeros(A.shape[1] + 1)
    obj[-1] = 1.0
    bounds = [(None, None)] * A.shape[1] + [(0, None)]
    res = linprog(obj, A_ub=np.hstack([A, -np.ones((len(b), 1))]), b_ub=b, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return res.fun


def lp_support(game, a, delta, w):
    """Support values of the full-2S P(a) along DIRECTIONS; None if empty."""
    S = game.num_signals
    A, b = unfolded_rows(game, a, delta, w)
    M = np.kron(delta * game.signal_probs[a], np.eye(2))
    c = (1.0 - delta) * game.payoffs[a]
    out = []
    for d in DIRECTIONS:
        res = linprog(-(d @ M), A_ub=A, b_ub=b, bounds=[(None, None)] * 2 * S, method="highs")
        if res.status == 2:
            return None
        assert res.status == 0, res.message
        out.append(-res.fun + d @ c)
    return np.array(out)


def assert_empty_when_infeasible(game, a, delta, w, p):
    """P(a) is empty when the unfolded problem needs its rows relaxed by
    more than 1e-7 * scale; returns whether it did.  Closer to the
    boundary, the LP's tolerance cannot tell, and nothing is asserted."""
    t = least_relaxation(game, a, delta, w)
    if t <= 1e-7 * max(1.0, game.payoff_magnitude):
        return False
    assert p.is_empty, f"P{a} is not empty, the LP needs its rows relaxed by {t:.3g}"
    return True


def assert_complete(game, delta, w, tol):
    """Every profile's P(a) reaches the LP support in every direction,
    and is empty when the LP is infeasible by more than its tolerance."""
    scale = max(1.0, game.payoff_magnitude)
    feasible = 0
    for a in game.profiles():
        p, _ = payoffs(game, a, delta, w, tol)
        ref = lp_support(game, a, delta, w)
        if ref is None:
            assert_empty_when_infeasible(game, a, delta, w, p)
            continue
        feasible += 1
        assert not p.is_empty, f"P{a} is empty, the LP is feasible"
        gap = ref - (p.vertices @ DIRECTIONS.T).max(axis=0)
        assert gap.max() <= 1e-7 * scale, f"P{a} misses payoffs by {gap.max():.3g}"
    return feasible


def iterates(pinned_runs, name):
    """A pinned run's iterates as polygons, and its tolerances."""
    report, _ = pinned_runs[name]
    return [PolygonV(t.vertices) for t in report.trace], report.tolerances


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
    def test_cournot_patient(self, cournot_game, pinned_runs, k):
        ws, tol = iterates(pinned_runs, "cournot delta=0.9 theta=0")
        assert assert_complete(cournot_game, 0.9, ws[k], tol) > 0

    @pytest.mark.parametrize("k", range(9))
    def test_cournot_impatient(self, cournot_game, pinned_runs, k):
        ws, tol = iterates(pinned_runs, "cournot delta=0.5 theta=0")
        assert assert_complete(cournot_game, 0.5, ws[k], tol) > 0

    @pytest.mark.parametrize("seed", SPARSE_SEEDS)
    def test_sparse_support_games(self, seed):
        game, ws = sparse_support_case(seed)
        tol = Tolerances().scaled(game.payoff_magnitude)
        feasible = sum(assert_complete(game, SPARSE_DELTA, w, tol) for w in ws)
        assert feasible > 0

    def test_roadmap_repro_payoffs_are_kept(self, cournot_game, pinned_runs):
        # Cournot at delta 0.9 after two applications: the LP certifies
        # both payoffs, and a hull that dropped a vertex below an
        # ULP-shifted column missed them by 0.66 and 0.64
        ws, tol = iterates(pinned_runs, "cournot delta=0.9 theta=0")
        w = ws[2]
        assert w.num_vertices == 9
        res = apply_B(cournot_game, 0.9, w, 0.0, tol)
        for label, profile, v in ((("H", "M"), (2, 1), (1.5, 0.0)), (("H", "H"), (2, 2), (0.3, 0.7))):
            cert = verify_enforceability(cournot_game, profile, 0.9, v, w)
            assert isinstance(cert, Certificate) and cert.max_violation <= 1e-12
            assert contains_point(res.per_action[label], v, 1e-9)


class TestEmptiness:
    """On every iterate of the benchmark runs, P(a) is empty exactly for
    the profiles that the LP finds infeasible by more than its tolerance:
    every such profile, on cournot-collapse 239 of 333 (iterate,
    profile) pairs, and none on the other two runs."""

    @pytest.mark.parametrize(
        "game_name, name, empty",
        [("pd_game", "pd delta=0.9 theta=0.02", 0), ("cournot_game", "cournot delta=0.5 theta=0", 239),
         ("cournot_game", "cournot-patient delta=0.9 theta=0.05", 0)],
        ids=["pd-patient", "cournot-collapse", "cournot-patient"],
    )
    def test_benchmark_iterates(self, request, pinned_runs, game_name, name, empty):
        game = request.getfixturevalue(game_name)
        delta = pinned_runs[name][0].config.delta
        ws, tol = iterates(pinned_runs, name)
        required = found = 0
        for w in ws:
            for a in game.profiles():
                p, _ = payoffs(game, a, delta, w, tol)
                required += assert_empty_when_infeasible(game, a, delta, w, p)
                found += p.is_empty
        assert required == found == empty


def fold_kinds(game, a):
    """For each signal `a` never emits: how many players' rows reach it."""
    rho = game.signal_probs[a[0], a[1]]
    normals, _ = game_rows(game, a, SPARSE_DELTA)
    reached = (normals.reshape(len(normals), -1, 2) != 0).any(axis=0)
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
                p, _ = payoffs(game, a, SPARSE_DELTA, w, tol)
                normals, offsets = game_rows(game, a, SPARSE_DELTA)
                zero = ~normals.any(axis=1)
                if (offsets[zero] < 0).any():  # a same-signal deviation gains
                    assert p.is_empty
                    continue
                weights = SPARSE_DELTA * game.signal_probs[a]
                c = (1.0 - SPARSE_DELTA) * game.payoffs[a]
                ref, _ = shadow_polygon(w, weights, normals[~zero], offsets[~zero], c, tol)
                assert p.is_empty == ref.is_empty
                if not ref.is_empty:
                    compared += 1
                    assert hausdorff(p, ref) <= tol.eps
        assert compared > 0

    @pytest.mark.parametrize("seed", SPARSE_SEEDS)
    def test_compiled_system_follows_w(self, seed):
        """One compiled system serves two W whose lowest payoffs differ,
        giving byte for byte what a system compiled afresh gives on each."""
        game, ws = sparse_support_case(seed)
        tol = Tolerances().scaled(game.payoff_magnitude)
        w1 = ws[0]
        w2 = PolygonV(w1.vertices * 0.5 + (0.75, -1.25))
        for a in game.profiles():
            system = compile_profile(game, a, SPARSE_DELTA)
            if system is None or 1 not in fold_kinds(game, a):
                continue  # infeasible, or no signal folds
            assert not np.array_equal(system.offsets(w1), system.offsets(w2))
            for w in (w1, w2):
                got, pivots = enforceable_payoffs(system, w, tol)
                fresh, fresh_pivots = payoffs(game, a, SPARSE_DELTA, w, tol)
                assert byte_equal(got, fresh) and pivots == fresh_pivots

    @staticmethod
    def blocks_kept(game, delta):
        return {game.profile_label(a): len(compile_profile(game, a, delta).weights) for a in game.profiles()}

    def test_cournot_block_counts(self, cournot_game):
        counts = self.blocks_kept(cournot_game, 0.9)
        assert counts == {
            "(L,L)": 1, "(L,H)": 1, "(H,L)": 1, "(H,H)": 1,
            "(L,M)": 2, "(M,L)": 2, "(M,H)": 2, "(H,M)": 2,
            "(M,M)": 4,
        }

    def test_pd_keeps_every_block(self, pd_game):
        counts = self.blocks_kept(pd_game, 0.9)
        assert set(counts.values()) == {2}


def assert_closed_form_matches_walk(game, delta, ws, tol, walks):
    """Where the closed form settles P(a), on any profile and any W in
    ws, the walk on the same compiled system finds the same polygon.
    Returns how many (profile, W) pairs the closed form settled."""
    settled = 0
    for w in ws:
        for a in game.profiles():
            system = compile_profile(game, a, delta)
            if system is None:
                continue
            walks.clear()
            p, _ = enforceable_payoffs(system, w, tol)
            if walks:
                continue
            ref, _ = shadow_polygon(w, system.weights, system.normals, system.offsets(w), system.c, tol)
            assert not ref.is_empty, f"P{a}: the walk finds it empty"
            assert hausdorff(p, ref) <= 2 * tol.eps, f"P{a} moved"
            settled += 1
    return settled


class TestClosedForm:
    """P(a) = (1-delta) u(a) + delta W where every row holds on the
    diagonal of W^k: against the walk on the solver's runs and sparse
    games, and on one-row and row-free games."""

    W = PolygonV(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))

    def test_cournot_collapse_iterates(self, cournot_game, pinned_runs, walks):
        ws, tol = iterates(pinned_runs, "cournot delta=0.5 theta=0")  # the cournot-collapse benchmark
        assert assert_closed_form_matches_walk(cournot_game, 0.5, ws, tol, walks) > 0

    def test_criterion_04_iterates(self, cournot_game, pinned_runs, walks):
        ws, tol = iterates(pinned_runs, "cournot delta=0.9 theta=0.05")
        assert assert_closed_form_matches_walk(cournot_game, 0.9, ws, tol, walks) > 0

    @pytest.mark.parametrize("seed", SPARSE_SEEDS)
    def test_sparse_support_games(self, seed, walks):
        game, ws = sparse_support_case(seed)
        tol = Tolerances().scaled(game.payoff_magnitude)
        # seeds 3 and 9 have no profile the closed form settles
        assert_closed_form_matches_walk(game, SPARSE_DELTA, ws, tol, walks)

    @staticmethod
    def one_row_game(gain):
        """Player 1 alone moves; deviating is detected and gains `gain`."""
        probs = np.array([[[0.9, 0.1]], [[0.1, 0.9]]])
        payoffs = np.array([[[0.0, 0.0]], [[gain, 0.0]]])
        return StageGame((("a0", "a1"), ("b",)), payoffs, ("y0", "y1"), probs)

    @pytest.fixture
    def no_walk(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the closed form should have settled this profile")

        monkeypatch.setattr(aps, "shadow_polygon", refuse)

    def test_row_minimum_above_offset_is_empty(self):
        game = self.one_row_game(100.0)
        normals, offsets = game_rows(game, (0, 0), 0.5)
        assert len(offsets) == 1
        lowest = sum((normals[0].reshape(2, 2) @ self.W.vertices.T).min(axis=1))
        assert lowest > offsets[0]
        p, _ = payoffs(game, (0, 0), 0.5, self.W)
        assert p.is_empty

    def test_all_slack_profile_is_discounted_stage_payoff_plus_w(self, no_walk):
        game = self.one_row_game(-100.0)
        delta = 0.5
        scale = max(1.0, game.payoff_magnitude)
        p, pivots = payoffs(game, (0, 0), delta, self.W)
        expected = convex_hull((1 - delta) * game.payoffs[0, 0] + delta * self.W.vertices)
        assert pivots == 0 and p.num_vertices == 4
        assert hausdorff(p, expected) <= 1e-12 * scale
        assert abs(area(p) - delta**2) <= 1e-12 * scale

    # profiles with no deviation row and a signal they never emit: the
    # 1x1 game has one profile; in the 2x1 game player 1's deviation at
    # (B, C) loses and emits the same signal, so its row is zero
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
        normals, offsets = game_rows(game, a, delta)
        assert not normals.any() and (offsets >= 0).all()
        scale = max(1.0, game.payoff_magnitude)
        for w in (self.W, individually_rational_set(game).individually_rational):
            p, pivots = payoffs(game, a, delta, w)
            expected = convex_hull((1 - delta) * game.payoffs[a] + delta * w.vertices)
            assert pivots == 0 and not p.is_empty
            assert hausdorff(p, expected) <= 1e-12 * scale

    @pytest.mark.parametrize("name", ROW_FREE_GAMES)
    def test_row_free_profile_solves(self, name):
        spec, _, point = self.ROW_FREE_GAMES[name]
        rep = solve(parse_game(json.dumps(spec)), SolverConfig(delta=0.3))
        assert rep.stop_reason == "hausdorff_epsilon"
        assert np.abs(rep.final_set.vertices - point).max() <= rep.tolerances.eps
