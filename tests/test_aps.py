import numpy as np
import pytest

from ppesolve import aps, parse_game
from ppesolve.aps import (
    Certificate,
    Refusal,
    SolverConfig,
    apply_B,
    compile_profile,
    enforceable_payoffs,
    solve,
    verify_enforceability,
)
from ppesolve.game import StageGame, individually_rational_set, pure_nash
from ppesolve.geometry import (
    DEFAULT_TOL,
    PolygonV,
    Tolerances,
    area,
    contains_point,
    contains_polygon,
    convex_hull,
    hausdorff,
    intersect_polygons,
    _dists_to_polygon,
)

from iterate_hashes import EXPECTED, GAMES, RUNS, report_line
from oracles import byte_equal, match_point_sets
from test_shadow import reference

CC, CD, DC, DD = (0, 0), (0, 1), (1, 0), (1, 1)
STOP_REASONS = {"area_epsilon", "hausdorff_epsilon", "max_iter", "empty_set"}
# the pinned runs whose applications are replayed from their traces, by
# test id; exact PD is left out, as replaying it costs a second solve of
# several seconds
REPLAYED = {
    "pd theta=0.02": "pd delta=0.9 theta=0.02",
    "cournot-collapse": "cournot delta=0.5 theta=0",
    "cournot-patient": "cournot-patient delta=0.9 theta=0.05",
    **{name: name for name in ("pd delta=0.5 theta=0", "cournot delta=0.9 theta=0.05", "cournot delta=0.9 theta=0")},
}


def replayed(pinned_runs, run):
    """The game and the pinned report of a replayed run."""
    name = REPLAYED[run]
    game_file = next(file for run_name, file, *_ in RUNS if run_name == name)
    return parse_game((GAMES / game_file).read_text()), pinned_runs[name]


def payoffs(game, a, delta, w, tol=DEFAULT_TOL):
    """P(a) against w from a freshly compiled system; an infeasible
    profile compiles to None, and its P(a) is empty."""
    system = aps.compile_profile(game, a, delta)
    return (PolygonV.empty(), None) if system is None else enforceable_payoffs(system, w, tol)


@pytest.fixture(scope="module")
def pd_w0(pd_game):
    return individually_rational_set(pd_game).individually_rational


def random_2x2_game(rng):
    payoffs = rng.uniform(-4, 4, size=(2, 2, 2))
    probs = rng.dirichlet(np.ones(2), size=(2, 2))
    return StageGame((("a0", "a1"), ("b0", "b1")), payoffs, ("y1", "y2"), probs)


def random_small_game(rng):
    """1-3 actions per player, 1-4 signals, about 40% of the signal
    probabilities zero, integer payoffs in [-3, 3]."""
    n1, n2 = (int(k) for k in rng.integers(1, 4, size=2))
    S = int(rng.integers(1, 5))
    probs = rng.random((n1, n2, S)) * (rng.random((n1, n2, S)) >= 0.4)
    probs[probs.sum(axis=2) == 0, rng.integers(S)] = 1.0
    probs /= probs.sum(axis=2, keepdims=True)
    labels = (tuple(f"a{k}" for k in range(n1)), tuple(f"b{k}" for k in range(n2)))
    payoffs = rng.integers(-3, 4, size=(n1, n2, 2))
    return StageGame(labels, payoffs, tuple(f"y{k}" for k in range(S)), probs)


class TestIcConstraints:
    """The deviation rows `compile_profile` poses, over continuation space."""

    @pytest.mark.parametrize("delta", [0.3, 0.8, 0.9])
    def test_mutual_cooperation_rows(self, pd_game, pd_w0, delta):
        system = compile_profile(pd_game, CC, delta)
        assert system is not None and len(system.weights) == 2
        assert np.allclose(np.linalg.norm(system.normals, axis=1), 1.0)
        # one row per player, on that player's coordinates only
        players = [set(np.flatnonzero(n) % 2) for n in system.normals]
        assert players == [{0}, {1}]
        # each row must agree with delta/6 * (g_i(y1) - g_i(y2)) >= 1 - delta
        rng = np.random.default_rng(0)
        for i, n, b in zip((0, 1), system.normals, system.offsets(pd_w0)):
            for g in rng.uniform(-10, 10, size=(200, 4)):
                lhs_ok = delta / 6 * (g[0 + i] - g[2 + i]) >= (1 - delta)
                row_ok = n @ g <= b
                assert lhs_ok == row_ok or abs(n @ g - b) < 1e-9

    def test_undetectable_profitable_deviation_is_infeasible(self, pd_game):
        assert compile_profile(pd_game, CC, 0.0) is None

    def test_vacuous_rows_dropped(self, pd_game, pd_w0):
        # deviating from mutual defection never pays, and at delta=0 the
        # signal term vanishes, so no rows survive
        system = compile_profile(pd_game, DD, 0.0)
        assert system is not None
        assert len(system.normals) == len(system.offsets(pd_w0)) == 0
        # the diagonal rows take k from the weights, and the closed form holds
        assert system.diagonal.shape == (0, 2)
        p, pivots = enforceable_payoffs(system, pd_w0)
        assert pivots is None and p.vertices.tolist() == [[0.0, 0.0]]

    def test_cournot_row_count(self, cournot_game):
        system = compile_profile(cournot_game, (0, 0), 0.9)
        w = individually_rational_set(cournot_game).individually_rational
        assert len(system.offsets(w)) == 4  # two deviations per player
        # over the kept blocks: (L, L) keeps one of the four signals
        assert system.normals.shape == (4, 2 * len(system.weights)) == (4, 2)


class TestEnforceablePayoffs:
    def test_cooperation_region_at_delta_09(self, pd_game, pd_w0):
        p, pivots = payoffs(pd_game, CC, 0.9, pd_w0)
        assert pivots > 0  # both deviation rows cut W^2, so the walk runs
        assert match_point_sets(
            p.vertices,
            [(0.6, 0.6), (2.2, 0.6), (1.8, 1.8), (0.6, 2.2)],
            1e-7,
        )

    def test_static_nash_value_always_enforceable(self, pd_game, pd_w0):
        for delta in (0.0, 0.5, 0.9):
            p, _ = payoffs(pd_game, DD, delta, pd_w0)
            assert contains_point(p, (0.0, 0.0), 1e-9)

    def test_empty_continuation_set_gives_empty(self, pd_game):
        from ppesolve.geometry import PolygonV

        p, pivots = enforceable_payoffs(aps.compile_profile(pd_game, CC, 0.9), PolygonV.empty())
        assert p.is_empty and pivots is None

    @pytest.mark.parametrize("profile", [CC, CD, DC, DD])
    def test_vertices_carry_certificates(self, pd_game, pd_w0, profile):
        p, _ = payoffs(pd_game, profile, 0.9, pd_w0)
        if p.is_empty:
            pytest.skip("profile not enforceable")
        for v in p.vertices:
            out = verify_enforceability(pd_game, profile, 0.9, v, pd_w0)
            assert isinstance(out, Certificate)
            assert out.max_violation <= 1e-7
            for gamma in out.gamma:
                assert contains_point(pd_w0, gamma, 1e-7)

    def test_contained_in_decomposition_region(self, pd_game, pd_w0):
        # every point of P(a) is (1-d) u(a) + d gamma-bar with gamma-bar in W
        delta = 0.9
        for profile in (CC, CD, DC, DD):
            p, _ = payoffs(pd_game, profile, delta, pd_w0)
            u = pd_game.payoffs[profile]
            for v in p.vertices:
                gamma_bar = (v - (1 - delta) * u) / delta
                assert contains_point(pd_w0, gamma_bar, 1e-7)


class TestVerifyEnforceability:
    def test_refuses_point_outside(self, pd_game, pd_w0):
        out = verify_enforceability(pd_game, CC, 0.9, (2.5, 2.5), pd_w0)
        assert isinstance(out, Refusal)
        assert out.violation > 1e-6
        assert "deviation" in out.row or "continuation" in out.row

    def test_refuses_undetectable_deviation(self, pd_game, pd_w0):
        out = verify_enforceability(pd_game, CC, 0.0, (2.0, 2.0), pd_w0)
        assert isinstance(out, Refusal)
        assert out.violation == float("inf")

    def test_refuses_undetectable_deviation_when_patient(self):
        # player 1's deviation to a1 emits (a0, b)'s own signal
        # distribution and gains 1, so at delta 0.9 no gamma deters it
        probs = np.array([[[0.5, 0.5]], [[0.5, 0.5]]])
        payoffs = np.array([[[0.0, 0.0]], [[1.0, 0.0]]])
        game = StageGame((("a0", "a1"), ("b",)), payoffs, ("y0", "y1"), probs)
        w = PolygonV(np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]))
        out = verify_enforceability(game, (0, 0), 0.9, (0.0, 0.0), w)
        assert isinstance(out, Refusal)
        assert out.violation == float("inf")

    def test_refuses_empty_continuation_set(self, pd_game):
        out = verify_enforceability(pd_game, DD, 0.9, (0.0, 0.0), PolygonV.empty())
        assert out == Refusal("the continuation set is empty", float("inf"))

    def test_does_not_use_the_solve_path(self, pd_game, pd_w0, monkeypatch):
        """The certificate poses its own rows: it certifies the vertices
        of P(C, C) with the solver's row builder and walk unavailable."""
        p, _ = payoffs(pd_game, CC, 0.9, pd_w0)
        assert p.num_vertices == 4

        def refuse(*args, **kwargs):
            raise AssertionError("the certificate called into the solve path")

        monkeypatch.setattr(aps, "compile_profile", refuse)
        monkeypatch.setattr(aps, "shadow_polygon", refuse)
        for v in p.vertices:
            out = verify_enforceability(pd_game, CC, 0.9, v, pd_w0)
            assert isinstance(out, Certificate) and out.max_violation <= 1e-7

    def test_certificate_reconstructs_value(self, pd_game, pd_w0):
        delta = 0.9
        out = verify_enforceability(pd_game, CC, delta, (1.8, 1.8), pd_w0)
        assert isinstance(out, Certificate)
        rho = pd_game.signal_probs[0, 0]
        rebuilt = (1 - delta) * pd_game.payoffs[0, 0] + delta * (rho @ out.gamma)
        assert np.allclose(rebuilt, [1.8, 1.8], atol=1e-7)


class TestApplyB:
    def test_myopic_limit_is_nash_point(self, pd_game, pd_w0):
        res = apply_B(pd_game, 0.0, pd_w0)
        assert res.set.is_point
        assert np.allclose(res.set.vertices[0], [0, 0])
        enforceable = {lab: not p.is_empty for lab, p in res.per_action.items()}
        assert enforceable == {
            ("C", "C"): False,
            ("C", "D"): False,
            ("D", "C"): False,
            ("D", "D"): True,
        }

    def test_skipped_profiles_share_the_empty_polygon(self, cournot_game):
        """Each skipped profile's slot holds the one read-only empty polygon,
        keyed by its action labels in profile order."""
        w = individually_rational_set(cournot_game).individually_rational
        systems = aps.compile_profiles(cournot_game, 0.5)
        res = apply_B(cournot_game, 0.5, w, systems=(None,) * 4 + systems[4:])
        labels = cournot_game.action_labels
        assert list(res.per_action) == [(labels[0][i], labels[1][j]) for i, j in cournot_game.profiles()]
        empty = list(res.per_action.values())[:4]
        assert all(p is PolygonV.empty() for p in empty) and not empty[0].vertices.flags.writeable
        assert list(res.pivots) == list(res.per_action)[4:]  # only the profiles computed

    def test_result_within_input(self, pd_game, pd_w0):
        res = apply_B(pd_game, 0.9, pd_w0)
        assert contains_polygon(pd_w0, res.set, 1e-7)
        assert area(res.set) < area(pd_w0)

    def test_simplification_never_shrinks(self, pd_game, pd_w0):
        # on B(W0) nothing drops at theta = 0.1; on B(B(W0)) edges do
        w = apply_B(pd_game, 0.9, pd_w0).set
        plain = apply_B(pd_game, 0.9, w)
        trimmed = apply_B(pd_game, 0.9, w, theta=0.1)
        assert trimmed.set.num_vertices < plain.set.num_vertices
        assert contains_polygon(trimmed.set, plain.set, 1e-9)
        assert hausdorff(plain.set, trimmed.set) <= 0.1 + 1e-9

    @pytest.mark.parametrize("seed", range(15))
    def test_monotone_in_continuation_set(self, seed):
        rng = np.random.default_rng(4000 + seed)
        g = random_2x2_game(rng)
        w = individually_rational_set(g).individually_rational
        if w.is_empty or w.num_vertices < 3:
            pytest.skip("degenerate draw")
        center = w.vertices.mean(axis=0)
        w_small = convex_hull(center + 0.5 * (w.vertices - center))
        big = apply_B(g, 0.7, w).set
        small = apply_B(g, 0.7, w_small).set
        if small.is_empty:
            return
        assert contains_polygon(big, small, 1e-7)

    def test_merged_set_is_hull_of_profile_sets(self, pd_game, pd_w0):
        first = apply_B(pd_game, 0.9, pd_w0)
        again = apply_B(pd_game, 0.9, pd_w0)
        parts = [p.vertices for p in first.per_action.values() if not p.is_empty]
        assert np.array_equal(first.set.vertices, convex_hull(np.vstack(parts)).vertices)
        assert first.set.vertices.tobytes() == again.set.vertices.tobytes()


class TestCompiledProfiles:
    """solve compiles each profile's system once; every iterate then does
    only the W-dependent work, with the result a fresh call gives."""

    def test_ic_rows_built_once_per_profile(self, cournot_game, monkeypatch):
        """Each profile compiles once, and P(a) is computed only while it
        was nonempty at the last iterate: cournot-collapse computes 101
        of its 36 x 9 sets, each of them listed in its trace."""
        compiled, computed = [], []

        def compiling(game, a, delta):
            compiled.append(a)
            return compile_profile(game, a, delta)

        def computing(system, w, tol):
            computed.append(system)
            return enforceable_payoffs(system, w, tol)

        monkeypatch.setattr(aps, "compile_profile", compiling)
        monkeypatch.setattr(aps, "enforceable_payoffs", computing)
        rep = solve(cournot_game, SolverConfig(delta=0.5))
        assert rep.iterations == 36
        assert sorted(compiled) == sorted(cournot_game.profiles())
        assert len(computed) == sum(len(t.pivots) for t in rep.trace) == 101

    def test_stored_arrays_are_read_only(self, pd_game):
        """A system keeps read-only copies of its arrays, so one that solve
        stores gives what a fresh compile gives for the whole run."""
        system = compile_profile(pd_game, CC, 0.9)
        for name in ("normals", "ic_offsets", "weights"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(system, name)[0] = 0.0
            with pytest.raises(ValueError):
                getattr(system, name).resize(1, refcheck=False)
        normals = np.array(system.normals)
        copy = aps.ProfileSystem(normals, system.ic_offsets, system.folded, system.norm, system.weights, system.c)
        normals[0] = 0.0
        assert copy.normals.tobytes() == system.normals.tobytes()

    @pytest.mark.parametrize("run", REPLAYED)
    def test_compiled_matches_fresh_call(self, pinned_runs, run):
        """Each application that the trace records is what a fresh
        `apply_B`, compiling its own systems, gives on the iterate before:
        the pivots of the profiles computed, the enforceable flags, and
        the iterate, B(W) clipped by W, byte for byte."""
        game, rep = replayed(pinned_runs, run)
        delta, theta, tol = rep.config.delta, rep.config.theta, rep.tolerances
        for prev, t in zip(rep.trace, rep.trace[1:]):
            k, w = t.iteration, PolygonV(prev.vertices)
            fresh = apply_B(game, delta, w, theta, tol)
            assert t.pivots == {lab: fresh.pivots[lab] for lab in t.pivots}, f"application {k}"
            assert t.enforceable == {lab: not p.is_empty for lab, p in fresh.per_action.items()}
            assert byte_equal(intersect_polygons(fresh.set, w, tol), PolygonV(t.vertices)), f"iterate {k}"
            assert t.area_diff >= -1e-9, f"area grew at iterate {k}"


class TestProfileSystemOnPinnedIterates:
    """What compile_profile stores in place of per-iterate work gives the
    answers of the per-iterate formulas, on every iterate of the registry."""

    @staticmethod
    def iterates(pinned_runs, games):
        """(run name, compiled systems, tolerances, W) for every nonempty
        iterate of the pinned runs on the given game files."""
        for name, game_file, delta, _, _ in RUNS:
            if game_file not in games:
                continue
            report = pinned_runs[name]
            systems = aps.compile_profiles(parse_game((GAMES / game_file).read_text()), delta)
            for t in report.trace:
                if len(t.vertices):
                    yield name, systems, report.tolerances, PolygonV(t.vertices)

    def test_diagonal_rows_decide_as_the_tiled_test(self, pinned_runs, monkeypatch):
        """The closed form is taken exactly when every row holds on the
        k-fold repeats of W's vertices, for every compiled profile."""
        walked = []
        monkeypatch.setattr(aps, "shadow_polygon", lambda *args: walked.append(args) or (PolygonV.empty(), 0))
        decided = {True: 0, False: 0}
        for name, systems, tol, w in self.iterates(pinned_runs, {"prisoners_dilemma.json", "cournot.json"}):
            for system in filter(None, systems):
                offsets = system.offsets(w)
                k = len(system.weights)
                tiled = bool(np.all(
                    np.tile(w.vertices, k) @ system.normals.T - offsets
                    <= tol.eps * np.maximum(1.0, np.abs(offsets))
                ))
                walked.clear()
                _, pivots = enforceable_payoffs(system, w, tol)
                assert tiled == (not walked) == (pivots is None), f"{name}, {w.num_vertices}-vertex iterate"
                decided[tiled] += 1
        assert decided[True] > 0 and decided[False] > 0

    def test_unfolded_offsets_are_compiled(self, pinned_runs):
        """A profile that folds nothing returns its compiled offsets, the
        same array, for every W."""
        seen = 0
        for _, systems, _, w in self.iterates(pinned_runs, {"prisoners_dilemma.json", "cournot.json"}):
            for system in filter(None, systems):
                if system.folded.shape[1] == 0:
                    assert system.offsets(w) is system.ic_offsets
                    seen += 1
        assert seen

    def test_folded_offsets_follow_w(self, pinned_runs):
        """A folding profile's offsets are (ic_offsets - folded . min W) /
        norm, byte for byte, on every Cournot iterate."""
        seen = 0
        for _, systems, _, w in self.iterates(pinned_runs, {"cournot.json"}):
            for system in filter(None, systems):
                if system.folded.shape[1]:
                    shift = np.einsum("ryi,i->r", system.folded, w.vertices.min(axis=0))
                    want = (system.ic_offsets - shift) / system.norm
                    assert system.offsets(w).tobytes() == want.tobytes()
                    seen += 1
        assert seen


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": 1.0},
            {"delta": -0.1},
            {"delta": 0.5, "epsilon": 0.0},
            {"delta": 0.5, "theta": -1.0},
            {"delta": 0.5, "max_iter": 0},
            {"delta": float("nan")},
            {"delta": 0.5, "epsilon": float("nan")},
            {"delta": 0.5, "epsilon": float("inf")},
            {"delta": 0.5, "theta": float("nan")},
            {"delta": 0.5, "theta": float("inf")},
            {"delta": 0.5, "max_iter": 2.5},
            {"delta": 0.5, "max_iter": 3.0},
            {"delta": 0.5, "max_iter": float("nan")},
            {"delta": 0.5, "max_iter": float("inf")},
            {"delta": 0.5, "max_iter": True},
            {"delta": 0.5, "epsilon": True},
            {"delta": False},
            {"delta": 0.5, "theta": False},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("max_iter", [5, np.int64(5), np.int32(5)])
    def test_accepts_integer_max_iter(self, max_iter):
        assert SolverConfig(delta=0.5, max_iter=max_iter).max_iter == 5


class TestSolve:
    def test_max_iter_stop(self, pd_game):
        rep = solve(pd_game, SolverConfig(delta=0.9, max_iter=3))
        assert not rep.converged
        assert rep.stop_reason == "max_iter"
        assert len(rep.trace) == 4
        assert np.array_equal(rep.final_set.vertices, rep.trace[-1].vertices)

    @pytest.mark.parametrize("name", [run[0] for run in RUNS])
    def test_iterates_match_pinned_hashes(self, pinned_runs, name):
        assert report_line(pinned_runs[name]) == EXPECTED[name]

    def test_exact_cournot_known_answer(self, pinned_runs):
        # the same answer the vertex enumerator gave in about a minute
        rep = pinned_runs["cournot delta=0.9 theta=0"]
        assert rep.stop_reason == "area_epsilon" and rep.iterations == 24
        assert area(rep.final_set) == pytest.approx(190.2176, abs=1e-3)

    def test_empty_rational_set_stops_immediately(self):
        # matching pennies: pure minmax (1, 1) lies outside the feasible set
        g = StageGame(
            (("H", "T"), ("H", "T")),
            np.array([[[1, -1], [-1, 1]], [[-1, 1], [1, -1]]], dtype=float),
            ("y1", "y2"),
            np.full((2, 2, 2), 0.5),
        )
        rep = solve(g, SolverConfig(delta=0.9))
        assert rep.stop_reason == "empty_set"
        assert rep.final_set.is_empty
        assert len(rep.trace) == 1

    def test_trace_vertices_rebuild_each_iterate(self, pinned_runs):
        trace = pinned_runs["pd delta=0.9 theta=0"].trace[:6]
        assert trace[0].area == pytest.approx(16 / 3, abs=1e-9)
        for prev, cur in zip(trace, trace[1:]):
            p = convex_hull(prev.vertices)
            c = convex_hull(cur.vertices)
            assert contains_polygon(p, c, 1e-7)
            assert cur.area == pytest.approx(area(c), abs=1e-12)

    def test_small_random_games(self):
        rng = np.random.default_rng(1400)
        for _ in range(40):
            game = random_small_game(rng)
            scale = max(1.0, game.payoff_magnitude)
            nash = [game.payoffs[a] for a in pure_nash(game)]
            for delta, theta in ((0.3, 0.0), (0.8, 0.05)):
                rep = solve(game, SolverConfig(delta=delta, theta=theta, max_iter=15))
                assert rep.stop_reason in STOP_REASONS
                if theta > 0:
                    continue
                for t in rep.trace:
                    w = convex_hull(t.vertices)
                    assert all(contains_point(w, v, 1e-7 * scale) for v in nash)


class TestOuterBound:
    @pytest.mark.parametrize(
        "game_name, name, twin",
        [("pd_game", "pd delta=0.9 theta=0.02", "pd delta=0.9 theta=0"),
         ("cournot_game", "cournot delta=0.9 theta=0.05", "cournot delta=0.9 theta=0")],
        ids=["pd delta=0.9 theta=0.02", "cournot delta=0.9 theta=0.05"],
    )
    def test_every_iterate_holds_the_exact_iterate(self, request, pinned_runs, game_name, name, twin):
        """B_theta(W) contains B(W) and B is monotone, so by induction,
        clip included, each theta > 0 iterate (criteria 03 and 04)
        contains the exact iterate of the same index."""
        coarse = pinned_runs[name]
        exact = pinned_runs[twin]
        scale = max(1.0, request.getfixturevalue(game_name).payoff_magnitude)
        assert len(exact.trace) >= len(coarse.trace)
        worst, k = max(
            (_dists_to_polygon(inner.vertices, PolygonV(outer.vertices)).max(), outer.iteration)
            for outer, inner in zip(coarse.trace, exact.trace)
        )
        assert worst <= 1e-7 * scale, f"iterate {k} leaves the theta > 0 iterate by {worst:.3g}"


def nash_games():
    """The first 8 games of a seeded stream of small random games that
    have a pure stage Nash profile and a nonempty W0."""
    rng = np.random.default_rng(1800)
    games = []
    while len(games) < 8:
        game = random_small_game(rng)
        if pure_nash(game) and not individually_rational_set(game).individually_rational.is_empty:
            games.append(game)
    return games


def hand_built_system(normals, offsets, weights, c):
    """A compiled profile over len(weights) kept blocks, with the given
    rows and signal weights and nothing folded."""
    r = len(offsets)
    return aps.ProfileSystem(normals, offsets, np.zeros((r, 0, 2)), np.ones(r), weights, c)


class TestDiagonalClosedForm:
    """When every row holds on the diagonal of W^k, the tuples that
    repeat one point of W, P(a) = (1-delta) u(a) + delta W with no pivot."""

    @staticmethod
    def assert_nash_profiles_settle(game, rep):
        """On every iterate, each stage-Nash profile's P(a) is
        (1-delta) u(a) + delta W, without a pivot.

        A constant continuation enforces a stage-Nash profile, so its
        rows hold on the diagonal.  A folded signal's block sits at the
        deviator's lowest payoff in W, which satisfies each folded row at
        least as well as the diagonal's point, so those rows hold too.
        Returns the (profile, iterate) pairs checked, by whether a
        signal folds."""
        delta, tol = rep.config.delta, rep.tolerances
        checked = {True: 0, False: 0}
        for a in pure_nash(game):
            system = aps.compile_profile(game, a, delta)
            folds = len(system.weights) < game.num_signals
            for k, t in enumerate(rep.trace):
                w = PolygonV(t.vertices)
                if w.is_empty:
                    continue
                p, pivots = enforceable_payoffs(system, w, tol)
                want = convex_hull((1 - delta) * game.payoffs[a] + delta * w.vertices, tol)
                assert hausdorff(p, want) <= tol.eps, f"P{a} at iterate {k}"
                assert pivots is None, f"P{a} walked at iterate {k}"
                checked[folds] += 1
        return checked

    def test_criterion_03_pd(self, pd_game, pinned_runs):
        rep = pinned_runs["pd delta=0.9 theta=0.02"]
        assert self.assert_nash_profiles_settle(pd_game, rep) == {True: 0, False: len(rep.trace)}

    def test_criterion_04_cournot(self, cournot_game, pinned_runs):
        rep = pinned_runs["cournot delta=0.9 theta=0.05"]
        assert self.assert_nash_profiles_settle(cournot_game, rep) == {True: 0, False: len(rep.trace)}

    def test_random_games(self):
        checked = [
            self.assert_nash_profiles_settle(g, solve(g, SolverConfig(delta=0.8, max_iter=10)))
            for g in nash_games()
        ]
        assert all(sum(c[folds] for c in checked) > 0 for folds in (True, False))

    @staticmethod
    def diagonal_case(rng, eps):
        """W, k, and rows that cut W^k but hold on its diagonal: some
        with slack, one missing the diagonal by half the on-plane band."""
        k = int(rng.integers(2, 4))
        w = convex_hull(rng.uniform(-1.0, 1.0, size=(int(rng.integers(3, 10 - 2 * k)), 2)))
        diag = np.tile(w.vertices, k)
        normals, offsets, rows = [], [], int(rng.integers(1, 4))
        while len(offsets) < rows:
            n = rng.normal(size=2 * k)
            n /= np.linalg.norm(n)
            top = (diag @ n).max()
            hi = (n.reshape(k, 2) @ w.vertices.T).max(axis=1).sum()
            if hi - top < 0.05:
                continue  # too thin to cut W^k off the diagonal
            if offsets:
                b = top + rng.uniform(0.0, 0.8) * (hi - top)
            else:
                b = top - 0.5 * eps * max(1.0, abs(top))
            normals.append(n)
            offsets.append(b)
        return w, k, np.array(normals), np.array(offsets)

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_holding_on_the_diagonal(self, seed):
        rng = np.random.default_rng(1810 + seed)
        tol = Tolerances()
        for trial in range(15):
            w, k, normals, offsets = self.diagonal_case(rng, tol.eps)
            rho = rng.dirichlet(np.ones(k)) * (rng.random(k) > 0.3)
            if rho.sum() == 0:
                rho[0] = 1.0
            weights, c = 0.8 * (rho / rho.sum()), rng.normal(size=2)
            # every row cuts W^k: its greatest value there, a sum of
            # per-block maxima over W's vertices, exceeds its offset
            assert np.all((normals.reshape(-1, k, 2) @ w.vertices.T).max(axis=2).sum(axis=1) > offsets)
            p, pivots = enforceable_payoffs(hand_built_system(normals, offsets, weights, c), w, tol)
            assert pivots is None, f"trial {trial}: walked"
            image = convex_hull(w.vertices * 0.8 + c)
            assert match_point_sets(p.vertices, image.vertices, 1e-12), f"trial {trial}"
            # a row held only within the band leaves the oracle, whose own
            # tolerance is wider, points on the edges of P(a)
            assert hausdorff(p, reference(w, weights, normals, offsets, c)) <= 1e-7, f"trial {trial}"

            # one more row, cutting off a single diagonal vertex other
            # than W's first by twice the band: the walk must run
            while True:
                n = rng.normal(size=2 * k)
                n /= np.linalg.norm(n)
                dv = np.tile(w.vertices, k) @ n
                j = int(np.argmax(dv))
                if j > 0 and np.sort(dv)[-2] < dv[j] - 0.01:
                    break
            b = dv[j] - 2 * tol.eps * max(1.0, abs(dv[j])) * (1 + 1e-6)
            normals2, offsets2 = np.vstack([normals, n]), np.append(offsets, b)
            p, pivots = enforceable_payoffs(hand_built_system(normals2, offsets2, weights, c), w, tol)
            assert pivots is not None and pivots > 0, f"trial {trial}: the cut diagonal vertex was not walked"
            # P(a) lies in c + delta W; the walk's band lets its vertices
            # stray past W's rows by about eps
            assert not p.is_empty and contains_polygon(image, p, 1e-7), f"trial {trial}, extra row"


class TestMonotoneSkip:
    """Once P(a) is empty, solve does not compute it again, and each
    application gives what a fresh one gives, read from the trace alone.

    The run's compiled systems, with None for each profile whose P(a)
    the last application found empty, give every P(a) byte for byte as
    a call that compiles its own does: a profile skipped after it came
    back empty would be empty again, since the operator is monotone and
    each iterate lies in the last."""

    @pytest.mark.parametrize("run", REPLAYED)
    def test_skip_matches_fresh_application(self, pinned_runs, run):
        game, rep = replayed(pinned_runs, run)
        delta, theta, tol = rep.config.delta, rep.config.theta, rep.tolerances
        systems = compiled = aps.compile_profiles(game, delta)
        for prev, t in zip(rep.trace, rep.trace[1:]):
            k, w = t.iteration, PolygonV(prev.vertices)
            if prev.enforceable:  # none at k = 1, which computes every compiled profile
                systems = tuple(s if ok else None for s, ok in zip(compiled, prev.enforceable.values()))
            got = apply_B(game, delta, w, theta, tol, systems)
            fresh = apply_B(game, delta, w, theta, tol)
            assert list(got.per_action) == list(fresh.per_action) == list(game.profile_keys)
            for label, p in got.per_action.items():
                assert byte_equal(p, fresh.per_action[label]), f"P{label} at application {k}"
            # the trace lists exactly the profiles computed, with their walks' pivots
            assert list(t.pivots) == [lab for lab, s in zip(game.profile_keys, systems) if s is not None]
            assert got.pivots == t.pivots, f"application {k}"
