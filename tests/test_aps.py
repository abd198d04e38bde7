import numpy as np
import pytest

from ppesolve import aps
from ppesolve.aps import (
    Certificate,
    Refusal,
    SolverConfig,
    apply_B,
    enforceable_payoffs,
    ic_constraints,
    solve,
    verify_enforceability,
)
from ppesolve.game import StageGame, individually_rational_set, pure_nash
from ppesolve.geometry import area, contains_point, contains_polygon, convex_hull

from oracles import match_point_sets

CC, CD, DC, DD = (0, 0), (0, 1), (1, 0), (1, 1)
STOP_REASONS = {"area_epsilon", "hausdorff_epsilon", "max_iter", "empty_set"}


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
    @pytest.mark.parametrize("delta", [0.3, 0.8, 0.9])
    def test_mutual_cooperation_rows(self, pd_game, delta):
        ic = ic_constraints(pd_game, CC, delta)
        assert not ic.infeasible
        assert set(ic.labels) == {(0, 1), (1, 1)}
        assert np.allclose(np.linalg.norm(ic.normals, axis=1), 1.0)
        # each row must agree with delta/6 * (g_i(y1) - g_i(y2)) >= 1 - delta
        rng = np.random.default_rng(0)
        for (i, _), n, b in zip(ic.labels, ic.normals, ic.offsets):
            for g in rng.uniform(-10, 10, size=(200, 4)):
                lhs_ok = delta / 6 * (g[0 + i] - g[2 + i]) >= (1 - delta)
                row_ok = n @ g <= b
                assert lhs_ok == row_ok or abs(n @ g - b) < 1e-9

    def test_undetectable_profitable_deviation_is_infeasible(self, pd_game):
        ic = ic_constraints(pd_game, CC, 0.0)
        assert ic.infeasible

    def test_vacuous_rows_dropped(self, pd_game):
        # deviating from mutual defection never pays, and at delta=0 the
        # signal term vanishes, so no rows survive
        ic = ic_constraints(pd_game, DD, 0.0)
        assert not ic.infeasible
        assert len(ic.offsets) == 0

    def test_cournot_row_count(self, cournot_game):
        ic = ic_constraints(cournot_game, (0, 0), 0.9)
        assert len(ic.offsets) == 4  # two deviations per player
        assert ic.normals.shape == (4, 8)


class TestEnforceablePayoffs:
    def test_cooperation_region_at_delta_09(self, pd_game, pd_w0):
        p, pivots = enforceable_payoffs(pd_game, CC, 0.9, pd_w0)
        assert pivots > 0  # both deviation rows cut W^2, so the walk runs
        assert match_point_sets(
            p.vertices,
            [(0.6, 0.6), (2.2, 0.6), (1.8, 1.8), (0.6, 2.2)],
            1e-7,
        )

    def test_empty_when_ic_infeasible(self, pd_game, pd_w0):
        p, _ = enforceable_payoffs(pd_game, CC, 0.0, pd_w0)
        assert p.is_empty

    def test_static_nash_value_always_enforceable(self, pd_game, pd_w0):
        for delta in (0.0, 0.5, 0.9):
            p, _ = enforceable_payoffs(pd_game, DD, delta, pd_w0)
            assert contains_point(p, (0.0, 0.0), 1e-9)

    def test_empty_continuation_set_gives_empty(self, pd_game):
        from ppesolve.geometry import PolygonV

        p, pivots = enforceable_payoffs(pd_game, CC, 0.9, PolygonV.empty())
        assert p.is_empty and pivots == 0

    @pytest.mark.parametrize("profile", [CC, CD, DC, DD])
    def test_vertices_carry_certificates(self, pd_game, pd_w0, profile):
        p, _ = enforceable_payoffs(pd_game, profile, 0.9, pd_w0)
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
            p, _ = enforceable_payoffs(pd_game, profile, delta, pd_w0)
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

    def test_result_within_input(self, pd_game, pd_w0):
        res = apply_B(pd_game, 0.9, pd_w0)
        assert contains_polygon(pd_w0, res.set, 1e-7)
        assert area(res.set) < area(pd_w0)

    def test_simplification_never_grows(self, pd_game, pd_w0):
        plain = apply_B(pd_game, 0.9, pd_w0)
        trimmed = apply_B(pd_game, 0.9, pd_w0, theta=0.1)
        assert trimmed.set.num_vertices <= plain.set.num_vertices
        assert contains_polygon(plain.set, trimmed.set, 1e-9)

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
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("max_iter", [5, np.int64(5), np.int32(5)])
    def test_accepts_integer_max_iter(self, max_iter):
        assert SolverConfig(delta=0.5, max_iter=max_iter).max_iter == 5


class TestSolve:
    def test_pd_high_discount(self, pd_game):
        rep = solve(pd_game, SolverConfig(delta=0.9, theta=0.02))
        assert rep.converged and rep.stop_reason == "area_epsilon"
        assert rep.iterations == len(rep.trace) - 1
        assert rep.trace[0].area == pytest.approx(16 / 3, abs=1e-9)
        w0 = convex_hull(rep.trace[0].vertices)
        assert contains_polygon(w0, rep.final_set, 1e-6)
        assert 0 < area(rep.final_set) < 16 / 3
        # monotone descent, every step
        for t in rep.trace[1:]:
            assert t.area_diff >= -1e-9
        # the punishment payoff survives every round of cutting
        assert contains_point(rep.final_set, (0.0, 0.0), 1e-6)

    def test_pd_low_discount_collapses(self, pd_game):
        rep = solve(pd_game, SolverConfig(delta=0.5))
        assert rep.converged and rep.stop_reason == "hausdorff_epsilon"
        assert np.all(np.abs(rep.final_set.vertices) < 0.05)

    def test_max_iter_stop(self, pd_game):
        rep = solve(pd_game, SolverConfig(delta=0.9, max_iter=3))
        assert not rep.converged
        assert rep.stop_reason == "max_iter"
        assert len(rep.trace) == 4

    def test_exact_pd_stops_on_max_iter(self, pd_game):
        # iterate 12 has 539 vertices: the exact run needs no vertex cap
        rep = solve(pd_game, SolverConfig(delta=0.9, max_iter=13))
        assert rep.stop_reason == "max_iter" and not rep.converged
        assert rep.iterations == 13
        assert np.array_equal(rep.final_set.vertices, rep.trace[-1].vertices)

    def test_exact_cournot_known_answer(self, cournot_game):
        # the same answer the vertex enumerator gave in about a minute
        rep = solve(cournot_game, SolverConfig(delta=0.9))
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

    def test_trace_vertices_rebuild_each_iterate(self, pd_game):
        rep = solve(pd_game, SolverConfig(delta=0.9, max_iter=5))
        for prev, cur in zip(rep.trace, rep.trace[1:]):
            p = convex_hull(prev.vertices)
            c = convex_hull(cur.vertices)
            assert contains_polygon(p, c, 1e-7)
            assert cur.area == pytest.approx(area(c), abs=1e-12)

    def test_theta_reduces_vertex_counts(self, pd_game):
        sharp = solve(pd_game, SolverConfig(delta=0.9, max_iter=10))
        coarse = solve(pd_game, SolverConfig(delta=0.9, theta=0.02, max_iter=10))
        assert len(coarse.trace[-1].vertices) <= len(sharp.trace[-1].vertices)

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
