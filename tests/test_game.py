import json

import numpy as np
import pytest

from ppesolve.game import (
    GameFormatError,
    StageGame,
    feasible_set,
    individually_rational_set,
    minmax,
    parse_game,
    pure_nash,
    serialize_game,
)
from ppesolve.geometry import contains_point

from oracles import match_point_sets


def make_game(payoffs, probs=None, signals=("y1", "y2")):
    payoffs = np.asarray(payoffs, dtype=float)
    n1, n2 = payoffs.shape[:2]
    if probs is None:
        probs = np.full((n1, n2, len(signals)), 1.0 / len(signals))
    labels = (
        tuple(f"a{i}" for i in range(n1)),
        tuple(f"b{j}" for j in range(n2)),
    )
    return StageGame(labels, payoffs, tuple(signals), np.asarray(probs, dtype=float))


class TestParse:
    def test_pd_file(self, pd_game):
        assert pd_game.num_actions == (2, 2)
        assert pd_game.num_signals == 2
        assert pd_game.payoffs[0, 0].tolist() == [2, 2]
        assert pd_game.payoffs[0, 1].tolist() == [-1, 3]
        assert pd_game.signal_probs[0, 0, 0] == pytest.approx(2 / 3, abs=1e-15)
        assert pd_game.signal_probs[1, 1].tolist() == [0.25, 0.75]

    def test_cournot_file(self, cournot_game):
        assert cournot_game.num_actions == (3, 3)
        assert cournot_game.num_signals == 4
        assert len(cournot_game.profiles()) == 9
        assert cournot_game.payoffs[1, 0].tolist() == [21, 1]
        assert cournot_game.signal_probs[1, 1].tolist() == [0.25] * 4

    def test_bad_probability_row_names_profile(self, pd_game_path):
        data = json.loads(pd_game_path.read_text())
        data["signal_probs"][1][1] = [0.25, 0.80]
        with pytest.raises(GameFormatError, match=r"\(D,D\)"):
            parse_game(json.dumps(data))

    def test_negative_probability_rejected(self, pd_game_path):
        data = json.loads(pd_game_path.read_text())
        data["signal_probs"][0][0] = [1.25, -0.25]
        with pytest.raises(GameFormatError, match="negative"):
            parse_game(json.dumps(data))

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_payoff_rejected(self, pd_game_path, value):
        data = json.loads(pd_game_path.read_text())
        data["payoffs"][1][0][0] = value  # serialised as Infinity / NaN
        with pytest.raises(GameFormatError, match="finite"):
            parse_game(json.dumps(data))

    @pytest.mark.parametrize("value", [10**400, "1e400"], ids=["400-digit integer", "string 1e400"])
    def test_overflowing_payoff_rejected(self, pd_game_path, value):
        data = json.loads(pd_game_path.read_text())
        data["payoffs"][1][0][0] = value
        with pytest.raises(GameFormatError, match=r"payoffs.*is not a finite number"):
            parse_game(json.dumps(data))

    def test_syntax_error(self):
        with pytest.raises(GameFormatError, match="JSON"):
            parse_game("{not json")

    def test_missing_field(self):
        with pytest.raises(GameFormatError, match="signal_probs"):
            parse_game('{"actions": [["C"],["C"]], "payoffs": [[[1,1]]], "signals": ["y"]}')

    def test_duplicate_labels(self, pd_game_path):
        data = json.loads(pd_game_path.read_text())
        data["actions"][0] = ["C", "C"]
        with pytest.raises(GameFormatError, match="duplicate"):
            parse_game(json.dumps(data))

    @pytest.mark.parametrize("player", [0, 1])
    def test_stage_game_rejects_duplicate_action_labels(self, player):
        # solve keeps one result per profile label
        labels = [("C", "D"), ("C", "D")]
        labels[player] = ("C", "C")
        with pytest.raises(ValueError, match=f"duplicate player {player + 1} action labels"):
            StageGame(tuple(labels), np.zeros((2, 2, 2)), ("y",), np.ones((2, 2, 1)))

    def test_comma_in_action_label_rejected(self, pd_game_path):
        # ("C","x,D") and ("C,x","D") would share the report.json key "C,x,D"
        data = json.loads(pd_game_path.read_text())
        data["actions"] = [["C", "C,x"], ["x,D", "D"]]
        with pytest.raises(GameFormatError, match=r"'C,x'.*comma"):
            parse_game(json.dumps(data))

    def test_rational_strings_everywhere(self):
        text = json.dumps(
            {
                "actions": [["C"], ["C"]],
                "payoffs": [[["5/2", "-1/4"]]],
                "signals": ["y"],
                "signal_probs": [[["1/1"]]],
            }
        )
        g = parse_game(text)
        assert g.payoffs[0, 0].tolist() == [2.5, -0.25]

    def test_size_caps(self):
        four_actions = {
            "actions": [[f"a{i}" for i in range(4)], ["x"]],
            "payoffs": [[[0, 0]] for _ in range(4)],
            "signals": ["y"],
            "signal_probs": [[[1]] for _ in range(4)],
        }
        with pytest.raises(GameFormatError, match="more than 3 actions"):
            parse_game(json.dumps(four_actions))
        five_signals = {
            "actions": [["a"], ["x"]],
            "payoffs": [[[0, 0]]],
            "signals": [f"y{k}" for k in range(5)],
            "signal_probs": [[[1, 0, 0, 0, 0]]],
        }
        with pytest.raises(GameFormatError, match="more than 4 signals"):
            parse_game(json.dumps(five_signals))

    def test_round_trip(self, pd_game, cournot_game):
        for g in (pd_game, cournot_game):
            g2 = parse_game(serialize_game(g))
            assert g2.action_labels == g.action_labels
            assert g2.signal_labels == g.signal_labels
            assert np.array_equal(g2.payoffs, g.payoffs)
            assert np.array_equal(g2.signal_probs, g.signal_probs)


class TestMinmax:
    def test_pd(self, pd_game):
        assert minmax(pd_game).values == (0.0, 0.0)

    def test_cournot_derived(self, cournot_game):
        # row maxima per column for player 1: 21, 10, 0 -> min 0
        # column maxima per row for player 2: 13, 4, 0 -> min 0
        mm = minmax(cournot_game)
        assert mm.values == (0.0, 0.0)
        assert mm.punishing_actions == (2, 2)  # both punished by H

    def test_single_action_degenerate(self):
        g = make_game([[[5.0, 7.0]]])
        assert minmax(g).values == (5.0, 7.0)

    def test_relabel_invariance(self, cournot_game):
        g = cournot_game
        perm1, perm2 = [2, 0, 1], [1, 2, 0]
        permuted = StageGame(
            (
                tuple(g.action_labels[0][i] for i in perm1),
                tuple(g.action_labels[1][j] for j in perm2),
            ),
            g.payoffs[np.ix_(perm1, perm2)],
            g.signal_labels[::-1],
            g.signal_probs[np.ix_(perm1, perm2)][:, :, ::-1],
        )
        assert minmax(permuted).values == minmax(g).values


class TestPureNash:
    def test_pd(self, pd_game):
        assert pure_nash(pd_game) == [(1, 1)]
        assert pd_game.payoffs[1, 1].tolist() == [0, 0]

    def test_cournot(self, cournot_game):
        assert pure_nash(cournot_game) == [(1, 1)]
        assert cournot_game.payoffs[1, 1].tolist() == [10, 4]

    def test_constant_game_all_nash(self):
        g = make_game(np.ones((2, 2, 2)))
        assert pure_nash(g) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_matching_pennies_has_none(self):
        g = make_game([[[1, -1], [-1, 1]], [[-1, 1], [1, -1]]])
        assert pure_nash(g) == []

    def test_large_payoffs_scale_the_tolerance_once(self):
        # a PD with payoffs near 1e4 where every deviation gains 0.05:
        # eps scaled once is 1e-5, far below the gain, so only (D, D)
        # is an equilibrium; scaled twice it would be 0.1, above every
        # gain, and admit all four profiles
        g = make_game([
            [[1e4, 1e4], [1e4 - 1, 1e4 + 0.05]],
            [[1e4 + 0.05, 1e4 - 1], [1e4 - 0.95, 1e4 - 0.95]],
        ])
        assert pure_nash(g) == [(1, 1)]


class TestPayoffSets:
    def test_pd_feasible(self, pd_game):
        w = feasible_set(pd_game)
        assert match_point_sets(w.vertices, [(2, 2), (-1, 3), (0, 0), (3, -1)], 1e-12)

    def test_single_profile(self):
        g = make_game([[[5.0, 5.0]]])
        assert feasible_set(g).is_point

    def test_cournot_feasible_against_oracle(self, cournot_game):
        from oracles import hull_vertices_lp

        w = feasible_set(cournot_game)
        oracle = hull_vertices_lp(cournot_game.payoffs.reshape(-1, 2))
        assert match_point_sets(w.vertices, oracle, 1e-7)

    def test_pd_w0(self, pd_game):
        pair = individually_rational_set(pd_game)
        assert match_point_sets(
            pair.individually_rational.vertices,
            [(0, 0), (8 / 3, 0), (2, 2), (0, 8 / 3)],
            1e-9,
        )
        assert not pair.ir_empty

    def test_w0_singleton_when_only_nash_is_rational(self):
        # minmax is (0, 0) and every other payoff is negative in both
        # coordinates, so the rational region collapses to the origin
        g = make_game([[[0.0, 0.0], [-1.0, -2.0]], [[-2.0, -1.0], [0.0, 0.0]]])
        pair = individually_rational_set(g)
        assert pair.individually_rational.is_point
        assert np.allclose(pair.individually_rational.vertices[0], [0, 0])

    @pytest.mark.parametrize("seed", range(20))
    def test_invariants_random_games(self, seed):
        rng = np.random.default_rng(seed)
        g = make_game(rng.uniform(-5, 5, size=(3, 3, 2)))
        pair = individually_rational_set(g)
        for u in g.payoffs.reshape(-1, 2):
            assert contains_point(pair.feasible, u, 1e-9)
        v = minmax(g).values
        for a in pure_nash(g):
            u = g.payoffs[a]
            assert u[0] >= v[0] - 1e-12 and u[1] >= v[1] - 1e-12
            assert contains_point(pair.individually_rational, u, 1e-9)
