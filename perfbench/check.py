"""Independent LP check of one operator application W_k -> W_{k+1}.

Every LP here is posed from the stage game's payoff matrix, its signal
distributions and the discount factor alone; nothing is taken from the
solver except the iterates it produced.  A continuation set W is used in
vertex form: gamma(y) = sum_j mu[y, j] w_j with mu[y] in the simplex, so
points, segments and polygons need no special cases.

For profile a, B_a(W) is the set of values
    v = (1 - delta) u(a) + delta sum_y rho(y|a) gamma(y)
with every gamma(y) in W and no profitable one-shot deviation a':
    delta sum_y (rho(y|a') - rho(y|a)) gamma_i(y) <= (1 - delta) (u_i(a) - u_i(a')).
This is the support-function view of Judd, Yeltekin & Conklin (2003).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

# Relative to the payoff magnitude: HiGHS solves to about 1e-7 feasibility,
# and the faults this check exists to catch are several orders larger.
REL_TOL = 1e-6


@dataclass(frozen=True)
class Violation:
    kind: str  # outer | complete | descent | nash
    amount: float  # how far outside, in payoff units
    detail: str
    profile: str = ""  # the profile whose payoffs are missed, for complete


def polygon_rows(verts) -> tuple[np.ndarray, np.ndarray]:
    """Rows n.x <= b describing a CCW vertex list exactly.

    A point gives four axis rows and a segment two normal and two
    tangent rows, so that the largest row excess is how far outside a
    point lies (exactly along the row's normal).
    """
    v = np.asarray(verts, dtype=float).reshape(-1, 2)
    if len(v) == 1:
        n = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        return n, n @ v[0]
    if len(v) == 2:
        t = (v[1] - v[0]) / np.hypot(*(v[1] - v[0]))
        nrm = np.array([t[1], -t[0]])
        n = np.array([nrm, -nrm, t, -t])
        return n, np.array([nrm @ v[0], -nrm @ v[0], t @ v[1], -t @ v[0]])
    e = np.roll(v, -1, axis=0) - v
    n = np.column_stack([e[:, 1], -e[:, 0]])
    n /= np.hypot(n[:, 0], n[:, 1])[:, None]
    return n, np.einsum("ij,ij->i", n, v)


def excess(points, verts) -> np.ndarray:
    """Largest row excess of each point against a polygon (<= 0 inside)."""
    n, b = polygon_rows(verts)
    return np.max(np.atleast_2d(points) @ n.T - b, axis=1)


def _centred(w):
    """W's vertices about their mean, which keeps tiny iterates far from
    an ill-conditioned LP."""
    w = np.asarray(w, dtype=float).reshape(-1, 2)
    origin = w.mean(axis=0)
    return w - origin, origin


class GameLP:
    """LPs over B_a(W) for one game and discount factor."""

    def __init__(self, payoffs, signal_probs, delta: float):
        self.u = np.asarray(payoffs, dtype=float)
        self.rho = np.asarray(signal_probs, dtype=float)
        self.delta = float(delta)
        n1, n2, self.S = self.rho.shape
        self.profiles = [(i, j) for i in range(n1) for j in range(n2)]
        self.tol = REL_TOL * max(1.0, float(np.max(np.abs(self.u))))

    def deviations(self, a):
        n1, n2 = self.u.shape[:2]
        for d in range(n1):
            if d != a[0]:
                yield 0, (d, a[1])
        for d in range(n2):
            if d != a[1]:
                yield 1, (a[0], d)

    def _blocks(self, a, w, origin):
        """Value map and IC rows of profile a over mu (S*m variables).

        `w` holds W's vertices relative to `origin`, and values come out
        relative to it too; the IC rows are unchanged by the shift since
        signal-probability differences sum to zero.  Returns (V, c, G, h):
        v - origin = c + V mu and, per unit of weight on a, G mu <= h.
        """
        d, S, m = self.delta, self.S, len(w)
        rho = self.rho[a]
        V = d * np.kron(rho, w.T)  # (2, S*m), column y*m + j
        c = (1 - d) * (self.u[a] - origin)
        G, h = [], []
        for i, dev in self.deviations(a):
            drho = self.rho[dev] - rho
            G.append(d * np.kron(drho, w[:, i]))
            h.append((1 - d) * (self.u[a][i] - self.u[dev][i]))
        G = np.array(G).reshape(-1, S * m)
        return V, c, G, np.array(h)

    def _simplex_rows(self, m: int):
        return np.kron(np.eye(self.S), np.ones((1, m)))  # sum_j mu[y, j] = 1

    def support_in(self, a, w, n):
        """max n.v over B_a(W) intersected with W, for each row normal in n.

        Returns one value per row, or None when that set is empty.
        """
        w, origin = _centred(w)
        m = len(w)
        V, c, G, h = self._blocks(a, w, origin)
        k = self.S * m
        # variables: mu (k), nu (m) with v = sum_j nu_j w_j in W
        A_eq = np.zeros((self.S + 1 + 2, k + m))
        A_eq[: self.S, :k] = self._simplex_rows(m)
        A_eq[self.S, k:] = 1.0
        A_eq[self.S + 1 :, :k] = V
        A_eq[self.S + 1 :, k:] = -w.T
        b_eq = np.concatenate([np.ones(self.S + 1), -c])
        A_ub = np.zeros((len(h), k + m))
        A_ub[:, :k] = G
        out = []
        for row in np.atleast_2d(n):
            obj = np.zeros(k + m)
            obj[k:] = -(w @ row)
            res = linprog(obj, A_ub=A_ub if len(h) else None,
                          b_ub=h if len(h) else None, A_eq=A_eq, b_eq=b_eq,
                          bounds=(0, None), method="highs")
            if res.status == 2:
                return None
            if res.status != 0:
                raise RuntimeError(f"support LP failed: {res.message}")
            out.append(row @ origin - res.fun)
        return np.array(out)

    def distance_to_B(self, x, w) -> float:
        """Max-norm distance from x to conv(union_a B_a(W))."""
        w, origin = _centred(w)
        m, S, P = len(w), self.S, len(self.profiles)
        k = S * m
        nvar = P * (k + 1) + 3  # per profile: mu block, lambda; then s (2), t
        eq, eq_b, ub, ub_b = [], [], [], []
        point = np.zeros((2, nvar))
        for p, a in enumerate(self.profiles):
            base = p * (k + 1)
            V, c, G, h = self._blocks(a, w, origin)
            point[:, base : base + k] = V
            point[:, base + k] = c
            rows = np.zeros((S, nvar))
            rows[:, base : base + k] = self._simplex_rows(m)
            rows[:, base + k] = -1.0  # sum_j mu[y, j] = lambda_a
            eq.append(rows)
            eq_b.append(np.zeros(S))
            if len(h):
                r = np.zeros((len(h), nvar))
                r[:, base : base + k] = G
                r[:, base + k] = -h
                ub.append(r)
                ub_b.append(np.zeros(len(h)))
        s0 = P * (k + 1)
        point[:, s0 : s0 + 2] = np.eye(2)  # x = point + s
        lam = np.zeros((1, nvar))
        lam[0, [p * (k + 1) + k for p in range(P)]] = 1.0
        eq += [point, lam]
        eq_b += [np.asarray(x, dtype=float) - origin, np.ones(1)]
        box = np.zeros((4, nvar))
        box[:, s0 : s0 + 2] = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])
        box[:, s0 + 2] = -1.0  # |s_i| <= t
        ub.append(box)
        ub_b.append(np.zeros(4))
        obj = np.zeros(nvar)
        obj[s0 + 2] = 1.0
        bounds = [(0, None)] * s0 + [(None, None)] * 2 + [(0, None)]
        res = linprog(obj, A_ub=np.vstack(ub), b_ub=np.concatenate(ub_b),
                      A_eq=np.vstack(eq), b_eq=np.concatenate(eq_b),
                      bounds=bounds, method="highs")
        if res.status == 2:
            return float("inf")  # no profile is enforceable: B(W) is empty
        if res.status != 0:
            raise RuntimeError(f"distance LP failed: {res.message}")
        return float(res.fun)

    def pure_nash_payoffs(self):
        u = self.u
        return [u[a] for a in self.profiles
                if u[a][0] >= u[:, a[1], 0].max() and u[a][1] >= u[a[0], :, 1].max()]

    def _check_empty(self, w_prev, labels) -> list[Violation]:
        """An empty W_{k+1} is wrong when any B_a(W_k) meets W_k."""
        found = [Violation("complete", float("inf"), f"profile {labels(a)}", labels(a))
                 for a in self.profiles
                 if self.support_in(a, w_prev, [[1.0, 0.0]]) is not None]
        return found + [Violation("nash", float("inf"), f"payoff {u.tolist()}")
                        for u in self.pure_nash_payoffs()]

    def check_application(self, w_prev, w_next, probes=(), labels=str) -> list[Violation]:
        """Every way in which W_{k+1} is not the operator image of W_k.

        outer:    a vertex of W_{k+1} lies outside conv(B(W_k)).
        complete: an LP-certified payoff of some B_a(W_k), with its value
                  in W_k, lies outside W_{k+1}.  W_{k+1}'s own edge
                  normals make this test exact; the unit `probes` are
                  further directions in which support values are compared.
        descent:  a vertex of W_{k+1} lies outside W_k.
        nash:     a pure stage-Nash payoff has left W_{k+1}.
        """
        w_prev = np.asarray(w_prev, dtype=float).reshape(-1, 2)
        w_next = np.asarray(w_next, dtype=float).reshape(-1, 2)
        probes = np.asarray(probes, dtype=float).reshape(-1, 2)
        if len(w_next) == 0:
            return self._check_empty(w_prev, labels)
        found = []
        for x in w_next:
            dist = self.distance_to_B(x, w_prev)
            if dist > self.tol:
                found.append(Violation("outer", dist, f"vertex {x.tolist()}"))
        n, b = polygon_rows(w_next)
        n = np.vstack([n, probes])
        b = np.concatenate([b, (w_next @ probes.T).max(axis=0, initial=-np.inf)])
        h_prev = (w_prev @ n.T).max(axis=0)
        for a in self.profiles:
            # without its IC rows, B_a(W) cut by W has support at most
            # this; rows it already clears need no LP
            bound = np.minimum(h_prev, (1 - self.delta) * (n @ self.u[a])
                               + self.delta * h_prev)
            rows = np.flatnonzero(bound > b + self.tol)
            h = self.support_in(a, w_prev, n[rows]) if len(rows) else None
            if h is None:
                continue
            over = h - b[rows]
            worst = int(np.argmax(over))
            if over[worst] > self.tol:
                found.append(Violation(
                    "complete", float(over[worst]),
                    f"profile {labels(a)} normal {n[rows[worst]].round(6).tolist()}",
                    labels(a)))
        out = excess(w_next, w_prev)
        if out.max() > self.tol:
            found.append(Violation("descent", float(out.max()), "W_k+1 not in W_k"))
        for u in self.pure_nash_payoffs():
            e = float(excess(u, w_next)[0])
            if e > self.tol:
                found.append(Violation("nash", e, f"payoff {u.tolist()}"))
        return found
