"""Set-operator iteration over payoff polygons.

For each action profile the incentive constraints are expressed purely
in the continuation mapping (the promised value is substituted out).  A
signal the profile never emits only punishes deviations; unless both
players' deviations reach it, its block is dropped or fixed at the
deviator's harshest point of W.  Each row's extremes over W^k are sums
of per-block extremes over W's vertices, so a row that cannot cut is
dropped, and a row that excludes all of W^k empties the profile, before
any simplex pivot.  The payoff set of a profile is the image of the
continuation polytope over the remaining signals, cut by the remaining
rows, under the discounted-average map; a simplex walk along the
polytope's 2-D shadow finds its vertices (`shadow`), and the
per-profile payoff sets are hulled together.  Iterating that operator
from the individually rational feasible set and stopping on an
area-difference threshold yields an outer bound on the equilibrium
payoff set.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .game import StageGame, individually_rational_set
from .geometry import (
    DEFAULT_TOL,
    PolygonV,
    Tolerances,
    area,
    convex_hull,
    hausdorff,
    intersect_polygons,
    rdp_simplify,
)
from .shadow import shadow_polygon
# unused here, but perfbench/tracing.py probes aps.enumerate_product by name
from .vertex_enum import enumerate_product, product_polytope  # noqa: F401


# relative rounding bound per term of a dot product, with room to spare
_ROUNDING = 8 * np.finfo(float).eps

# once an iterate's area is below epsilon, the run has converged when
# the Hausdorff distance between successive iterates is below this
HAUSDORFF_EPSILON = 1e-6


@dataclass(frozen=True)
class ICSystem:
    """Deviation inequalities for one profile, over continuation space.

    Rows are in n.gamma <= b form with unit normals; a deviation whose
    signal distribution matches the profile's collapses to a constant
    row, which either drops out or marks the profile unenforceable.
    """

    profile: tuple
    normals: np.ndarray  # (r, 2S)
    offsets: np.ndarray  # (r,)
    labels: tuple  # (player index, deviation action index) per row
    infeasible: bool = False


@dataclass(frozen=True)
class SolverConfig:
    delta: float
    epsilon: float = 0.005
    theta: float = 0.0
    max_iter: int = 200

    def __post_init__(self):
        for name in ("delta", "epsilon", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError("delta must lie in [0, 1)")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.theta < 0:
            raise ValueError("theta must be >= 0")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError("max_iter must be an integer >= 1")


@dataclass(frozen=True)
class BResult:
    set: PolygonV  # B(W), after optional boundary simplification
    per_action: dict  # profile label tuple -> PolygonV (possibly empty)


@dataclass(frozen=True)
class IterationTrace:
    iteration: int
    vertices: np.ndarray
    area: float
    area_diff: float
    hausdorff_diff: float
    enforceable: dict  # profile label tuple -> bool ({} for iteration 0)
    wall_ms: float


@dataclass(frozen=True)
class Report:
    trace: tuple  # of IterationTrace
    stop_reason: str  # area_epsilon | hausdorff_epsilon | max_iter | empty_set
    final_set: PolygonV
    config: SolverConfig
    tolerances: Tolerances
    message: str = ""

    @property
    def iterations(self) -> int:
        return len(self.trace) - 1

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("area_epsilon", "hausdorff_epsilon")


@dataclass(frozen=True)
class Certificate:
    gamma: np.ndarray  # (S, 2): continuation pair per signal
    max_violation: float


@dataclass(frozen=True)
class Refusal:
    row: str  # human-readable description of the most-violated row
    violation: float


def ic_constraints(game: StageGame, a: tuple, delta: float) -> ICSystem:
    """Deviation rows in continuation space for profile `a`.

    Substituting the promised-value identity leaves, per player i and
    deviation d: delta * sum_y (rho(y|a) - rho(y|d-profile)) * gamma_i(y)
    >= (1-delta) * (u_i(d-profile) - u_i(a)).
    """
    S = game.num_signals
    rho_a = game.signal_probs[a[0], a[1]]
    u_a = game.payoffs[a[0], a[1]]
    normals, offsets, labels = [], [], []
    infeasible = False
    zero_tol = 1e-12 * max(1.0, game.payoff_magnitude)
    for i in (0, 1):
        for d in range(game.num_actions[i]):
            if d == a[i]:
                continue
            dev = (d, a[1]) if i == 0 else (a[0], d)
            rho_d = game.signal_probs[dev[0], dev[1]]
            gain = game.payoffs[dev[0], dev[1]][i] - u_a[i]
            n = np.zeros(2 * S)
            n[2 * np.arange(S) + i] = -delta * (rho_a - rho_d)
            b = -(1.0 - delta) * gain
            norm = float(np.linalg.norm(n))
            if norm <= zero_tol:
                if b < -zero_tol:
                    infeasible = True
                continue  # 0 <= b rows are vacuous
            normals.append(n / norm)
            offsets.append(b / norm)
            labels.append((i, d))
    if normals:
        normals = np.array(normals)
        offsets = np.array(offsets)
    else:
        normals = np.zeros((0, 2 * S))
        offsets = np.zeros(0)
    return ICSystem(tuple(a), normals, offsets, tuple(labels), infeasible)


def _payoff_map(game: StageGame, a: tuple, delta: float):
    """v = (1-delta) u(a) + delta sum_y rho(y|a) gamma(y) as (M, c)."""
    S = game.num_signals
    rho = game.signal_probs[a[0], a[1]]
    M = np.zeros((2, 2 * S))
    M[0, 2 * np.arange(S)] = delta * rho
    M[1, 2 * np.arange(S) + 1] = delta * rho
    c = (1.0 - delta) * game.payoffs[a[0], a[1]]
    return M, c


def _fold_unreachable_signals(game: StageGame, a: tuple, ic: ICSystem, w: PolygonV):
    """Deviation rows over the signals that still matter for P(a).

    A signal that `a` never emits leaves the promised value alone; its
    coefficients, delta * rho(y|d) / |n| >= 0, sit on the deviating
    player's coordinate only.  Unless both players' rows reach it, its
    block drops out: when only player i's rows reach it, gamma(y) at
    player i's lowest payoff in W satisfies each of those rows at least
    as well as any other point of W, so that term moves into the
    offsets.  Returns (kept signal indices, normals, offsets); when
    nothing folds these are ic's own arrays.
    """
    S = game.num_signals
    rho = game.signal_probs[a[0], a[1]]
    n = ic.normals.reshape(len(ic.offsets), S, 2)
    reached = (n != 0).any(axis=0)  # (S, 2): player i's rows reach signal y
    kept = (rho > 0) | reached.all(axis=1)
    if kept.all():
        return np.arange(S), ic.normals, ic.offsets
    offsets = ic.offsets - np.einsum("ryi,i->r", n[:, ~kept], w.vertices.min(axis=0))
    normals = n[:, kept].reshape(len(offsets), 2 * kept.sum())
    # a row keeps a nonzero kept part: a deviation matching rho(.|a) on
    # its support matches it everywhere, and ic_constraints dropped it
    norm = np.linalg.norm(normals, axis=1)
    return np.flatnonzero(kept), normals / norm[:, None], offsets / norm


def _cutting_rows(w: PolygonV, k: int, normals, offsets, tol: Tolerances):
    """Indices of the rows that may cut W^k; None when one row empties it.

    A row's least and greatest values over W^k are sums of per-block
    extremes over W's vertices.  The margin is the shadow walk's on-plane
    band plus a bound on the rounding of either sum, so a row dropped
    here would leave every vertex of W^k strictly inside, and a row
    that empties here would leave none on or inside its plane.
    """
    n = normals.reshape(len(offsets), k, 2)
    vals = n @ w.vertices.T  # (rows, k, |W|)
    size = (np.abs(n) @ np.abs(w.vertices).T).max(axis=2).sum(axis=1) + np.abs(offsets)
    margin = tol.eps * np.maximum(1.0, np.abs(offsets)) + _ROUNDING * (k + 1) * size
    if np.any(vals.min(axis=2).sum(axis=1) - offsets > margin):
        return None
    return np.flatnonzero(vals.max(axis=2).sum(axis=1) - offsets >= -margin)


def enforceable_payoffs(
    game: StageGame,
    a: tuple,
    delta: float,
    w: PolygonV,
    tol: Tolerances = DEFAULT_TOL,
):
    """P(a): image of the IC-cut continuation polytope, as a polygon.

    The polytope lives over the signals `a` can emit plus those that
    both players' deviations reach; every other signal block is dropped
    or folded into the deviation rows' offsets (see
    `_fold_unreachable_signals`), which leaves P(a) unchanged.

    Rows are then screened over W^k (`_cutting_rows`): P(a) is empty if
    one row excludes all of W^k, and a row that cuts nothing is dropped.
    With no row left, P(a) = (1-delta) u(a) + delta W in closed form.
    Otherwise a simplex walk along the polytope's 2-D shadow finds the
    vertices of P(a) (`shadow.shadow_polygon`).

    Returns (PolygonV, pivots): an empty polygon means `a` is not
    enforceable against W; pivots counts the walk's simplex pivots, 0
    when the screen or the closed form settles the profile.
    """
    if w.is_empty:
        return PolygonV.empty(), 0
    ic = ic_constraints(game, a, delta)
    if ic.infeasible:
        return PolygonV.empty(), 0
    kept, normals, offsets = _fold_unreachable_signals(game, a, ic, w)
    rows = _cutting_rows(w, len(kept), normals, offsets, tol)
    if rows is None:
        return PolygonV.empty(), 0
    M, c = _payoff_map(game, a, delta)
    cols = (2 * kept[:, None] + np.arange(2)).ravel()
    if len(rows) == 0:
        # Q = W^k, so P(a) = (1-delta) u(a) + delta W: the images of the
        # tuples that repeat one vertex of W
        return convex_hull(np.tile(w.vertices, len(kept)) @ M[:, cols].T + c, tol), 0
    return shadow_polygon(w, len(kept), normals[rows], offsets[rows], M[:, cols], c, tol)


def apply_B(
    game: StageGame,
    delta: float,
    w: PolygonV,
    theta: float = 0.0,
    tol: Tolerances = DEFAULT_TOL,
) -> BResult:
    """One application of the set operator, with optional simplification.

    Per-profile sets are computed and merged in fixed profile order.
    """
    per_action = {}
    pts = []
    for a in game.profiles():
        poly, _ = enforceable_payoffs(game, a, delta, w, tol)
        label = (game.action_labels[0][a[0]], game.action_labels[1][a[1]])
        per_action[label] = poly
        if not poly.is_empty:
            pts.append(poly.vertices)
    if not pts:
        return BResult(PolygonV.empty(), per_action)
    hull = convex_hull(np.vstack(pts), tol)
    if theta > 0:
        hull = rdp_simplify(hull, theta, tol)
    return BResult(hull, per_action)


def solve(game: StageGame, config: SolverConfig) -> Report:
    """Iterate the operator from W0 until the stop rule fires.

    The area-difference rule applies while the iterate is
    full-dimensional at scale epsilon; once its area drops below epsilon
    the rule switches to a Hausdorff-distance threshold so collapse to a
    segment or point is detected rather than mistaken for convergence.
    """
    scale = max(1.0, game.payoff_magnitude)
    tol = DEFAULT_TOL.scaled(scale)
    w = individually_rational_set(game, tol).individually_rational

    trace = [
        IterationTrace(0, w.vertices, area(w), 0.0, 0.0, {}, 0.0)
    ]
    if w.is_empty:
        return Report(
            tuple(trace),
            "empty_set",
            w,
            config,
            tol,
            "the individually rational feasible set is already empty",
        )

    stop_reason = "max_iter"
    message = ""
    for k in range(1, config.max_iter + 1):
        t0 = time.perf_counter()
        res = apply_B(game, config.delta, w, config.theta, tol)
        wall_ms = (time.perf_counter() - t0) * 1e3
        # boundary simplification trims vertices inward, so a later
        # application of the operator may partially regrow past the
        # previous iterate; clipping restores the monotone descent
        new = intersect_polygons(res.set, w, tol)
        a_prev, a_new = area(w), area(new)
        hd = hausdorff(w, new) if not new.is_empty else float("nan")
        enforceable = {lab: not p.is_empty for lab, p in res.per_action.items()}
        trace.append(
            IterationTrace(
                k, new.vertices, a_new, a_prev - a_new, hd, enforceable, wall_ms
            )
        )
        if new.is_empty:
            stop_reason = "empty_set"
            message = (
                "the operator returned the empty set: this outer method "
                "found no pure-strategy equilibrium payoffs"
            )
            w = new
            break
        if a_new >= config.epsilon:
            # the relative guard keeps a steady geometric collapse from
            # passing as convergence while its area is still just above
            # epsilon; real fixed points have vanishing relative change
            if (
                abs(a_prev - a_new) < config.epsilon
                and abs(a_prev - a_new) <= 0.1 * a_new
            ):
                stop_reason = "area_epsilon"
                w = new
                break
        else:
            if hd < HAUSDORFF_EPSILON:
                stop_reason = "hausdorff_epsilon"
                w = new
                break
        w = new
    return Report(tuple(trace), stop_reason, w, config, tol, message)


def verify_enforceability(
    game: StageGame,
    a: tuple,
    delta: float,
    v,
    w: PolygonV,
    tol: Tolerances = DEFAULT_TOL,
):
    """Independent check: recover an explicit continuation mapping for v.

    Solves the stacked feasibility system (continuations in W, deviation
    rows, promised value pinned to v) with an LP that never touches the
    shadow walk.  Returns a Certificate or a Refusal naming the
    most-violated row.
    """
    from scipy.optimize import linprog  # only this check needs scipy

    v = np.asarray(v, dtype=float).reshape(2)
    S = game.num_signals
    prod = product_polytope(w, S)
    ic = ic_constraints(game, a, delta)
    A_ub = np.vstack([prod.normals, ic.normals])
    b_ub = np.concatenate([prod.offsets, ic.offsets])
    row_names = [
        f"continuation row {j % (prod.num_rows // S)} of signal "
        f"{game.signal_labels[j // (prod.num_rows // S)]}"
        for j in range(prod.num_rows)
    ] + [
        f"deviation of player {i + 1} to {game.action_labels[i][d]!r}"
        for i, d in ic.labels
    ]
    M, c = _payoff_map(game, a, delta)
    A_eq, b_eq = M, v - c
    if ic.infeasible:
        # a same-signal deviation is strictly profitable: no gamma helps
        return Refusal("profile has a profitable undetectable deviation", float("inf"))

    dim = 2 * S
    res = linprog(
        np.zeros(dim),
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=[(None, None)] * dim,
        method="highs",
    )
    if res.status == 0:
        x = res.x
        viol = max(
            float(np.max(A_ub @ x - b_ub, initial=0.0)),
            float(np.max(np.abs(A_eq @ x - b_eq), initial=0.0)),
        )
        return Certificate(x.reshape(S, 2), max(0.0, viol))

    # infeasible: relax all rows by a common t and report the binding one
    n_ub, n_eq = len(b_ub), len(b_eq)
    A = np.zeros((n_ub + 2 * n_eq, dim + 1))
    A[:n_ub, :dim] = A_ub
    A[n_ub : n_ub + n_eq, :dim] = A_eq
    A[n_ub + n_eq :, :dim] = -A_eq
    A[:, dim] = -1.0
    rhs = np.concatenate([b_ub, b_eq, -b_eq])
    obj = np.zeros(dim + 1)
    obj[dim] = 1.0
    relaxed = linprog(
        obj,
        A_ub=A,
        b_ub=rhs,
        bounds=[(None, None)] * dim + [(0, None)],
        method="highs",
    )
    if relaxed.status != 0:
        return Refusal("relaxation LP failed", float("inf"))
    x = relaxed.x[:dim]
    slacks = np.concatenate([A_ub @ x - b_ub, np.abs(A_eq @ x - b_eq)])
    names = row_names + ["promised value, player 1", "promised value, player 2"]
    worst = int(np.argmax(slacks))
    return Refusal(names[worst], float(slacks[worst]))
