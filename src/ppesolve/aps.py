"""Set-operator iteration over payoff polygons.

For each action profile the incentive constraints are expressed purely
in the continuation mapping (the promised value is substituted out).  A
signal the profile never emits only punishes deviations; unless both
players' deviations reach it, its block is dropped or fixed at the
deviator's harshest point of W.  None of this depends on W, so `solve`
compiles it once per profile (`compile_profile`): the folded rows over
the k signals kept, and each kept signal's weight delta * rho(y|a).

Each iterate, per profile, only the W-dependent work remains: a folded
row's offset moves with W's lowest payoffs.  The payoff set of a
profile is the image of W^k, cut by the deviation rows, under the
discounted-average map v = (1-delta) u(a) + sum_y weight_y gamma(y).
When every row holds on the diagonal of W^k, as for a stage-Nash
profile, that image is (1-delta) u(a) + delta W; otherwise a simplex
walk along the polytope's 2-D shadow finds its vertices, or finds it
empty (`shadow`).  The per-profile payoff sets are hulled together.
Iterating that operator from the individually rational feasible set
and stopping on an area-difference threshold yields an outer bound on
the equilibrium payoff set; a profile whose payoff set comes back
empty is not computed again, since the operator is monotone and each
iterate lies in the last.

The certificate `verify_enforceability` does not read these rows: it
poses APS's conditions (continuations in W, the promise kept, no
profitable one-shot deviation) from u, rho and delta itself, and shares
only `geometry.halfspace_rows` with the solver.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .game import StageGame, individually_rational_set
from .geometry import (
    DEFAULT_TOL,
    PolygonV,
    Tolerances,
    area,
    canonical_polygon,
    convex_hull,
    halfspace_rows,
    hausdorff,
    intersect_polygons,
    rdp_simplify,
)
from .shadow import shadow_polygon


def __getattr__(name):
    # perfbench/tracing.py probes aps.enumerate_product by name; nothing
    # here uses it, so it is imported on first access, off the solve path
    if name != "enumerate_product":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .vertex_enum import enumerate_product
    return enumerate_product


# once an iterate's area is below epsilon, the run has converged when
# the Hausdorff distance between successive iterates is below this
HAUSDORFF_EPSILON = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    delta: float
    epsilon: float = 0.005
    theta: float = 0.0
    max_iter: int = 200

    def __post_init__(self):
        # bool is an Integral: True would run one iteration, or read as 1.0
        for name in ("delta", "epsilon", "theta", "max_iter"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, not a bool")
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
    set: PolygonV  # B(W), or with theta > 0 a superset within theta of it
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


@dataclass(frozen=True)
class ProfileSystem:
    """What P(a) needs of the stage game, compiled once per (game, a, delta).

    P(a) is the image of W^k, cut by normals . x <= offsets(W), under
    x -> c + sum_y weights[y] x_y.  An iterate changes only W, so all
    of this stays fixed for a whole solve but the offsets of rows that
    fold a signal, which follow W's lowest payoff per player; when no
    signal folds, the offsets are ic_offsets for every W.
    """

    normals: np.ndarray  # (r, 2k) unit rows over the kept blocks
    ic_offsets: np.ndarray  # (r,) the deviation rows' offsets, unfolded
    folded: np.ndarray  # (r, S-k, 2): the deviation rows' coefficients on the other signals
    norm: np.ndarray  # (r,) length of each deviation row's kept part
    weights: np.ndarray  # (k,) delta * rho(y|a) on the kept signals
    c: np.ndarray  # (2,) (1-delta) u(a)
    diagonal: np.ndarray = field(init=False)  # (r, 2) the rows summed over the kept blocks

    def __post_init__(self):
        # normals . (x, ..., x) = diagonal . x; k from the weights, as a profile may have no rows
        object.__setattr__(self, "diagonal", self.normals.reshape(-1, len(self.weights), 2).sum(axis=1))

    def offsets(self, w: PolygonV) -> np.ndarray:
        """Row offsets over W: a folded signal's block sits at W's lowest
        payoff for the player whose rows reach it."""
        if not self.folded.shape[1]:
            return self.ic_offsets
        shift = np.einsum("ryi,i->r", self.folded, w.low)
        return (self.ic_offsets - shift) / self.norm


def compile_profile(game: StageGame, a: tuple, delta: float) -> ProfileSystem | None:
    """P(a)'s system of rows over the signals that still matter, for any W;
    None when a same-signal deviation is strictly profitable, so that
    P(a) is empty whatever W is.

    Substituting the promised value out leaves, per player i and
    deviation d, one row in continuation space: delta * sum_y
    (rho(y|a) - rho(y|d-profile)) * gamma_i(y) >= (1-delta) *
    (u_i(d-profile) - u_i(a)), scaled to unit length.  A deviation whose
    signal distribution matches the profile's gives a zero row, which
    drops out when the deviation does not gain.

    A signal that `a` never emits leaves the promised value alone; its
    coefficients, delta * rho(y|d) / |n| >= 0, sit on the deviating
    player's coordinate only.  Unless both players' rows reach it, its
    block drops out: when only player i's rows reach it, gamma(y) at
    player i's lowest payoff in W satisfies each of those rows at least
    as well as any other point of W, so that term moves into the
    offsets.  When nothing folds, the rows stay as they are.
    """
    S = game.num_signals
    rho = game.signal_probs[a[0], a[1]]
    u_a = game.payoffs[a[0], a[1]]
    zero_tol = 1e-12 * max(1.0, game.payoff_magnitude)
    rows, offsets = [], []
    for i in (0, 1):
        for d in range(game.num_actions[i]):
            if d == a[i]:
                continue
            dev = (d, a[1]) if i == 0 else (a[0], d)
            gain = game.payoffs[dev][i] - u_a[i]
            n = np.zeros(2 * S)
            n[2 * np.arange(S) + i] = -delta * (rho - game.signal_probs[dev])
            b = -(1.0 - delta) * gain
            norm = float(np.linalg.norm(n))
            if norm <= zero_tol:
                if b < -zero_tol:
                    return None
                continue  # 0 <= b rows are vacuous
            rows.append(n / norm)
            offsets.append(b / norm)
    r = len(offsets)
    unfolded = np.array(rows).reshape(r, 2 * S)
    n = unfolded.reshape(r, S, 2)
    reached = (n != 0).any(axis=0)  # (S, 2): player i's rows reach signal y
    kept = (rho > 0) | reached.all(axis=1)
    if kept.all():
        normals, folded, norm = unfolded, np.zeros((r, 0, 2)), np.ones(r)
    else:
        folded = n[:, ~kept]
        normals = n[:, kept].reshape(r, 2 * kept.sum())
        # a row keeps a nonzero kept part: a deviation matching rho(.|a)
        # on its support matches it everywhere, and gave a zero row above
        norm = np.linalg.norm(normals, axis=1)
        normals = normals / norm[:, None]
    c = (1.0 - delta) * u_a
    return ProfileSystem(normals, np.array(offsets), folded, norm, delta * rho[kept], c)


def compile_profiles(game: StageGame, delta: float) -> tuple:
    """`compile_profile` for every profile, in `game.profiles()` order."""
    return tuple(compile_profile(game, a, delta) for a in game.profiles())


def enforceable_payoffs(system: ProfileSystem, w: PolygonV, tol: Tolerances = DEFAULT_TOL):
    """P(a) against W, from the profile's compiled `system` alone.

    `solve` compiles each profile once (`compile_profile`; a profile
    that compiles to None has an empty P(a) and never gets here), so a
    call, that is per profile and iterate, does only the W-dependent
    work.
    The folded offsets are shifted to W.  When every row holds, within
    the walk's on-plane band, at the k-fold repeats of W's vertices,
    P(a) = (1-delta) u(a) + delta W with no pivot; a row's value at the
    repeat of x is its compiled diagonal row's value at x, so this takes
    one product with W's vertices.  Every signal `a` emits is kept, so
    the weights sum to delta and P(a) lies in c + delta W.  The repeats
    span the diagonal {(x, ..., x) : x in W} of W^k, so the rows hold on
    all of it, and its image is c + delta W.  An empty row set holds
    vacuously, and a stage-Nash profile's rows hold because a constant
    continuation enforces it.
    Otherwise a simplex walk along the polytope's 2-D shadow finds the
    vertices of P(a), and its dual-simplex phase finds P(a) empty when
    no point of W^k meets every row (`shadow.shadow_polygon`).

    Returns (PolygonV, pivots): an empty polygon means `a` is not
    enforceable against W; pivots counts the walk's simplex pivots, 0
    when W is empty or the closed form settles it.
    """
    if w.is_empty:
        return PolygonV.empty(), 0
    offsets = system.offsets(w)
    if np.all(w.vertices @ system.diagonal.T - offsets <= tol.eps * np.maximum(1.0, np.abs(offsets))):
        # every row holds on the diagonal of W^k, the tuples that repeat
        # one vertex of W: P(a) = (1-delta) u(a) + delta W, W's cycle
        k = len(system.weights)
        image = system.weights @ np.tile(w.vertices, k).reshape(-1, k, 2) + system.c
        return canonical_polygon(image.tolist(), tol), 0
    return shadow_polygon(w, system.weights, system.normals, offsets, system.c, tol)


def apply_B(
    game: StageGame,
    delta: float,
    w: PolygonV,
    theta: float = 0.0,
    tol: Tolerances = DEFAULT_TOL,
    systems: tuple | None = None,
) -> BResult:
    """One application of the set operator, with optional simplification.

    Per-profile sets are computed and merged in fixed profile order;
    theta > 0 widens the merged set B(W) by at most theta to drop vertices.
    `systems` holds `compile_profile(game, a, delta)` for each profile in
    that order; `solve` compiles them once, a call without them compiles
    its own.  A None in a profile's slot gives it the empty set without
    computing it: the slot of an infeasible profile holds None, and
    `solve` passes None for each profile whose set was empty at an
    earlier iterate.
    """
    if systems is None:
        systems = compile_profiles(game, delta)
    per_action = {}
    pts = []
    for label, system in zip(game.profile_keys, systems):
        if system is None:
            poly = PolygonV.empty()
        else:
            poly, _ = enforceable_payoffs(system, w, tol)
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

    Each iterate is the operator's set clipped by the last.  The operator
    is monotone and theta > 0 only widens B(W), so each iterate contains
    the exact iterate of the same index, and the equilibrium payoff set.

    The area-difference rule applies while the iterate is
    full-dimensional at scale epsilon; once its area drops below epsilon
    the rule switches to a Hausdorff-distance threshold so collapse to a
    segment or point is detected rather than mistaken for convergence.
    """
    scale = max(1.0, game.payoff_magnitude)
    tol = DEFAULT_TOL.scaled(scale)
    w = individually_rational_set(game, tol).individually_rational

    a_new = area(w)
    trace = [IterationTrace(0, w.vertices, a_new, 0.0, 0.0, {}, 0.0)]
    if w.is_empty:
        return Report(
            tuple(trace),
            "empty_set",
            w,
            config,
            tol,
            "the individually rational feasible set is already empty",
        )

    # the stage game and delta fix every profile's rows: compile them once
    systems = compile_profiles(game, config.delta)
    stop_reason = "max_iter"
    message = ""
    for k in range(1, config.max_iter + 1):
        t0 = time.perf_counter()
        res = apply_B(game, config.delta, w, config.theta, tol, systems)
        wall_ms = (time.perf_counter() - t0) * 1e3
        # theta > 0 widens the set, which can then reach past w; the clip
        # keeps the descent that the skip of empty profiles below relies on
        new = intersect_polygons(res.set, w, tol)
        a_prev, a_new = a_new, area(new)  # w's area is the last iterate's
        hd = hausdorff(w, new) if not new.is_empty else float("nan")
        enforceable = {lab: not p.is_empty for lab, p in res.per_action.items()}
        # B_a is monotone and each iterate lies in the last, so a profile
        # whose P(a) is empty stays so: it is not computed again
        systems = tuple(s if ok else None for s, ok in zip(systems, enforceable.values()))
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


def verify_enforceability(game: StageGame, a: tuple, delta: float, v, w: PolygonV):
    """Independent check: recover an explicit continuation mapping for v.

    Poses APS's conditions on one continuation pair gamma(y) per signal
    from u, rho and delta alone: each gamma(y) lies in W; the promise is
    kept, v = (1-delta) u(a) + delta sum_y rho(y|a) gamma(y); and no
    one-shot deviation d of player i pays, delta sum_y rho(y|d-profile)
    gamma_i(y) <= v_i - (1-delta) u_i(d-profile).  Of the solver it
    shares only `halfspace_rows`, and it solves the system with an LP
    that never touches the shadow walk.  Returns a Certificate or a
    Refusal naming the most-violated row.
    """
    from scipy.optimize import linprog  # only this check needs scipy

    v = np.asarray(v, dtype=float).reshape(2)
    if w.is_empty:
        return Refusal("the continuation set is empty", float("inf"))
    S = game.num_signals
    rho = delta * game.signal_probs[a[0], a[1]]
    u = game.payoffs[a[0], a[1]]
    normals, offsets = halfspace_rows(w)
    m = len(offsets)
    A_ub = [np.kron(np.eye(S), normals)]
    b_ub = [np.tile(offsets, S)]
    row_names = [f"continuation row {j % m} of signal {game.signal_labels[j // m]}" for j in range(m * S)]
    for i in (0, 1):
        for d in range(game.num_actions[i]):
            if d == a[i]:
                continue
            dev = (d, a[1]) if i == 0 else (a[0], d)
            rho_d = delta * game.signal_probs[dev]
            if np.array_equal(rho_d, rho) and game.payoffs[dev][i] > u[i]:
                # no gamma tells this deviation apart, and it gains
                return Refusal("profile has a profitable undetectable deviation", float("inf"))
            row = np.zeros((1, 2 * S))
            row[0, i::2] = rho_d
            A_ub.append(row)
            b_ub.append([v[i] - (1.0 - delta) * game.payoffs[dev][i]])
            row_names.append(f"deviation of player {i + 1} to {game.action_labels[i][d]!r}")
    A_ub, b_ub = np.vstack(A_ub), np.concatenate(b_ub)
    A_eq = np.kron(rho, np.eye(2))
    b_eq = v - (1.0 - delta) * u

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
