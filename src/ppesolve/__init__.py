"""Equilibrium payoff set computation for two-player repeated games
with imperfect public monitoring and public randomization."""

from .aps import (
    BResult,
    Certificate,
    ICSystem,
    Refusal,
    Report,
    SolverConfig,
    apply_B,
    enforceable_payoffs,
    ic_constraints,
    solve,
    verify_enforceability,
)
from .game import (
    GameFormatError,
    MinmaxPair,
    PayoffSetPair,
    StageGame,
    feasible_set,
    individually_rational_set,
    minmax,
    parse_game,
    pure_nash,
    serialize_game,
)
from .geometry import (
    PolygonV,
    Tolerances,
    area,
    convex_hull,
    halfspace_rows,
    hausdorff,
    intersect_halfplane,
    rdp_simplify,
)
from .vertex_enum import (
    HPolytope,
    VertexSet,
    product_polytope,
)

__version__ = "0.1.0"

__all__ = [
    "BResult",
    "Certificate",
    "GameFormatError",
    "HPolytope",
    "ICSystem",
    "MinmaxPair",
    "PayoffSetPair",
    "PolygonV",
    "Refusal",
    "Report",
    "SolverConfig",
    "StageGame",
    "Tolerances",
    "VertexSet",
    "apply_B",
    "area",
    "convex_hull",
    "enforceable_payoffs",
    "feasible_set",
    "halfspace_rows",
    "hausdorff",
    "ic_constraints",
    "individually_rational_set",
    "intersect_halfplane",
    "minmax",
    "parse_game",
    "product_polytope",
    "pure_nash",
    "rdp_simplify",
    "serialize_game",
    "solve",
    "verify_enforceability",
]
