"""The package exports the documented API and nothing else."""

import ppesolve

DOCUMENTED = {
    "GameFormatError",
    "PolygonV",
    "Report",
    "SolverConfig",
    "StageGame",
    "individually_rational_set",
    "parse_game",
    "solve",
    "verify_enforceability",
}


def test_exports_are_the_documented_api():
    assert sorted(ppesolve.__all__) == sorted(DOCUMENTED)
    for name in ppesolve.__all__:
        assert getattr(ppesolve, name) is not None
