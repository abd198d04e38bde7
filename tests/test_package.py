"""The package exports the documented API and nothing else, and its
import loads no module that the solve path does not use."""

import subprocess
import sys

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


def test_import_loads_no_enumerator():
    """`vertex_enum` and `_kernels` load only when `aps.enumerate_product`
    is first read, as the benchmark's tracer does."""
    code = (
        "import sys\n"
        "import ppesolve, ppesolve.cli\n"
        "dead = ('ppesolve.vertex_enum', 'ppesolve._kernels')\n"
        "print(sorted(m for m in dead if m in sys.modules))\n"
        "from ppesolve.aps import enumerate_product\n"
        "print(sorted(m for m in dead if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "['ppesolve._kernels', 'ppesolve.vertex_enum']"]
