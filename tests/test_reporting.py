"""`final.svg` bytes for every shape of W0 and of the final set, and the
`trace.csv` cells."""

import csv
import hashlib
import math

import numpy as np
import pytest

from ppesolve.aps import IterationTrace, Report, SolverConfig
from ppesolve.geometry import PolygonV, Tolerances
from ppesolve.reporting import emit_svg, write_trace_csv

POLYGON = [[0.0, 0.0], [3.0, 0.25], [2.5, 2.0], [-0.5, 1.5]]
SEGMENT = [[0.5, 0.25], [2.0, 1.75]]
POINT = [[1.25, 0.75]]

# (W0, final set) -> SHA-256 of final.svg
CASES = {
    "w0 polygon, final polygon": (
        POLYGON, [[0.5, 0.5], [2.0, 0.5], [1.5, 1.5]],
        "4a4e3dd856bdaeaab3acabdbc0d091f12efdfc8ab7f904a32a5398438f8c62a7",
    ),
    "w0 polygon, final segment": (
        POLYGON, SEGMENT, "5e9bea993fe27c460db3af67ace19e6aab4bce96049dedc33b2f42898c50273c"
    ),
    "w0 polygon, final point": (
        POLYGON, POINT, "02bac236e8733b1a3b86db03e0f48b1aa568b3c249db2aff82f696ec8f6f6556"
    ),
    "w0 segment, final segment": (
        SEGMENT, [[0.75, 0.5], [1.5, 1.25]],
        "51ec96936221158db82c4fa7593b2da1f2113941668a64f76d6498d0eb9eb391",
    ),
    "w0 segment, final point": (
        SEGMENT, POINT, "341af6bf22d328fdc75d8d868bd27d2fac8b80b650a84b738e869532eb789627"
    ),
    # nothing is drawn for a point W0 or an empty final set
    "w0 point, final point": (
        POINT, POINT, "54cd6a2ff81f5c425381345e6c28cee2cc26ac9bfabb3c78d06d84f95fbd559a"
    ),
    "w0 polygon, final empty": (
        POLYGON, np.zeros((0, 2)), "d5efa886b067b1ad8f21aba59ae91a8ee7e744dda3d6e641e7327edd17b78d52"
    ),
}


def svg_report(w0, final):
    w0 = np.asarray(w0, dtype=float)
    trace = (IterationTrace(0, w0, 0.0, math.nan, math.nan, {}, {}, 0.0),)
    return Report(trace, "area_epsilon", PolygonV(final), SolverConfig(delta=0.9), Tolerances())


@pytest.mark.parametrize("case", CASES)
def test_svg_bytes_are_pinned(case, tmp_path):
    w0, final, digest = CASES[case]
    path = tmp_path / "final.svg"
    emit_svg(svg_report(w0, final), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_trace_csv_cells_are_the_iterates(pinned_runs, tmp_path):
    """Every numeric cell of trace.csv parses with float(), and each
    vertices cell gives back its iterate exactly."""
    report = pinned_runs["pd delta=0.9 theta=0.02"]
    path = tmp_path / "trace.csv"
    write_trace_csv(report, path)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(report.trace)
    for row, t in zip(rows, report.trace):
        for key in ("area", "area_diff", "hausdorff_diff", "wall_ms"):
            float(row[key])
        cells = [[float(x) for x in cell.split(":")] for cell in row["vertices"].split(";")]
        assert np.array(cells).tobytes() == np.asarray(t.vertices).tobytes()
