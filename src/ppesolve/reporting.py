"""Run artifacts: report JSON, per-iteration CSV trace, and an SVG view.

All writers are deterministic: identical reports produce byte-identical
files (wall-clock columns excepted, since they record real time).
"""

from __future__ import annotations

import json
import math

import numpy as np

from .aps import HAUSDORFF_EPSILON, Report
from .geometry import area


def _jfloat(x: float):
    return None if (x is None or math.isnan(x)) else float(x)


def report_to_dict(report: Report) -> dict:
    cfg = report.config
    return {
        "config": {
            "delta": cfg.delta,
            "epsilon": cfg.epsilon,
            "theta": cfg.theta,
            "max_iter": cfg.max_iter,
            "hausdorff_epsilon": HAUSDORFF_EPSILON,
        },
        "tolerances": {"eps": report.tolerances.eps},
        "converged": report.converged,
        "stop_reason": report.stop_reason,
        "message": report.message,
        "iterations": report.iterations,
        "final_vertices": report.final_set.vertices.tolist(),
        "final_area": area(report.final_set),
        "trace": [
            {
                "iteration": t.iteration,
                "vertex_count": int(len(t.vertices)),
                "area": t.area,
                "area_diff": t.area_diff,
                "hausdorff_diff": _jfloat(t.hausdorff_diff),
                "wall_ms": t.wall_ms,
                "enforceable": {",".join(k): v for k, v in t.enforceable.items()},
                "vertices": np.asarray(t.vertices).tolist(),
            }
            for t in report.trace
        ],
    }


def write_report_json(report: Report, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report_to_dict(report), f, indent=2)
        f.write("\n")


def _vertex_dump(vertices) -> str:
    return ";".join(f"{x!r}:{y!r}" for x, y in np.asarray(vertices).reshape(-1, 2))


def write_trace_csv(report: Report, path) -> None:
    lines = ["iteration,vertex_count,area,area_diff,hausdorff_diff,wall_ms,vertices"]
    for t in report.trace:
        lines.append(
            f"{t.iteration},{len(t.vertices)},{t.area!r},{t.area_diff!r},"
            f"{t.hausdorff_diff!r},{t.wall_ms!r},{_vertex_dump(t.vertices)}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


# SVG attributes by vertex count (3 for any polygon)
_W0_STYLES = {
    3: 'fill="none" stroke="#444444" stroke-width="1.5" stroke-dasharray="6,3"',
    2: 'stroke="#444444" stroke-width="1.5"',
}
_FINAL_STYLES = {
    3: 'fill="#4477aa" fill-opacity="0.45" stroke="#224466" stroke-width="1.5"',
    2: 'stroke="#224466" stroke-width="2.5"',
    1: 'r="4" fill="#224466"',
}


def emit_svg(report: Report, path) -> None:
    """Initial set outline with the final set filled on top."""
    if not report.trace:
        raise ValueError("empty trace")
    w0 = np.asarray(report.trace[0].vertices).reshape(-1, 2)
    final = report.final_set.vertices
    pts = w0 if len(w0) else np.zeros((1, 2))
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    lo = lo - 0.1 * span
    hi = hi + 0.1 * span
    size = 480.0
    margin = 50.0

    def to_svg(p):
        x = margin + (p[0] - lo[0]) / (hi[0] - lo[0]) * size
        y = margin + (hi[1] - p[1]) / (hi[1] - lo[1]) * size
        return f"{x:.6f}", f"{y:.6f}"

    def shape(vertices, styles):
        """A polygon, line or circle by vertex count; none without a style."""
        n = min(len(vertices), 3)
        if n not in styles:
            return []
        xy = [to_svg(p) for p in vertices]
        if n == 3:
            tag = f'polygon points="{" ".join(f"{x},{y}" for x, y in xy)}"'
        elif n == 2:
            tag = f'line x1="{xy[0][0]}" y1="{xy[0][1]}" x2="{xy[1][0]}" y2="{xy[1][1]}"'
        else:
            tag = f'circle cx="{xy[0][0]}" cy="{xy[0][1]}"'
        return [f"<{tag} {styles[n]}/>"]

    total = size + 2 * margin
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total:.0f}" '
        f'height="{total:.0f}" viewBox="0 0 {total:.0f} {total:.0f}">',
        f'<rect width="{total:.0f}" height="{total:.0f}" fill="white"/>',
        *shape(w0, _W0_STYLES),
        *shape(final, _FINAL_STYLES),
    ]
    parts.append(
        f'<text x="{margin + size / 2:.0f}" y="{total - 12:.0f}" '
        'font-family="sans-serif" font-size="14" text-anchor="middle">'
        "player 1 payoff</text>"
    )
    parts.append(
        f'<text x="16" y="{margin + size / 2:.0f}" font-family="sans-serif" '
        f'font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 16 {margin + size / 2:.0f})">player 2 payoff</text>'
    )
    parts.append(
        f'<text x="{margin:.0f}" y="{total - 30:.0f}" font-family="sans-serif" '
        f'font-size="11">[{lo[0]:.3f}, {hi[0]:.3f}] x [{lo[1]:.3f}, {hi[1]:.3f}]'
        "</text>"
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(parts) + "\n")
