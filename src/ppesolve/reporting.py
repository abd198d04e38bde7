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
        return f"{x:.6f},{y:.6f}"

    def poly_attr(vertices):
        return " ".join(to_svg(p) for p in vertices)

    total = size + 2 * margin
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total:.0f}" '
        f'height="{total:.0f}" viewBox="0 0 {total:.0f} {total:.0f}">',
        f'<rect width="{total:.0f}" height="{total:.0f}" fill="white"/>',
    ]
    if len(w0) >= 3:
        parts.append(
            f'<polygon points="{poly_attr(w0)}" fill="none" stroke="#444444" '
            'stroke-width="1.5" stroke-dasharray="6,3"/>'
        )
    elif len(w0) == 2:
        a, b = to_svg(w0[0]).split(","), to_svg(w0[1]).split(",")
        parts.append(
            f'<line x1="{a[0]}" y1="{a[1]}" x2="{b[0]}" y2="{b[1]}" '
            'stroke="#444444" stroke-width="1.5"/>'
        )
    if len(final) >= 3:
        parts.append(
            f'<polygon points="{poly_attr(final)}" fill="#4477aa" '
            'fill-opacity="0.45" stroke="#224466" stroke-width="1.5"/>'
        )
    elif len(final) == 2:
        a, b = to_svg(final[0]).split(","), to_svg(final[1]).split(",")
        parts.append(
            f'<line x1="{a[0]}" y1="{a[1]}" x2="{b[0]}" y2="{b[1]}" '
            'stroke="#224466" stroke-width="2.5"/>'
        )
    elif len(final) == 1:
        cx, cy = to_svg(final[0]).split(",")
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="4" fill="#224466"/>')
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
