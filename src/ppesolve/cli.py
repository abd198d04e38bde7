"""Command-line front end: single solves and discount-factor sweeps."""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .aps import SolverConfig, solve
from .game import GameFormatError, parse_game
from .geometry import area
from .reporting import emit_svg, write_report_json, write_trace_csv

EMIT_CHOICES = ("report_json", "trace_csv", "svg")

def _load_game(path: str):
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise click.ClickException(f"cannot read game file {path}: {exc}")
    except UnicodeDecodeError:
        raise click.ClickException(f"cannot read game file {path}: not UTF-8 text")
    try:
        return parse_game(text)
    except GameFormatError as exc:
        raise click.ClickException(str(exc))


def _parse_emit(emit: str):
    items = tuple(s.strip() for s in emit.split(",") if s.strip())
    for item in items:
        if item not in EMIT_CHOICES:
            raise click.ClickException(
                f"unknown emit target {item!r}; choose from {', '.join(EMIT_CHOICES)}"
            )
    if not items:
        raise click.ClickException("at least one emit target is required")
    return items


def _config(delta, epsilon, theta, max_iter):
    try:
        return SolverConfig(delta=delta, epsilon=epsilon, theta=theta, max_iter=max_iter)
    except ValueError as exc:
        raise click.ClickException(str(exc))


def _make_dir(path: Path):
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise click.ClickException(f"cannot write to {path}: {exc}")


def _run_one(game, config, out_dir: Path, emits):
    _make_dir(out_dir)
    report = solve(game, config)
    if "report_json" in emits:
        write_report_json(report, out_dir / "report.json")
    if "trace_csv" in emits:
        write_trace_csv(report, out_dir / "trace.csv")
    if "svg" in emits:
        emit_svg(report, out_dir / "final.svg")
    return report


def _exit_code(report) -> int:
    return 2 if report.stop_reason == "max_iter" else 0


def _summary_line(report) -> str:
    return (
        f"iterations={report.iterations} "
        f"final_area={area(report.final_set):.6f} "
        f"stop={report.stop_reason}"
    )


def _common_options(f):
    f = click.option("--epsilon", type=float, default=0.005, show_default=True,
                     help="area-difference stop threshold")(f)
    f = click.option("--theta", type=float, default=0.0, show_default=True,
                     help="outward simplification: widen sets by at most theta (0 = off)")(f)
    f = click.option("--max-iter", type=int, default=200, show_default=True)(f)
    f = click.option("--out", type=click.Path(), default=".", show_default=True,
                     help="output directory")(f)
    f = click.option("--emit", default="report_json,trace_csv,svg",
                     show_default=True, help="comma list of artifacts")(f)
    return f


@click.group()
def main():
    """Outer-bound equilibrium payoff sets for repeated games with
    imperfect public monitoring."""


@main.command("solve")
@click.option("--game", "game_path", required=True, type=str, help="game JSON file")
@click.option("--delta", required=True, type=float, help="discount factor in [0,1)")
@_common_options
def cmd_solve(game_path, delta, epsilon, theta, max_iter, out, emit):
    """Run a single solve and write the selected artifacts."""
    emits = _parse_emit(emit)
    game = _load_game(game_path)
    config = _config(delta, epsilon, theta, max_iter)
    report = _run_one(game, config, Path(out), emits)
    click.echo(_summary_line(report))
    sys.exit(_exit_code(report))


@main.command("sweep")
@click.option("--game", "game_path", required=True, type=str, help="game JSON file")
@click.option("--delta-grid", required=True, type=str,
              help="comma list of ascending discount factors")
@_common_options
def cmd_sweep(game_path, delta_grid, epsilon, theta, max_iter, out, emit):
    """Solve once per discount factor; write per-value artifacts and a
    summary CSV."""
    emits = _parse_emit(emit)
    game = _load_game(game_path)
    tokens = [s.strip() for s in delta_grid.split(",") if s.strip()]
    if not tokens:
        raise click.ClickException("empty delta grid")
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise click.ClickException(f"bad delta grid: {exc}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise click.ClickException("delta grid must be strictly ascending")

    # a bad delta or shared option fails here, as in solve, before any
    # directory is made
    configs = [_config(delta, epsilon, theta, max_iter) for delta in values]
    out_dir = Path(out)
    _make_dir(out_dir)
    rows = ["delta,iterations,final_area,stop_reason"]
    worst = 0
    for token, config in zip(tokens, configs):
        try:
            report = _run_one(game, config, out_dir / f"delta_{token}", emits)
        except Exception as exc:  # record, keep sweeping
            click.echo(f"delta={token}: error: {exc}", err=True)
            rows.append(f"{token},,,error: {exc}")
            worst = max(worst, 1)
            continue
        rows.append(
            f"{token},{report.iterations},{area(report.final_set)!r},"
            f"{report.stop_reason}"
        )
        click.echo(f"delta={token}: {_summary_line(report)}")
        worst = max(worst, _exit_code(report))
    (out_dir / "summary.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    sys.exit(worst)


if __name__ == "__main__":
    main()
