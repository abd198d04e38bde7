import csv
import json
import re

import pytest
from click.testing import CliRunner

from ppesolve.cli import main

PD_ARGS = ["--delta", "0.9", "--theta", "0.02"]


def run_cli(args, env=None):
    return CliRunner().invoke(main, args, env=env, catch_exceptions=False)


@pytest.fixture(scope="module")
def pd_run(tmp_path_factory, pd_game_path):
    out = tmp_path_factory.mktemp("pd_run")
    result = run_cli(
        ["solve", "--game", str(pd_game_path), *PD_ARGS, "--out", str(out)]
    )
    return result, out


class TestSolveCommand:
    def test_exit_zero_and_summary_line(self, pd_run):
        result, _ = pd_run
        assert result.exit_code == 0
        assert re.search(
            r"iterations=\d+ final_area=\d+\.\d{6} stop=area_epsilon",
            result.output,
        )

    def test_artifacts_exist(self, pd_run):
        _, out = pd_run
        assert (out / "report.json").is_file()
        assert (out / "trace.csv").is_file()
        assert (out / "final.svg").is_file()

    def test_report_json_round_trips(self, pd_run):
        _, out = pd_run
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["delta"] == 0.9
        assert doc["config"]["theta"] == 0.02
        assert doc["config"]["hausdorff_epsilon"] == 1e-6
        # one tolerance, 1e-9 scaled by the PD's largest payoff, 3
        assert doc["tolerances"] == pytest.approx({"eps": 3e-9})
        assert doc["stop_reason"] == "area_epsilon"
        assert doc["converged"] is True
        assert doc["iterations"] == len(doc["trace"]) - 1
        assert doc["trace"][0]["area"] == pytest.approx(16 / 3)
        assert doc["final_vertices"] == doc["trace"][-1]["vertices"]
        assert doc["trace"][1]["enforceable"] == {
            "C,C": True, "C,D": True, "D,C": True, "D,D": True,
        }

    def test_trace_csv_shape(self, pd_run):
        _, out = pd_run
        doc = json.loads((out / "report.json").read_text())
        with open(out / "trace.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == doc["iterations"] + 1
        assert [int(r["iteration"]) for r in rows] == list(range(len(rows)))
        for r in rows:
            verts = r["vertices"].split(";")
            assert len(verts) == int(r["vertex_count"])
            assert float(r["area"]) >= 0

    def test_svg_is_wellformed(self, pd_run):
        import xml.etree.ElementTree as ET

        _, out = pd_run
        root = ET.fromstring((out / "final.svg").read_text())
        assert root.tag.endswith("svg")
        tags = [el.tag.split("}")[-1] for el in root.iter()]
        assert tags.count("polygon") == 2  # initial outline + final fill

    def test_emit_selection(self, tmp_path, pd_game_path):
        out = tmp_path / "partial"
        result = run_cli(
            ["solve", "--game", str(pd_game_path), "--delta", "0.5",
             "--out", str(out), "--emit", "report_json"]
        )
        assert result.exit_code == 0
        assert (out / "report.json").is_file()
        assert not (out / "trace.csv").exists()
        assert not (out / "final.svg").exists()

    def test_missing_game_file_exits_one(self, tmp_path):
        result = run_cli(
            ["solve", "--game", str(tmp_path / "nope.json"), "--delta", "0.9"]
        )
        assert result.exit_code == 1
        assert "cannot read game file" in result.output

    def test_bad_delta_exits_one(self, pd_game_path):
        result = run_cli(["solve", "--game", str(pd_game_path), "--delta", "1.5"])
        assert result.exit_code == 1
        assert "delta" in result.output

    def test_nan_epsilon_exits_one(self, tmp_path, pd_game_path):
        result = run_cli(
            ["solve", "--game", str(pd_game_path), "--delta", "0.9",
             "--epsilon", "nan", "--out", str(tmp_path)]
        )
        assert result.exit_code == 1
        assert "epsilon must be finite" in result.output

    def test_bad_emit_exits_one(self, pd_game_path):
        result = run_cli(
            ["solve", "--game", str(pd_game_path), "--delta", "0.9",
             "--emit", "png"]
        )
        assert result.exit_code == 1
        assert "unknown emit target" in result.output

    def test_overflowing_number_exits_one(self, tmp_path, pd_game_path):
        data = json.loads(pd_game_path.read_text())
        data["payoffs"][0][1][1] = 10**400
        game = tmp_path / "overflow.json"
        game.write_text(json.dumps(data))
        result = run_cli(["solve", "--game", str(game), "--delta", "0.9"])
        assert result.exit_code == 1
        assert "is not a finite number" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "command", [["solve", "--delta", "0.9"], ["sweep", "--delta-grid", "0.5,0.9"]], ids=["solve", "sweep"]
    )
    def test_non_utf8_game_file_exits_one(self, tmp_path, command):
        game = tmp_path / "latin1.json"
        game.write_bytes(b"\xff{}")
        result = run_cli([command[0], "--game", str(game), *command[1:], "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert f"cannot read game file {game}: not UTF-8 text" in result.output
        assert "Traceback" not in result.output

    def test_max_iter_exhaustion_exits_two(self, tmp_path, pd_game_path):
        result = run_cli(
            ["solve", "--game", str(pd_game_path), *PD_ARGS,
             "--max-iter", "2", "--out", str(tmp_path)]
        )
        assert result.exit_code == 2
        assert "stop=max_iter" in result.output

    def test_empty_set_exits_zero(self, tmp_path, pd_game_path):
        # matching pennies has an empty rational region
        game = {
            "actions": [["H", "T"], ["H", "T"]],
            "payoffs": [[[1, -1], [-1, 1]], [[-1, 1], [1, -1]]],
            "signals": ["y1", "y2"],
            "signal_probs": [[["1/2", "1/2"]] * 2] * 2,
        }
        path = tmp_path / "pennies.json"
        path.write_text(json.dumps(game))
        result = run_cli(
            ["solve", "--game", str(path), "--delta", "0.9", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0
        assert "stop=empty_set" in result.output


class TestSweepCommand:
    def test_sweep_layout_and_summary(self, tmp_path, pd_game_path):
        out = tmp_path / "sweep"
        result = run_cli(
            ["sweep", "--game", str(pd_game_path), "--delta-grid", "0.5,0.9",
             "--theta", "0.02", "--out", str(out)]
        )
        assert result.exit_code == 0
        for tok in ("0.5", "0.9"):
            sub = out / f"delta_{tok}"
            assert (sub / "report.json").is_file()
            assert (sub / "trace.csv").is_file()
            assert (sub / "final.svg").is_file()
        with open(out / "summary.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [r["delta"] for r in rows] == ["0.5", "0.9"]
        assert rows[0]["stop_reason"] == "hausdorff_epsilon"
        assert rows[1]["stop_reason"] == "area_epsilon"
        assert float(rows[0]["final_area"]) == pytest.approx(0.0, abs=1e-9)
        assert float(rows[1]["final_area"]) > 0

    def test_unsorted_grid_rejected(self, pd_game_path):
        result = run_cli(
            ["sweep", "--game", str(pd_game_path), "--delta-grid", "0.9,0.5"]
        )
        assert result.exit_code == 1
        assert "ascending" in result.output

    def test_out_of_range_grid_rejected(self, pd_game_path):
        result = run_cli(
            ["sweep", "--game", str(pd_game_path), "--delta-grid", "0.5,1.0"]
        )
        assert result.exit_code == 1
        assert "Error: delta must lie in [0, 1)" in result.output


class TestOutputErrors:
    @pytest.mark.parametrize(
        "command", [["solve", "--delta", "0.5"], ["sweep", "--delta-grid", "0.5,0.9"]], ids=["solve", "sweep"]
    )
    def test_out_naming_a_file_exits_one(self, tmp_path, pd_game_path, command):
        target = tmp_path / "taken"
        target.write_text("not a directory")
        result = run_cli([command[0], "--game", str(pd_game_path), *command[1:], "--out", str(target)])
        assert result.exit_code == 1
        assert f"Error: cannot write to {target}: " in result.output
        assert "Traceback" not in result.output
        assert "iterations=" not in result.output  # no solve ran
        assert target.read_text() == "not a directory"

    def test_sweep_bad_shared_option_exits_one(self, tmp_path, pd_game_path):
        out = tmp_path / "sweep"
        result = run_cli(
            ["sweep", "--game", str(pd_game_path), "--delta-grid", "0.3,0.5",
             "--epsilon", "-1", "--out", str(out)]
        )
        assert result.exit_code == 1
        assert "Error: epsilon must be positive" in result.output
        assert not out.exists()

    def test_sweep_echoes_each_recorded_error(self, tmp_path, pd_game_path):
        out = tmp_path / "sweep"
        out.mkdir()
        (out / "delta_0.5").write_text("in the way")
        result = run_cli(
            ["sweep", "--game", str(pd_game_path), "--delta-grid", "0.5,0.9",
             "--theta", "0.02", "--out", str(out)]
        )
        assert result.exit_code == 1
        assert f"delta=0.5: error: cannot write to {out / 'delta_0.5'}: " in result.stderr
        assert "delta=0.9: iterations=" in result.stdout
        with open(out / "summary.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert rows[0]["stop_reason"].startswith("error: cannot write to")
        assert rows[1]["stop_reason"] == "area_epsilon"


def test_solve_path_loads_no_scipy(cournot_game_path):
    """Only verify_enforceability needs scipy: importing the package and
    the CLI and running a whole solve must not load it."""
    import subprocess
    import sys

    code = (
        "import sys\n"
        "import ppesolve, ppesolve.cli\n"
        "from ppesolve import SolverConfig, parse_game, solve\n"
        f"game = parse_game(open({str(cournot_game_path)!r}).read())\n"
        "solve(game, SolverConfig(delta=0.5))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
