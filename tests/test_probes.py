"""The benchmark's tracer finds every function it wraps.

`perfbench/tracing.py` reports a layer only while the function it patches
exists, so deleting or renaming a probed function changes the traced
run's metric names, and such a run no longer matches `BENCHMARK.json`.
These tests fail first, so that rename lands together with a benchmark
change.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PROBES = [probe[:3] for probe in load_tracing().PROBES]


@pytest.mark.parametrize("module, attribute, span", PROBES, ids=[f"{p[0]}.{p[1]}" for p in PROBES])
def test_probed_function_exists(module, attribute, span):
    assert module.startswith("ppesolve")
    assert callable(getattr(importlib.import_module(module), attribute, None)), (
        f"{module}.{attribute} is gone, so the traced benchmark loses {span}"
    )


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the benchmark's JSON")


def test_traced_run_reports_the_declared_layers():
    """A traced pass exits 0 and its last line is strict JSON whose
    metric names are exactly BENCHMARK.json's per_layer names; a hook
    that reads a changed argument or return shape fails here."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pd-patient",
         "--seed", "3", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(last["metrics"]) == sorted(m["name"] for m in declared)
