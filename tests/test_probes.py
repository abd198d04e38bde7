"""The benchmark's tracer finds every function it wraps.

`perfbench/tracing.py` reports a layer only while the function it patches
exists, so deleting or renaming a probed function changes the traced
run's metric names, and such a run no longer matches `BENCHMARK.json`.
This test fails first, so that rename lands together with a benchmark
change.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
