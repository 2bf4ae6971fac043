"""The benchmark's tracer (bench/tracer.py) wraps package functions looked
up by name.  Its self-test runs here so that a rename which would break the
benchmark fails the test suite first."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_self_test_reports_no_problems():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.self_test() == []
