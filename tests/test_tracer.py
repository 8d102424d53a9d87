"""The traced benchmark run replaces package functions by name, so every
name it traces must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module, function", [entry[:2] for entry in _traced()])
def test_traced_function_exists(module, function):
    # Tracer.install looks each one up with getattr; a renamed function
    # would crash every traced run
    assert callable(getattr(importlib.import_module(f"moebiusband.{module}"), function))
