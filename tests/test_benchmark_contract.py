"""The benchmark's tracer wraps public airsep functions by name; they must all exist.

``perfbench/tracing.py`` lists them in ``TRACED`` and raises during a traced
run when one is missing, so a rename in ``src`` would only show up as a
benchmark run without a result line. This test catches it in the suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module_name, attr", _traced())
def test_traced_function_is_callable(module_name, attr):
    owner = importlib.import_module(f"airsep.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
