"""The benchmark's traced run wraps redarg functions by name, so a
refactor that renames or deletes one leaves its span or counter empty."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module, func", tracing.SPANS + tracing.COUNTED)
def test_traced_names_are_callables(module, func):
    assert callable(getattr(importlib.import_module(f"redarg.{module}"), func, None))
