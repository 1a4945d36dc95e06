"""Every name the benchmark's tracer rebinds exists in the package.

perfbench/tracing.py wraps each name in its TRACED table by looking it up
in ``sombortree``; a name the package drops or renames would otherwise
fail only in the benchmark smoke run.  The table is read, never edited:
runpy compiles the file without writing a bytecode cache next to it.
"""

import functools
import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
TRACED = runpy.run_path(str(TRACING))["TRACED"]


@pytest.mark.parametrize("name", list(TRACED))
def test_traced_name_resolves(name):
    mod, *attrs = name.split(".")
    target = importlib.import_module(f"sombortree.{mod}")
    assert callable(functools.reduce(getattr, attrs, target))
