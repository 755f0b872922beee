"""The names the benchmark's tracer wraps from outside the package.

perfbench/tracer.py replaces charp functions and methods by name, in every
charp module that binds them.  A rename or a dropped import in charp would
leave a layer silently untraced, so the names it lists are checked here.
The tracer is loaded by path and only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("_charp_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    keep = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark's directory untouched
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


def mod(name):
    return importlib.import_module(f"charp.{name}")


def binds(module, value):
    return any(v is value for v in vars(module).values())


def test_traced_modules_exist(tracer):
    for name in tracer.MODULES + tracer.WHOLE_LAYERS:
        mod(name)


def test_traced_functions_exist(tracer):
    for module, name in tracer.FUNCTIONS:
        assert callable(getattr(mod(module), name)), (module, name)


def test_traced_methods_exist(tracer):
    for module, cls, meth in tracer.METHODS:
        assert meth in vars(getattr(mod(module), cls)), (module, cls, meth)


def test_functions_are_bound_where_they_are_called():
    b_coeffs = mod("recurrence").b_coeffs
    assert binds(mod("criterion"), b_coeffs)
    assert binds(mod("cli"), b_coeffs)
    residue = mod("combinat").multinomial_residue
    assert binds(mod("recurrence"), residue)
    assert binds(mod("lemma_lab"), residue)
