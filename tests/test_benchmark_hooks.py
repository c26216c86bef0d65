"""The benchmark's tracer wraps adasize functions by name; those names must resolve.

perfbench/tracer.py is loaded by path and only read: a rename in src/ then
fails here instead of in a benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(name):
    return importlib.import_module(f"adasize.{name}")


def test_hooked_functions_resolve(tracer):
    targets = [("driver", n) for n in tracer.DRIVER_RUNS] + \
        [("verify", n) for n in tracer.VERIFY_CHECKS] + [("bench", "compare_matrix")]
    for mod_name, fn_name in targets:
        assert inspect.isfunction(getattr(_module(mod_name), fn_name)), (mod_name, fn_name)


def test_extra_boundaries_resolve(tracer):
    for mod_name, cls_name, meth in tracer.EXTRA_BOUNDARIES:
        assert inspect.isfunction(getattr(getattr(_module(mod_name), cls_name), meth)), \
            (mod_name, cls_name, meth)


def test_dispatch_tables_hold_public_functions(tracer):
    # the tracer swaps each entry for the wrapper of the public function it
    # refers to, found by identity among the module's public functions
    for mod_name, table_name in tracer.DISPATCH_TABLES:
        mod = _module(mod_name)
        table = getattr(mod, table_name)
        assert table
        for key, fn in table.items():
            assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, key
            assert not fn.__name__.startswith("_"), key
            assert getattr(mod, fn.__name__) is fn, key
