"""The benchmark's tracer names functions of the package; they must exist.

`bench/spans.py` wraps functions by module and attribute name, so renaming
or deleting one of them would break `bench/run.py --trace 1` while every
other test still passed.
"""

import importlib
import importlib.util
import pathlib

import pytest

from bqtop.complex import CellComplex

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans",
                                                  BENCH / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


SPANS = load_spans().SPANS


@pytest.mark.parametrize("name", sorted(SPANS))
def test_traced_function_resolves(name):
    modname, attr = SPANS[name]
    mod = importlib.import_module("bqtop." + modname)
    if "." in attr:
        # methods are wrapped through the class's own namespace
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(mod, cls_name))[meth])
    else:
        assert callable(getattr(mod, attr))


def test_complex_counters_resolve():
    # the build_complex counters read these off the result
    assert isinstance(CellComplex.boundaries, property)
    assert callable(CellComplex.counts)
