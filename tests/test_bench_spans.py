"""The benchmark's tracer names functions of the package; they must exist.

`bench/spans.py` wraps functions by module and attribute name, so renaming
or deleting one of them would break `bench/run.py --trace 1` while every
other test still passed.  Its counters read attributes of the traced
calls' arguments and results, so each reader is also run on a real call.
"""

import importlib
import importlib.util
import pathlib

import pytest

from bqtop.algcohom import HochschildComplex, find_semi_normed_basis
from bqtop.complex import CellComplex, build_complex
from bqtop.core import enumerate_paths
from bqtop.dsl import parse
from bqtop.homotopy import (minimal_relation_supports,
                            natural_homotopy_classes, walk_homotopy_classes)
from bqtop.linalg import smith_normal_form

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans",
                                                  BENCH / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


BENCH_SPANS = load_spans()
SPANS = BENCH_SPANS.SPANS
COUNTERS = BENCH_SPANS.COUNTERS


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


def traced_calls():
    """Span name -> (args, result) of one real call, on corpus/ker.bq."""
    q = parse((ROOT / "corpus" / "ker.bq").read_text())
    t = enumerate_paths(q)
    cx = build_complex(t, natural_homotopy_classes(t))
    a = find_semi_normed_basis(t)
    hc = HochschildComplex(a)
    return {
        "core.enumerate_paths": ((q,), t),
        "homotopy.minimal_relation_supports":
            ((t,), minimal_relation_supports(t)),
        "homotopy.walk_homotopy_classes": ((t,), walk_homotopy_classes(t)),
        "complex.build_complex": ((t, cx.classes), cx),
        "linalg.smith_normal_form":
            ((cx.boundary(1),), smith_normal_form(cx.boundary(1))),
        # the traced method is __init__: its first argument is the complex
        "algcohom.HochschildComplex": ((hc, a), None),
    }


def test_counters_read_real_calls():
    calls = traced_calls()
    assert set(calls) == set(COUNTERS)
    seen = set()
    for name, count in COUNTERS.items():
        args, result = calls[name]
        for key, n in count(args, result).items():
            assert type(n) is int and n >= 0, (name, key, n)
            seen.add(key)
    assert seen == set(BENCH_SPANS.COUNTER_NAMES)
    # an empty matrix has no entries to count
    assert COUNTERS["linalg.smith_normal_form"](
        ([],), smith_normal_form([])) == {"linalg.snf_entries": 0}
