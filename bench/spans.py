"""Span and counter recording around bqtop's public functions.

The tracer lives in the benchmark, not in the program: ``install`` replaces
each traced function by a wrapper in every ``bqtop`` module namespace that
binds it (methods are replaced on their class), and ``uninstall`` puts the
originals back.  A span's self time is its duration minus the durations of
the spans it called.  Counters are read from a span's arguments and result
after the span ends; the time spent reading them is kept in ``counting_s``
and charged to neither the span nor its parent, so that

    traced pass time = sum of self times + counting_s + harness residue.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# span name -> (bqtop module, attribute); "Class.method" wraps a method
SPANS = {
    "dsl.parse": ("dsl", "parse"),
    "core.enumerate_paths": ("core", "enumerate_paths"),
    "core.algebra_properties": ("core", "algebra_properties"),
    "homotopy.minimal_relation_supports":
        ("homotopy", "minimal_relation_supports"),
    "homotopy.natural_homotopy_classes":
        ("homotopy", "natural_homotopy_classes"),
    "homotopy.walk_homotopy_classes": ("homotopy", "walk_homotopy_classes"),
    "homotopy.pi1_presentation": ("homotopy", "pi1_presentation"),
    "homotopy.simplify_presentation": ("homotopy", "simplify_presentation"),
    "homotopy.van_kampen_pushout": ("homotopy", "van_kampen_pushout"),
    "complex.build_complex": ("complex", "build_complex"),
    "complex.homology": ("complex", "homology"),
    "complex.cohomology": ("complex", "cohomology"),
    "linalg.smith_normal_form": ("linalg", "smith_normal_form"),
    "linalg.rank": ("linalg", "rank"),
    "linalg.nullspace": ("linalg", "nullspace"),
    "algcohom.find_semi_normed_basis": ("algcohom", "find_semi_normed_basis"),
    "algcohom.simplicial_complex": ("algcohom", "simplicial_complex"),
    "algcohom.HochschildComplex": ("algcohom", "HochschildComplex.__init__"),
    "algcohom.hh_dims": ("algcohom", "HochschildComplex.hh_dims"),
    "algcohom.epsilon_mu": ("algcohom", "epsilon_mu"),
    "coverings.check_galois": ("coverings", "check_galois"),
    "coverings.lift_complex_map": ("coverings", "lift_complex_map"),
    "coverings.deck_group": ("coverings", "deck_group"),
    "cli.main": ("cli", "main"),
}

# spans whose call count is reported
CALLS = ("linalg.nullspace", "linalg.rank", "linalg.smith_normal_form")


def _nnz(mats):
    return sum(1 for m in mats for row in m for x in row if x)


# span name -> f(args, result) -> {counter: increment}
COUNTERS = {
    "core.enumerate_paths": lambda a, r: {"core.paths": len(r.paths)},
    "homotopy.minimal_relation_supports": lambda a, r: {
        "homotopy.minimal_relations": len(r[0]),
        "homotopy.support_cap_warnings": len(r[1])},
    "homotopy.walk_homotopy_classes": lambda a, r: {
        "homotopy.walk_truncations":
            sum("truncated" in c for c in r.caveats)},
    "complex.build_complex": lambda a, r: {
        "complex.cells": sum(r.counts()),
        "complex.boundary_nnz": _nnz(r.boundaries.values())},
    "linalg.smith_normal_form": lambda a, r: {
        "linalg.snf_entries": len(a[0]) * len(a[0][0]) if a[0] else 0},
    "algcohom.HochschildComplex": lambda a, r: {
        "algcohom.hochschild_cochains": sum(a[0].dims())},
}

COUNTER_NAMES = ("core.paths", "homotopy.minimal_relations",
                 "homotopy.support_cap_warnings", "homotopy.walk_truncations",
                 "complex.cells", "complex.boundary_nnz", "linalg.snf_entries",
                 "algcohom.hochschild_cochains")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock     # spans are timed by it
        self._undo = []
        self._stack = []        # per open span: time covered by its children
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.counting_s = 0.0

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)
        stack = self._stack
        clock = self._clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self.self_s[name] += dur - stack.pop()
                self.calls[name] += 1
                if stack:
                    stack[-1] += dur
            if count is not None:
                t1 = clock()
                for key, n in count(args, result).items():
                    self.counts[key] += n
                dt = clock() - t1
                self.counting_s += dt
                if stack:
                    stack[-1] += dt
            return result
        return span

    def install(self):
        mods = [m for n, m in sys.modules.items()
                if n == "bqtop" or n.startswith("bqtop.")]
        for name, (modname, attr) in SPANS.items():
            mod = sys.modules["bqtop." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                self._rebind(owner, meth, self._wrap(name, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._rebind(m, key, wrapped)

    def _rebind(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def metrics(self):
        """Per-layer metrics of everything recorded since the last reset."""
        out = {"%s.self_s" % n: (self.self_s[n], "s") for n in SPANS}
        out.update({"%s.calls" % n: (self.calls[n], "count") for n in CALLS})
        out.update({n: (self.counts[n], "count") for n in COUNTER_NAMES})
        return out
