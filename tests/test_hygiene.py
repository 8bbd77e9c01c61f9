"""Source hygiene scans over the package and the tests.

Every module reads each name it imports.  An import nothing reads is
dead code that still costs a load and hides what a module depends on.
A name counts as read where the module loads it (attribute access `a.b`
loads `a`), and where the module lists it in `__all__`, which is how the
package re-exports; `from __future__` imports change the compiler, not
the namespace, and are exempt.

The package writes no `Fraction(<int literal>)`.  A rational is an int
unless its denominator is not 1 (see `bqtop.linalg`), so an integer
constant is the int itself; wrapped in a Fraction it would drag every
sum and product it enters into Fraction arithmetic.

No package function calls itself by name, as `f(...)` or as
`self.f(...)`.  Python's recursion limit turns a deep input into a
`RecursionError`, so every walk over a quiver, a table or a complex is
written with an explicit stack or worklist; `super().f(...)` calls
another class's method and does not count.

Every module-level private function or class of the package (a name
with a leading underscore) is read somewhere in the package, as a name
or as an attribute.  The tests may read it too, but a private helper
that only the tests reach is a code path the program no longer has.

No package module imports a private name from another package module.
A helper that two modules share is part of the package's interface and
gets a public name in the module that owns it; the tests, which check
private helpers against their oracles, are exempt.

The package has no `assert` statement.  `python -O` strips them, and
with them the checks the package makes on what it builds (face closure,
boundary of boundary, the Smith certificate and the like), so such a
check raises `AssertionError` itself.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "bqtop").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """Names that `source` imports and never reads, in source order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            read |= {e.value for e in node.value.elts}
    return [name for name in imported if name not in read]


def test_the_scan_sees_imports_that_nothing_reads():
    source = ("from __future__ import annotations\n"
              "import os, os.path\nimport json as js\n"
              "from math import gcd, pi\n__all__ = ['pi']\n"
              "def f():\n    import sys\n    return os.sep\n")
    assert unused_imports(source) == ["js", "gcd", "sys"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def _int_literal(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def fraction_of_int_literals(source):
    """Line numbers of the calls Fraction(<int literal>) in `source`."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "Fraction"
            and len(node.args) == 1 and not node.keywords
            and _int_literal(node.args[0])]


def test_the_scan_sees_fractions_of_int_literals():
    source = ("from fractions import Fraction\nimport fractions\n"
              "a = Fraction(0)\nb = fractions.Fraction(-1)\n"
              "c = Fraction(1, 2)\nd = Fraction(a)\ne = Fraction('1')\n"
              "f = [Fraction(2)]\n")
    assert fraction_of_int_literals(source) == [3, 4, 8]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_fraction_of_an_int_literal(path):
    assert fraction_of_int_literals(path.read_text()) == []



def self_calls(source):
    """Names of the functions in `source` that call themselves by name,
    in source order; a call inside a nested function counts for both."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id == fn.name \
                    or isinstance(f, ast.Attribute) and f.attr == fn.name \
                    and isinstance(f.value, ast.Name) \
                    and f.value.id in ("self", "cls"):
                found.append(fn.name)
                break
    return found


def test_the_scan_sees_functions_that_call_themselves():
    source = ("def f(n):\n    return f(n - 1)\n"
              "class A(B):\n"
              "    def __init__(self):\n        super().__init__()\n"
              "    def g(self):\n        return self.g()\n"
              "    def h(self, o):\n        return o.h()\n"
              "def outer():\n    def inner():\n        inner()\n")
    assert self_calls(source) == ["f", "g", "inner"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    assert self_calls(path.read_text()) == []


def unread_privates(sources):
    """(module, name) of the module-level private functions and classes
    in `sources` (module -> source) that no module reads."""
    trees = {m: ast.parse(s) for m, s in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [(m, node.name) for m, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and node.name not in read]


def test_the_scan_sees_private_definitions_that_nothing_reads():
    sources = {"a": "def _used():\n    pass\ndef _dead():\n    pass\n"
                    "class _Gone:\n    def _method(self):\n        pass\n"
                    "def public():\n    def _inner():\n        pass\n",
               "b": "from .a import _used\nimport a\n_used()\n"
                    "def _via_attribute():\n    pass\n"
                    "a._via_attribute\n_dead = 1\n"}
    assert unread_privates(sources) == [("a", "_dead"), ("a", "_Gone")]


def test_every_private_definition_is_read():
    sources = {p.name: p.read_text() for p in PACKAGE}
    assert unread_privates(sources) == []


def private_imports(source):
    """The underscore names that `source` imports from a module of the
    package, in source order; dunder names such as `__version__` are
    public."""
    return [a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or node.module.split(".")[0] == "bqtop")
            for a in node.names
            if a.name.startswith("_") and not a.name.endswith("__")]


def test_the_scan_sees_private_imports_from_the_package():
    source = ("from . import __version__\nfrom .complex import _betti, rank\n"
              "from json.encoder import _private as _quote\n"
              "from bqtop.core import _locate\nimport bqtop._hidden\n"
              "def f():\n    from ..homotopy import _find\n")
    assert private_imports(source) == ["_betti", "_locate", "_find"]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_no_module_imports_a_private_name(path):
    assert private_imports(path.read_text()) == []


def assert_statements(source):
    """Line numbers of the `assert` statements in `source`."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_the_scan_sees_assert_statements():
    source = ("def f(x):\n    assert x, 'no x'\n"
              "    if not x:\n        raise AssertionError('no x')\n"
              "    assert (x,\n            1)\n")
    assert assert_statements(source) == [2, 5]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_assert_statement(path):
    assert assert_statements(path.read_text()) == []
