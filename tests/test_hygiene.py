"""Every module of the package and of the tests reads each name it imports.

An import nothing reads is dead code that still costs a load and hides
what a module depends on.  A name counts as read where the module loads
it (attribute access `a.b` loads `a`), and where the module lists it in
`__all__`, which is how the package re-exports; `from __future__`
imports change the compiler, not the namespace, and are exempt.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "bqtop").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


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
