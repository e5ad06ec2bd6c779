"""Every module-level import, and every private module-level name of the
package, is read somewhere in its module, and every int.to_bytes and
int.from_bytes call names its length and byte order.

The import scan covers the package modules (apart from __init__.py, whose
imports are re-exports) and the test modules.  A name counts as read when
it appears as a bare name anywhere in the module, which includes
annotations and attribute roots such as `abcode` in
`abcode.code.factorint`.  The private-name scan covers the package modules:
a function, class or constant whose name starts with one underscore is
module-internal, so one that its own module never reads is dead code.
Python 3.10, the oldest the package supports, has no default length or
byte order for the int byte conversions; the byte scan covers the package
and test modules.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(p for p in (ROOT / "src" / "abcode").glob("*.py") if p.name != "__init__.py")
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def _read_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = _read_names(tree)
    return sorted((line, name) for name, line in imported.items() if name not in read)


def unread_private_names(source):
    """(line, name) of each module-level _name (not a dunder) never read."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    read = _read_names(tree)
    return sorted((line, name) for name, line in defined.items()
                  if name.startswith("_") and not name.startswith("__")
                  and name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_name():
    source = "from __future__ import annotations\nimport os\nfrom a.b import c, d as e\nprint(e)\n"
    assert unused_imports(source) == [(2, "os"), (3, "c")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text()) == []


def test_scan_flags_an_unread_private_name():
    source = ("_A = 1\n_B, c = 2, 3\n__all__ = []\n\n"
              "def _f():\n    return _B\n\n\nclass _K:\n    pass\n\n\n"
              "def _g():\n    _K()\n")
    assert unread_private_names(source) == [(1, "_A"), (5, "_f"), (13, "_g")]


def bytes_calls_short_of_arguments(source):
    """(line, method) of each to_bytes or from_bytes call with fewer than two arguments."""
    return sorted((node.lineno, node.func.attr) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("to_bytes", "from_bytes")
                  and len(node.args) + len(node.keywords) < 2)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_int_byte_conversions_name_length_and_byte_order(path):
    assert bytes_calls_short_of_arguments(path.read_text()) == []


def test_scan_flags_a_byte_conversion_short_of_arguments():
    source = ("a = (5).to_bytes(1)\nb = (5).to_bytes(1, 'little')\n"
              "c = int.from_bytes(b'x')\nd = int.from_bytes(b'x', byteorder='big')\n"
              "e = x.tobytes()\n")
    assert bytes_calls_short_of_arguments(source) == [(1, "to_bytes"), (3, "from_bytes")]
