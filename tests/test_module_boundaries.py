"""No module of the package imports another module's private helpers.

A name with a leading underscore (dunders such as ``__version__`` aside) is
private to the module that defines it; a ``from .module import _name``
elsewhere couples the two modules through a helper that carries no interface
promise.
"""

import ast
import pathlib

import clockproc

PACKAGE = pathlib.Path(clockproc.__file__).parent


def private_imports(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                dunder = alias.name.startswith("__") and alias.name.endswith("__")
                if alias.name.startswith("_") and not dunder:
                    found.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
    return found


def test_guard_detects_private_relative_imports():
    assert private_imports("from .conditions import _plain, build_condition_report\n") == [
        "from .conditions import _plain"
    ]
    assert private_imports("from . import _helpers\n") == ["from . import _helpers"]
    assert private_imports("from . import __version__\nfrom numpy import _core\n") == []


def test_no_module_imports_private_helpers():
    offenders = {
        path.name: hits
        for path in sorted(PACKAGE.glob("*.py"))
        if (hits := private_imports(path.read_text()))
    }
    assert offenders == {}
