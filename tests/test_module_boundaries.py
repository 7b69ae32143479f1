"""No module of the package imports another module's private helpers, every
exported name exists, and every exported function is run by the package.

A name with a leading underscore (dunders such as ``__version__`` aside) is
private to the module that defines it; a ``from .module import _name``
elsewhere couples the two modules through a helper that carries no interface
promise.  A public function that only tests call belongs in the tests, as an
oracle next to the test that uses it.
"""

import ast
import importlib
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


def test_every_exported_name_exists_once():
    modules = {"clockproc": clockproc} | {
        f"clockproc.{path.stem}": importlib.import_module(f"clockproc.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }
    missing, repeated = [], []
    for name, module in modules.items():
        exported = getattr(module, "__all__", [])
        missing += [f"{name}.{attr}" for attr in exported if not hasattr(module, attr)]
        repeated += [f"{name}.{attr}" for attr in set(exported) if exported.count(attr) > 1]
    assert missing == []
    assert repeated == []


# public functions that no module of the package runs: the concentration
# estimator of the source paper, which callers run directly
RUN_ONLY_BY_CALLERS = {"conditions.py:concentration_diagnostic"}


def exported_functions(tree: ast.Module) -> set[str]:
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)} & exported


def referenced_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unused_public_functions(sources: dict[str, str]) -> list[str]:
    """Module-level functions named in a module's ``__all__`` that no module
    other than ``__init__.py`` references by name or attribute."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set().union(*(referenced_names(tree) for name, tree in trees.items()
                         if name != "__init__.py"))
    return sorted(
        f"{name}:{function}"
        for name, tree in trees.items()
        if name != "__init__.py"
        for function in exported_functions(tree) - used
    )


def test_guard_detects_public_functions_only_the_package_init_names():
    sources = {
        "a.py": '__all__ = ["run", "spare", "Kind"]\n'
                "def run(x):\n    return helper(x)\n"
                "def helper(x):\n    return x\n"
                "def spare():\n    return 0\n"
                "class Kind:\n    pass\n",
        "b.py": "from . import a\n\ndef go():\n    return a.run(1)\n",
        "__init__.py": "from .a import run, spare\n__all__ = ['run', 'spare']\n",
    }
    assert unused_public_functions(sources) == ["a.py:spare"]


def test_every_public_function_is_run_by_the_package():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_public_functions(sources) == sorted(RUN_ONLY_BY_CALLERS)
