"""No module of the package imports another module's private helpers, every
exported name exists, every exported function is run by the package, and
every public method, classmethod and property of an exported class is read
by it.

A name with a leading underscore (dunders such as ``__version__`` aside) is
private to the module that defines it; a ``from .module import _name``
elsewhere couples the two modules through a helper that carries no interface
promise.  A public function, method, alternate constructor or property that
only tests call belongs in the tests, as an oracle next to the test that uses
it.
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


# the modules whose public names the package re-exports at its top level
RE_EXPORTED = (
    "errors", "seeding", "environment", "chain", "parallel",
    "subordinator", "conditions", "aging", "config",
)

# every name the top level exported before it was composed from the modules'
# lists; none may go missing
TOP_LEVEL_NAMES = {
    "__version__",
    "ClockprocError", "DimensionMismatchError", "ParameterValidationError", "CapabilityError",
    "SegmentLengthError", "HorizonError", "DegenerateScaleError", "BudgetError",
    "resolve_seeds", "keyed_generator", "StreamFamily", "ReplicaStreams",
    "SpinConfig", "CouplingTensor", "Environment", "zeta", "validate_parameters",
    "block_length", "overlap", "ZETA_LIMIT", "DEFAULT_ZETA_TABLE",
    "TrajectorySegment", "ClockPath", "MixingReport", "simulate_segment", "extend_segment",
    "blocked_clock", "process_at_time", "mixing_check",
    "ordered_map",
    "PowerLawLevyMeasure", "SubordinatorPath", "sample_path", "extend_path", "arcsine_cdf",
    "crossing_probability", "crossing_probability_batch", "truncated_laplace_exponent",
    "SelfTest", "self_test",
    "TailEstimate", "IntensityEstimate", "SquaredTailEstimate", "LaplaceIntensityEstimate",
    "InitialTermEstimate", "TruncatedMeanEstimate", "ConcentrationReport", "ConditionReport",
    "estimate_block_tail_grid", "estimate_intensity", "estimate_squared_tail_grid",
    "conditional_block_laplace", "estimate_intensity_laplace", "estimate_initial_term",
    "estimate_truncated_mean", "truncated_mean_quadrature", "truncated_mean_asymptotic",
    "degenerate_block_tail", "degenerate_block_laplace", "degenerate_initial_term",
    "concentration_diagnostic", "build_condition_report",
    "correlation_indicator", "AgingCurve", "estimate_aging_curve", "TrapReport",
    "trap_localization_diagnostic",
    "DEFAULT_MASTER_SEED", "ExperimentConfig", "default_ts_grid",
}


def test_top_level_is_composed_from_the_module_lists():
    composed = ["__version__"] + [
        name
        for stem in RE_EXPORTED
        for name in importlib.import_module(f"clockproc.{stem}").__all__
    ]
    assert clockproc.__all__ == composed
    assert len(set(composed)) == len(composed)
    assert len(TOP_LEVEL_NAMES) == 71
    assert TOP_LEVEL_NAMES <= set(clockproc.__all__)


# public functions that no module of the package runs: the concentration
# estimator of the source paper, which callers run directly, and the scalar
# crossing indicator, which the benchmark tracer still times as
# subordinator.crossing_fallback until the tracer is retargeted
RUN_ONLY_BY_CALLERS = {
    "conditions.py:concentration_diagnostic",
    "subordinator.py:crossing_probability",
}

# public methods, classmethods and properties that no module of the package
# reads: opening a replica's two streams from one bare seed is a test
# convenience
READ_ONLY_BY_CALLERS = {"seeding.py:ReplicaStreams.from_seed"}


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def exported_functions(tree: ast.Module) -> set[str]:
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    return functions & exported_names(tree)


def exported_members(tree: ast.Module) -> set[str]:
    """``Class.member`` for each public method, classmethod and property of an
    exported class."""
    exported = exported_names(tree)
    return {
        f"{cls.name}.{member.name}"
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name in exported
        for member in cls.body
        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
    }


def referenced_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _package_trees(sources: dict[str, str]) -> tuple[dict[str, ast.Module], set[str]]:
    """Parsed modules other than ``__init__.py``, and every name they reference."""
    trees = {name: ast.parse(source) for name, source in sources.items() if name != "__init__.py"}
    return trees, set().union(*(referenced_names(tree) for tree in trees.values()))


def unused_public_functions(sources: dict[str, str]) -> list[str]:
    """Module-level functions named in a module's ``__all__`` that no module
    other than ``__init__.py`` references by name or attribute."""
    trees, used = _package_trees(sources)
    return sorted(
        f"{name}:{function}"
        for name, tree in trees.items()
        for function in exported_functions(tree) - used
    )


def unread_public_members(sources: dict[str, str]) -> list[str]:
    """Public methods, classmethods and properties of classes named in a
    module's ``__all__`` that no module other than ``__init__.py`` reads by
    attribute."""
    trees, used = _package_trees(sources)
    return sorted(
        f"{name}:{member}"
        for name, tree in trees.items()
        for member in exported_members(tree)
        if member.rpartition(".")[2] not in used
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


def test_guard_detects_public_members_only_the_package_init_reads():
    sources = {
        "a.py": '__all__ = ["Kind"]\n'
                "class Kind:\n"
                "    @classmethod\n    def build(cls):\n        return cls()\n"
                "    @classmethod\n    def spare_build(cls):\n        return cls()\n"
                "    @property\n    def size(self):\n        return 1\n"
                "    @property\n    def spare_size(self):\n        return 2\n"
                "    @property\n    def _hidden(self):\n        return 3\n"
                "    def method(self):\n        return 4\n"
                "    def spare_method(self):\n        return 5\n"
                "class Unexported:\n"
                "    @classmethod\n    def spare_too(cls):\n        return cls()\n",
        "b.py": "from . import a\n\n"
                "def go():\n    return a.Kind.build().size + a.Kind().method()\n",
        "__init__.py": "from .a import Kind\n__all__ = ['Kind']\n"
                       "Kind.spare_build().spare_size + Kind().spare_method()\n",
    }
    assert unread_public_members(sources) == [
        "a.py:Kind.spare_build", "a.py:Kind.spare_method", "a.py:Kind.spare_size"
    ]


def package_sources() -> dict[str, str]:
    return {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_every_public_function_is_run_by_the_package():
    assert unused_public_functions(package_sources()) == sorted(RUN_ONLY_BY_CALLERS)


def test_every_public_member_is_read_by_the_package():
    assert unread_public_members(package_sources()) == sorted(READ_ONLY_BY_CALLERS)
