"""No module of the package imports another module's private helpers or a
name it never uses, every exported name exists, every exported function is
run by the package, every public method, classmethod and property of an
exported class is read by it, every exported error class but the base is
raised by it, only ``verdicts.py`` writes a verdict's status, only
``seeding.py`` builds or positions a Philox stream, only ``chain.py`` fans
replicas out, only ``run`` builds an environment in ``cli.py``,
``conditions.py`` imports nothing from ``verdicts.py``, and no module builds
an index of the whole state space.

A name with a leading underscore (dunders such as ``__version__`` aside) is
private to the module that defines it; a ``from .module import _name``
elsewhere couples the two modules through a helper that carries no interface
promise.  A public function, method, alternate constructor or property that
only tests call belongs in the tests, as an oracle next to the test that uses
it.  An error class nothing raises promises callers a failure mode that no
longer exists.  A status set outside the graders of ``verdicts.py`` would
grade by a rule of its own.  A stream built or positioned outside
``seeding.py`` would count its draws by arithmetic of its own.  A list of
``.replica(...)`` streams built outside ``chain.py`` would split replicas
into row blocks by a rule of its own.  A runner of ``cli.py`` that built its
own environment could not be handed another one, so a sweep over
environments would need one process per run; and an estimator module that
graded its own estimates would split the verdicts of one subcommand between
two modules.  An
``arange`` over all 2^n states costs 8 bytes a state, and its gather as
much again, beside the energy table; the row-block helper of
``conditions.py`` enumerates the states one block of consecutive states at
a time instead.
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


def unused_imports(source: str) -> list[str]:
    """Names a module's imports bind that the module never reads; a
    ``from __future__`` import switches a feature on and binds nothing."""
    tree = ast.parse(source)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    bound = [
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if alias.name != "*"
    ]
    return sorted(name for name in bound if name not in read)


def test_guard_detects_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import math\nimport os.path\nimport numpy as np\n"
        "from typing import Callable, Sequence\n"
        "from .a import b as c, d\nfrom .e import *\n"
        "def f(x: Callable) -> float:\n"
        "    from .g import h, k\n"
        "    return math.pi + np.e + d(x).c + k\n"
    )
    assert unused_imports(source) == ["Sequence", "c", "h", "os"]


def test_no_module_imports_a_name_it_does_not_use():
    offenders = {
        path.name: hits
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and (hits := unused_imports(path.read_text()))
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
# lists, and ``walk_to_times``, the windowed aging walker, ``blocked_clocks``,
# the row-block clock fold, and ``flat_aging_curve``, the flat reference in
# closed form, since; none may go missing
# (``CapabilityError`` left once nothing raised it, ``overlap`` and
# ``truncated_mean_asymptotic`` once only tests called them, ``TailEstimate``
# and ``estimate_block_tail_grid`` once the intensity read its tail grid
# straight off its block sums, ``ClockPath``, ``blocked_clock`` and
# ``SegmentLengthError`` once the clock folded whole row blocks, and
# ``ConcentrationReport`` and ``concentration_diagnostic`` once only tests ran
# them)
TOP_LEVEL_NAMES = {
    "__version__",
    "ClockprocError", "DimensionMismatchError", "ParameterValidationError",
    "HorizonError", "DegenerateScaleError", "BudgetError",
    "resolve_seeds", "keyed_generator", "StreamFamily", "ReplicaStreams",
    "SpinConfig", "CouplingTensor", "Environment", "zeta", "validate_parameters",
    "block_length", "ZETA_LIMIT", "DEFAULT_ZETA_TABLE",
    "TrajectorySegment", "MixingReport", "blocked_clocks", "simulate_segment",
    "extend_segment", "walk_to_times", "process_at_time", "mixing_check",
    "ordered_map",
    "PowerLawLevyMeasure", "SubordinatorPath", "extend_path", "arcsine_cdf",
    "crossing_probability", "crossing_probability_batch", "truncated_laplace_exponent",
    "SelfTest", "self_test",
    "IntensityEstimate", "SquaredTailEstimate", "LaplaceIntensityEstimate",
    "InitialTermEstimate", "TruncatedMeanEstimate", "ConditionReport",
    "estimate_intensity", "estimate_squared_tail_grid",
    "conditional_block_laplace", "estimate_intensity_laplace", "estimate_initial_term",
    "estimate_truncated_mean", "truncated_mean_quadrature",
    "degenerate_block_tail", "degenerate_block_laplace", "degenerate_initial_term",
    "build_condition_report",
    "correlation_indicator", "AgingCurve", "estimate_aging_curve", "flat_aging_curve",
    "TrapReport", "trap_localization_diagnostic",
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
    assert len(TOP_LEVEL_NAMES) == 63
    assert TOP_LEVEL_NAMES <= set(clockproc.__all__)


# public functions that no module of the package runs: the scalar crossing
# indicator, the path extension, the one-segment correlation indicator and the
# segment extension, which the benchmark tracer still times
# as subordinator.crossing_fallback, subordinator.extend_path, aging.indicator
# and chain.extend_segment until the tracer is retargeted (``process_at_time``,
# which it times too, stays run by the indicator)
RUN_ONLY_BY_CALLERS = {
    "aging.py:correlation_indicator",
    "chain.py:extend_segment",
    "subordinator.py:crossing_probability",
    "subordinator.py:extend_path",
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


def unraised_errors(sources: dict[str, str]) -> list[str]:
    """Classes ``errors.py`` exports, other than the base ``ClockprocError``,
    that no module raises, by name or by attribute, called or bare."""
    errors = ast.parse(sources["errors.py"])
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    return sorted((classes & exported_names(errors)) - raised - {"ClockprocError"})


def test_guard_detects_error_classes_nothing_raises():
    sources = {
        "errors.py": '__all__ = ["ClockprocError", "Called", "Bare", "Dotted", "Dead"]\n'
                     "class ClockprocError(Exception):\n    pass\n"
                     "class Called(ClockprocError):\n    pass\n"
                     "class Bare(ClockprocError):\n    pass\n"
                     "class Dotted(ClockprocError):\n    pass\n"
                     "class Dead(ClockprocError):\n    pass\n"
                     "class Unexported(ClockprocError):\n    pass\n",
        "a.py": "from . import errors\nfrom .errors import Bare, Called, Dead\n\n"
                "def f(x):\n"
                "    if x:\n        raise Called('x')\n"
                "    if x is None:\n        raise Bare\n"
                "    try:\n        g()\n    except Dead:\n        raise\n"
                "    raise errors.Dotted('y')\n",
    }
    assert unraised_errors(sources) == ["Dead"]


def test_every_exported_error_is_raised_by_the_package():
    assert unraised_errors(package_sources()) == []


def status_writes(source: str) -> list[int]:
    """Lines that write a ``"status"`` key: as a dict-literal key, a
    subscript store or a ``status=`` keyword."""
    def is_status(node) -> bool:
        return isinstance(node, ast.Constant) and node.value == "status"

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Dict):
            lines += [key.lineno for key in node.keys if is_status(key)]
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            lines += [node.lineno] if is_status(node.slice) else []
        elif isinstance(node, ast.keyword) and node.arg == "status":
            lines.append(node.lineno)
    return sorted(lines)


def test_guard_detects_status_writes():
    source = (
        'a = {"status": "pass", "z": 0.0}\n'
        'a["status"] = "warn"\n'
        'b = dict(status="fail")\n'
        'c = a["status"] + a.get("status", "pass")\n'
        'd = {"statuses": 1, "note": a["status"]}\n'
        'def f(status):\n    return g(status, a["status"])\n'
        'a["status"] += "!"\n'
    )
    assert status_writes(source) == [1, 2, 3, 8]


def test_only_the_verdicts_module_writes_a_status():
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "verdicts.py" and (lines := status_writes(path.read_text()))
    }
    assert offenders == {}


def philox_handling(source: str) -> list[int]:
    """Lines that name a ``Philox`` bit generator, read or set a generator's
    ``bit_generator.state`` or ``advance`` a stream."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "Philox":
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and (
            node.attr in ("Philox", "advance")
            or node.attr == "state"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "bit_generator"
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_guard_detects_philox_handling():
    source = (
        "import numpy as np\nfrom numpy.random import Philox\n"
        "a = np.random.Philox(key=1)\n"
        "b = Philox(2)\n"
        "c = rng.bit_generator.state\n"
        "rng.bit_generator.state = c\n"
        "a.advance(3)\n"
        "d = rng.state + state.bit_generator + np.random.default_rng(4).random()\n"
    )
    assert philox_handling(source) == [3, 4, 5, 6, 7]


def test_only_the_seeding_module_builds_or_positions_a_philox_stream():
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "seeding.py" and (lines := philox_handling(path.read_text()))
    }
    assert offenders == {}


def replica_fan_outs(source: str) -> list[int]:
    """Lines that build a list of ``.replica(...)`` calls: a list
    comprehension or generator expression whose element is one."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.ListComp, ast.GeneratorExp))
        and isinstance(node.elt, ast.Call)
        and getattr(node.elt.func, "attr", None) == "replica"
    )


def test_guard_detects_replica_fan_outs():
    # the row-block workers of the clock runner and of the aging curve before
    # both called the chain's replica map
    source = (
        "def worker(b: int):\n"
        "    streams = [family.replica(i) for i in range("
        "b * rows, min(cfg.replicas, (b + 1) * rows))]\n"
        "    return blocked_clocks(env, start, k, streams)\n"
        "def worker(b: int):\n"
        "    streams = [family.replica(i) for i in range("
        "b * rows, min(replicas, (b + 1) * rows))]\n"
        "    states, clocks = walk_to_times(env, start, queries, first, step_cap, streams)\n"
        "a = list(StreamFamily(1, 'x').replica(i) for i in range(4))\n"
        "b = simulate_segment(env, None, 8, family.replica(0))\n"
        "c = [replica(i) for i in range(4)] + [r.walk for r in family.replicas]\n"
    )
    assert replica_fan_outs(source) == [2, 5, 7]


def test_only_the_chain_module_fans_replicas_out():
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "chain.py" and (lines := replica_fan_outs(path.read_text()))
    }
    assert offenders == {}
    assert replica_fan_outs((PACKAGE / "chain.py").read_text())


def environment_builds(source: str) -> list[str]:
    """The module-level function, one entry per call, that calls the
    ``Environment`` class or its ``create`` or ``degenerate`` constructor;
    ``<module>`` for a call outside any function."""
    def name(node) -> str | None:
        return getattr(node, "id", getattr(node, "attr", None))

    builds = []
    for statement in ast.parse(source).body:
        function = statement.name if isinstance(statement, ast.FunctionDef) else "<module>"
        for node in ast.walk(statement):
            func = node.func if isinstance(node, ast.Call) else None
            constructor = name(func) in ("create", "degenerate")
            if name(func) == "Environment" or (
                constructor and name(getattr(func, "value", None)) == "Environment"
            ):
                builds.append(function)
    return builds


def test_guard_detects_environment_builds():
    # the environment helper every runner of the CLI called before ``run``
    # built the environment once and handed it in, with its flat branch
    # written as a bare build
    source = (
        "def _build_environment(cfg: ExperimentConfig) -> Environment:\n"
        "    seed = resolve_seeds(cfg.master_seed, 'environment', 0)\n"
        "    if cfg.beta == 0.0:\n"
        "        return Environment(CouplingTensor.sample(cfg.n, cfg.p, seed), 0.0, cfg.gamma)\n"
        "    return Environment.create(cfg.n, cfg.p, cfg.beta, cfg.gamma, seed)\n"
        "def _run_laplace(cfg, args):\n"
        "    env = _build_environment(cfg)\n"
        "def oracles(couplings):\n"
        "    return [environment.Environment(c, 0.0, 1.0) for c in couplings]\n"
        "env = environment.Environment.create(8, 3, 3.0, 2.7, 5)\n"
        "y = Environment.degenerate(8, 3, 0.0, 1.0)\n"
        "x = Environment.energies(env, s) + Table.create(8) + env.degenerate\n"
    )
    assert environment_builds(source) == [
        "_build_environment", "_build_environment", "oracles", "<module>", "<module>"
    ]


def test_only_run_builds_an_environment():
    builds = {
        path.name: set(found)
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := environment_builds(path.read_text()))
    }
    assert builds == {"cli.py": {"run"}}


def relative_imports(source: str) -> set[str]:
    """The package modules a module imports from or imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_the_conditions_module_imports_no_grader():
    source = "from .verdicts import worst\nfrom . import chain, verdicts as v\nimport numpy\n"
    assert relative_imports(source) == {"verdicts", "chain"}
    assert "verdicts" not in relative_imports((PACKAGE / "conditions.py").read_text())


def _is_state_count(node) -> bool:
    """Whether ``node`` is ``1 << x`` or ``2 ** x``."""
    return isinstance(node, ast.BinOp) and isinstance(node.left, ast.Constant) and (
        isinstance(node.op, ast.LShift) and node.left.value == 1
        or isinstance(node.op, ast.Pow) and node.left.value == 2
    )


def whole_state_indices(source: str) -> list[int]:
    """Lines that call an ``arange`` with an argument ``1 << x`` or ``2 ** x``,
    or with a name the module binds to one of these."""
    tree = ast.parse(source)
    counts = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _is_state_count(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    lines = []
    for node in ast.walk(tree):
        func = node.func if isinstance(node, ast.Call) else None
        if getattr(func, "attr", getattr(func, "id", None)) == "arange":
            args = node.args + [keyword.value for keyword in node.keywords]
            if any(
                _is_state_count(arg) or isinstance(arg, ast.Name) and arg.id in counts
                for arg in args
            ):
                lines.append(node.lineno)
    return sorted(lines)


def test_guard_detects_whole_state_space_indices():
    source = (
        "import numpy as np\n"
        "a = np.arange(1 << n, dtype=np.uint64)\n"
        "b = np.arange(2**env.n)\n"
        "size = 1 << env.n\n"
        "c = np.arange(0, size)\n"
        "d = np.arange(lo, min(lo + 8, size))\n"
        "e = arange(stop=2 ** n)\n"
        "f = np.arange(n) + (1 << n) + np.arange(3 << n)\n"
        "g = rng.integers(0, 1 << n, size=8)\n"
    )
    assert whole_state_indices(source) == [2, 3, 5, 7]


def test_no_module_builds_a_whole_state_space_index():
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if (lines := whole_state_indices(path.read_text()))
    }
    assert offenders == {}
