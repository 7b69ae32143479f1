"""Statement traffic: the statements of the package's functions that a set of
``clockproc`` runs leaves unrun.

Usage, from the repository root::

    PYTHONPATH=src python tests/traffic.py [--threads K] [RUN ...]

A RUN is a subcommand, optionally followed by ``:`` and a config document in
JSON, as in ``'aging:{"model":{"n":14},"budgets":{"replicas":1000}}'``;
without one the six subcommands run on ``{}``, the shipped defaults.  Each
run goes through ``clockproc.cli.main`` into a temporary directory under
``sys.settrace`` and ``threading.settrace``, so the statements that pool and
helper threads run count too.  The script then prints, for each function of
``src/clockproc`` (nested functions and lambdas count as their enclosing
function's) the lines of its statements that no run reached, or that no
run called it.  A compound statement counts as reached when any line inside
it is.  Module and class bodies run at import and are not listed.  pytest
does not collect this file; ``tests/test_traffic.py`` pins the functions
that the six runs on ``{}`` never call.  The package's heavy work runs
inside numpy, so tracing costs little: the ten runs below take about 9 s
on two cores.

The six subcommands on ``{}`` and the configs of the four benchmark
workloads (``bench/run.py``: ``conditions`` at n = 14 and n = 20, ``aging``
at n = 14 with its short (t, s) grid, ``subordinator`` at its defaults), at
``--threads 2``, leave unrun:

- the v < 0 refusal of the per-state transform fold
  (``conditional_block_laplace``): the ``conditions`` run at n = 20, whose
  5,000-sample chunk of 2,080,000 states is below 3 * 2^n, folds each row
  block through it for the whole v grid, and its block sums take the
  per-state branch of ``_block_sums`` too; the six runs on ``{}`` never
  call it;
- the multi-pass branch of ``_table_folds``, which keeps a chunk's walk as
  uint32 row blocks where a chunk of 3 * 2^n states or more cannot hold the
  term tables of the whole v grid at once (n = 18 to 20 at larger sample
  counts);
- the tensor contraction of ``Environment.energies`` (``_contract``,
  ``_energy_fold``, ``_signs_from_bits``), which serves n >= 23;
- the beta = 0 closed forms (``degenerate_*`` of ``conditions``,
  ``cli._closed_form_check``, and the flat branches of
  ``validate_parameters``, ``_laplace_verdicts``, ``_condition_verdicts``
  and the runners);
- the ``s == 0`` and zero-drift branches of ``crossing_probability_batch``;
- the functions only the benchmark tracer calls (``correlation_indicator``
  with ``process_at_time`` and ``TrajectorySegment.cumulative``,
  ``extend_segment``, ``crossing_probability`` and ``extend_path`` with the
  ``SubordinatorPath`` methods they read);
- the one-thread paths of ``ordered_map`` and ``prefetch``, the config
  coercions of keys the documents leave out, and the raises of the input
  checks and the error branch of ``main``.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import pathlib
import sys
import tempfile
import threading

import clockproc
from clockproc import cli

PACKAGE = pathlib.Path(clockproc.__file__).parent
SUBCOMMANDS = ("conditions", "laplace", "clock", "aging", "mixing", "subordinator")


def function_statements(source: str) -> dict[str, dict[int, tuple[int, int, tuple]]]:
    """Function qualname -> {statement line: (first line, last line, the
    first lines of its enclosing statements)} for every statement of each
    function body, docstrings and declarations aside."""
    functions: dict[str, dict[int, tuple[int, int, tuple]]] = {}

    def visit(body, owner: str | None, prefix: str, outer: tuple) -> None:
        """Record the statements of ``body``, which belong to the function
        ``owner`` (None in a module or class body)."""
        for index, node in enumerate(body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if owner is not None:
                    functions[owner][node.lineno] = (node.lineno, node.lineno, outer)
                name = prefix + node.name
                if isinstance(node, ast.ClassDef):
                    visit(node.body, None, name + ".", ())
                else:
                    functions[name] = {}
                    visit(node.body, name, name + ".", ())
                continue
            docstring = index == 0 and isinstance(node, ast.Expr) and isinstance(
                node.value, ast.Constant
            ) and isinstance(node.value.value, str)
            if owner is None or docstring or isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            functions[owner][node.lineno] = (node.lineno, node.end_lineno, outer)
            inner = outer + (node.lineno,)
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), owner, prefix, inner)
            for clause in getattr(node, "handlers", []) + getattr(node, "cases", []):
                visit(clause.body, owner, prefix, inner)

    visit(ast.parse(source).body, None, "", ())
    return functions


class LineRecorder:
    """The (file, line) pairs that package frames run, on every thread."""

    def __init__(self) -> None:
        self.lines: set[tuple[str, int]] = set()
        self.prefix = str(PACKAGE)

    def __call__(self, frame, event, arg):
        if not frame.f_code.co_filename.startswith(self.prefix):
            return None
        self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self.local

    def local(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self.local

    @contextlib.contextmanager
    def installed(self):
        sys.settrace(self)
        threading.settrace(self)
        try:
            yield
        finally:
            threading.settrace(None)
            sys.settrace(None)


def run(recorder: LineRecorder, command: str, config: dict, threads: int) -> int:
    """One ``clockproc`` run, its output and files thrown away; its exit code."""
    with tempfile.TemporaryDirectory() as scratch:
        path = pathlib.Path(scratch) / "config.json"
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path), "--out", f"{scratch}/out"]
        argv += ["--threads", str(threads)]
        with contextlib.redirect_stdout(io.StringIO()), recorder.installed():
            return cli.main(argv)


def unreached(recorder: LineRecorder) -> list[tuple[str, list[int], bool]]:
    """(``module.py:qualname``, its unreached statement lines, whether it was
    called) for each function with a statement no run reached."""
    report = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = {line for name, line in recorder.lines if name == str(path)}
        for qualname, statements in function_statements(path.read_text()).items():
            reached = set()
            for first, last, outer in statements.values():
                if any(line in ran for line in range(first, last + 1)):
                    reached.update((first,) + outer)
            missing = sorted(set(statements) - reached)
            if missing:
                report.append((f"{path.name}:{qualname}", missing, bool(reached)))
    return report


def spans(lines: list[int]) -> str:
    """``3-5, 9`` for the lines 3, 4, 5 and 9."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="*", metavar="RUN", help="COMMAND[:CONFIG_JSON]")
    parser.add_argument("--threads", type=int, default=2)
    args = parser.parse_args(argv)
    recorder = LineRecorder()
    for spec in args.runs or SUBCOMMANDS:
        command, _, document = spec.partition(":")
        code = run(recorder, command, json.loads(document or "{}"), args.threads)
        print(f"{command} {document or '{}'}: exit {code}")
    for name, lines, called in unreached(recorder):
        print(f"{name}: {'lines ' + spans(lines) if called else 'never called'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
