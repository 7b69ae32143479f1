"""Span wrappers around the public functions of each clockproc layer.

The traced child (``child.py trace``) builds a :class:`Tracer`, calls
:meth:`Tracer.install` and then runs ``clockproc.cli.main``.  Every wrapped
call records one span ``(id, name, start, end, parent, thread, counts)`` in
memory; the child writes them out when the CLI returns.  Spans opened in
``ordered_map`` workers take the enclosing map's item span, and through it
the map span, as their parent.

:func:`layer_metrics` turns the span dump of one traced invocation into the
``<module>.<metric>`` numbers that BENCHMARK.json lists under
``per_layer``.  A ``_s`` metric is the summed inclusive duration of its
spans (thread-seconds when spans run on pool threads); a self time is a
span's duration minus the part of it that its child spans cover.  Private
helpers are not wrapped, so their time shows up as their caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from time import perf_counter

import numpy as np

# (span name, module, attribute path, counter).  A counter maps
# (args, kwargs, result) to a dict of named counts kept on the span.


def _states(args, kwargs, result):
    env = args[0]
    return {"gather" if env.has_energy_table else "contract": int(result.size)}


def _fold_elems(args, kwargs, result):
    energies = args[1] if len(args) > 1 else kwargs["energies"]
    return {"elems": int(np.size(energies))}


def _segment_states(args, kwargs, result):
    return {"states": result.steps + 1}


def _extended_states(args, kwargs, result):
    segment = args[1] if len(args) > 1 else kwargs["segment"]
    return {"states": result.steps - segment.steps}


def _censored(args, kwargs, result):
    return {"censored": int(sum(result.censored))}


def _crossing_rows(args, kwargs, result):
    return {"rows": int(result.size), "decided": int((result >= 0).sum())}


TARGETS = (
    ("environment.create", "clockproc.environment", "Environment.create", None),
    ("environment.energies", "clockproc.environment", "Environment.energies", _states),
    ("conditions.report", "clockproc.conditions", "build_condition_report", None),
    ("conditions.fold", "clockproc.conditions", "conditional_block_laplace", _fold_elems),
    ("conditions.intensity", "clockproc.conditions", "estimate_intensity", None),
    ("conditions.laplace_intensity", "clockproc.conditions", "estimate_intensity_laplace", None),
    ("conditions.squared_tail", "clockproc.conditions", "estimate_squared_tail_grid", None),
    ("conditions.initial_term", "clockproc.conditions", "estimate_initial_term", None),
    ("conditions.truncated_mean", "clockproc.conditions", "estimate_truncated_mean", None),
    ("conditions.quadrature", "clockproc.conditions", "truncated_mean_quadrature", None),
    ("chain.simulate_segment", "clockproc.chain", "simulate_segment", _segment_states),
    ("chain.extend_segment", "clockproc.chain", "extend_segment", _extended_states),
    ("chain.process_at_time", "clockproc.chain", "process_at_time", None),
    ("aging.curve", "clockproc.aging", "estimate_aging_curve", _censored),
    ("aging.indicator", "clockproc.aging", "correlation_indicator", None),
    ("aging.trap", "clockproc.aging", "trap_localization_diagnostic", None),
    ("subordinator.crossing_batch", "clockproc.subordinator", "crossing_probability_batch", _crossing_rows),
    ("subordinator.crossing_fallback", "clockproc.subordinator", "crossing_probability", None),
    ("subordinator.extend_path", "clockproc.subordinator", "extend_path", None),
    ("subordinator.laplace_exponent", "clockproc.subordinator", "truncated_laplace_exponent", None),
    ("parallel.map", "clockproc.parallel", "ordered_map", None),
    ("seeding.keyed_generator", "clockproc.seeding", "keyed_generator", None),
    ("cli.run", "clockproc.cli", "run", None),
    ("cli.write", "clockproc.cli", "_write_csv", None),
    ("cli.write", "clockproc.conditions", "ConditionReport.write_csv", None),
    ("cli.write", "clockproc.conditions", "ConditionReport.write_json", None),
    ("cli.write", "clockproc.aging", "AgingCurve.write_csv", None),
)

# estimators whose self time is walk generation, exponential draws and reductions
ESTIMATORS = (
    "conditions.intensity",
    "conditions.laplace_intensity",
    "conditions.squared_tail",
    "conditions.initial_term",
    "conditions.truncated_mean",
)


class TraceTargetMissing(RuntimeError):
    """A function the tracer wraps no longer exists under its recorded name."""


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, parent: int | None = None) -> tuple:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, perf_counter()

    def end(self, name: str, token: tuple, counts: dict | None = None) -> None:
        end = perf_counter()
        sid, parent, start = token
        self._stack().pop()
        self.spans.append((sid, name, start, end, parent, threading.get_ident(), counts))

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self.begin()
            counts = None
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts = counter(args, kwargs, result)
                return result
            finally:
                self.end(name, token, counts)

        return traced

    def wrap_map(self, fn):
        """``ordered_map`` wrapper: one map span plus one item span per index."""

        @functools.wraps(fn)
        def traced(work, count, threads=1):
            token = self.begin()
            workers = min(threads, count) if threads > 1 and count > 1 else 1

            def item(i):
                inner = self.begin(parent=token[0])
                try:
                    return work(i)
                finally:
                    self.end("parallel.item", inner)

            try:
                return fn(item, count, threads)
            finally:
                self.end("parallel.map", token, {"items": count, "workers": workers})

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded ``clockproc`` module.

        Raises :class:`TraceTargetMissing` naming the first target that no
        longer exists, so a rename cannot silently zero a layer metric.
        """
        import clockproc.cli  # noqa: F401  (loads every layer module)

        for name, module_name, attribute, counter in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError as exc:
                raise TraceTargetMissing(f"trace target module {module_name} is missing") from exc
            owner_name, _, member = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = None if owner is None else owner.__dict__.get(member)
                if raw is None:
                    raise TraceTargetMissing(
                        f"trace target {module_name}.{attribute} no longer exists"
                    )
                if isinstance(raw, classmethod):
                    setattr(owner, member, classmethod(self.wrap(name, raw.__func__, counter)))
                else:
                    setattr(owner, member, self.wrap(name, raw, counter))
                continue
            original = getattr(module, member, None)
            if original is None:
                raise TraceTargetMissing(f"trace target {module_name}.{attribute} no longer exists")
            if member == "ordered_map":
                wrapped = self.wrap_map(original)
            else:
                wrapped = self.wrap(name, original, counter)
            # modules import names directly, so patch every reference
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name != "clockproc" and not loaded_name.startswith("clockproc."):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapped)


def _union(intervals: list[tuple[float, float]]) -> float:
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    bounds = {sid: (start, end) for sid, _, start, end, _, _, _ in spans}
    for sid, _, start, end, parent, _, _ in spans:
        if parent in bounds:
            lo, hi = bounds[parent]
            children.setdefault(parent, []).append((max(start, lo), min(end, hi)))
    return {
        sid: (end - start) - _union(children.get(sid, []))
        for sid, (start, end) in bounds.items()
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metrics of one traced CLI invocation.

    ``dump`` is what the traced child wrote: ``spans``, ``import_s`` and
    ``span_cost_s``, the measured cost of one span.
    """
    total: dict[str, float] = {}
    count: dict[str, float] = {}
    walk_self = run_s = run_self = busy = capacity = 0.0
    spans = [tuple(span) for span in dump["spans"]]
    selfs = self_times(spans)
    for sid, name, start, end, _, _, counts in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        count[name + ".calls"] = count.get(name + ".calls", 0) + 1
        for key, value in (counts or {}).items():
            count[f"{name}.{key}"] = count.get(f"{name}.{key}", 0) + value
            if name == "environment.energies":
                total[f"{name}.{key}"] = total.get(f"{name}.{key}", 0.0) + (end - start)
        if name in ESTIMATORS:
            walk_self += selfs[sid]
        elif name == "cli.run":
            run_s += end - start
            run_self += selfs[sid]
        elif name == "parallel.map":
            capacity += (end - start) * counts["workers"]
        elif name == "parallel.item":
            busy += end - start

    def seconds(name: str) -> float:
        return total.get(name, 0.0)

    def tally(key: str) -> float:
        return count.get(key, 0)

    gather = tally("environment.energies.gather")
    contract = tally("environment.energies.contract")
    rows = tally("subordinator.crossing_batch.rows")
    return {
        "environment.create_s": seconds("environment.create"),
        "environment.energies_s": seconds("environment.energies"),
        "environment.energies_states": gather + contract,
        "environment.contract_states_per_s": _ratio(contract, seconds("environment.energies.contract")),
        "environment.gather_states_per_s": _ratio(gather, seconds("environment.energies.gather")),
        "environment.table_share": _ratio(gather, gather + contract),
        "conditions.fold_s": seconds("conditions.fold"),
        "conditions.fold_elems": tally("conditions.fold.elems"),
        "conditions.fold_elems_per_s": _ratio(
            tally("conditions.fold.elems"), seconds("conditions.fold")
        ),
        "conditions.initial_term_s": seconds("conditions.initial_term"),
        "conditions.intensity_s": seconds("conditions.intensity"),
        "conditions.laplace_intensity_s": seconds("conditions.laplace_intensity"),
        "conditions.squared_tail_s": seconds("conditions.squared_tail"),
        "conditions.truncated_mean_s": seconds("conditions.truncated_mean"),
        "conditions.quadrature_s": seconds("conditions.quadrature"),
        "conditions.walk_self_s": walk_self,
        "chain.simulate_segment_s": seconds("chain.simulate_segment"),
        "chain.extend_segment_s": seconds("chain.extend_segment"),
        "chain.extend_segment_calls": tally("chain.extend_segment.calls"),
        "chain.segment_states": tally("chain.simulate_segment.states")
        + tally("chain.extend_segment.states"),
        "chain.process_at_time_calls": tally("chain.process_at_time.calls"),
        "aging.curve_s": seconds("aging.curve"),
        "aging.indicator_calls": tally("aging.indicator.calls"),
        "aging.trap_s": seconds("aging.trap"),
        "aging.censored": tally("aging.curve.censored"),
        "subordinator.crossing_batch_s": seconds("subordinator.crossing_batch"),
        "subordinator.crossing_batch_rows": rows,
        "subordinator.decided_share": _ratio(tally("subordinator.crossing_batch.decided"), rows),
        "subordinator.crossing_fallback_calls": tally("subordinator.crossing_fallback.calls"),
        "subordinator.extend_path_calls": tally("subordinator.extend_path.calls"),
        "subordinator.laplace_exponent_s": seconds("subordinator.laplace_exponent"),
        "parallel.map_s": seconds("parallel.map"),
        "parallel.items": tally("parallel.map.items"),
        "parallel.busy_share": _ratio(busy, capacity),
        "seeding.streams_opened": tally("seeding.keyed_generator.calls"),
        "cli.import_s": dump["import_s"],
        "cli.write_s": seconds("cli.write"),
        "cli.untraced_share": _ratio(run_self, run_s),
        "trace.overhead_s": dump["span_cost_s"] * len(spans),
    }
