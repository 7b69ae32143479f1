"""Child processes of the benchmark harness (``run.py`` starts them).

``child.py setup CONFIG SEED``
    Import ``clockproc.cli`` and, unless CONFIG is ``-``, build the
    config's environment through the public ``Environment.create``.  The
    parent times the whole process: that is one ``setup_s`` sample.
``child.py trace SPANS -- CLI-ARGS...``
    Time the import of ``clockproc.cli``, wrap the public functions of every
    layer (``tracing.Tracer``), run ``clockproc.cli.main(CLI-ARGS)`` and
    write the spans as JSON to SPANS.  Exits with the CLI's exit code.

Both print ``clockproc: <path of the imported package>`` on stderr, so the
parent can check that it measured the checkout's own source.
"""

from __future__ import annotations

import json
import sys
import time
import warnings


def setup(config_path: str, seed: str) -> int:
    import clockproc
    import clockproc.cli  # noqa: F401

    if config_path != "-":
        from clockproc import Environment, resolve_seeds
        from clockproc.config import ExperimentConfig

        cfg = ExperimentConfig.load(config_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            Environment.create(
                cfg.n,
                cfg.p,
                cfg.beta,
                cfg.gamma,
                resolve_seeds(int(seed), "environment", 0),
                zeta_table=cfg.zeta_table,
            )
    print(f"clockproc: {clockproc.__file__}", file=sys.stderr)
    return 0


def calibrate(tracer, calls: int = 20_000) -> float:
    """Seconds one span adds, from timing a wrapped no-op ``calls`` times.

    Spans times this cost is the tracing overhead: the difference between a
    traced and an untraced wall time is run-to-run noise at these lengths.
    """
    probe = tracer.wrap("trace.probe", lambda: None)
    start = time.perf_counter()
    for _ in range(calls):
        probe()
    cost = (time.perf_counter() - start) / calls
    tracer.spans.clear()
    return cost


def trace(spans_path: str, cli_args: list[str]) -> int:
    start = time.perf_counter()
    import clockproc
    import clockproc.cli

    import_s = time.perf_counter() - start
    from tracing import Tracer, TraceTargetMissing

    tracer = Tracer()
    try:
        tracer.install()
    except TraceTargetMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 70
    span_cost_s = calibrate(tracer)
    try:
        return clockproc.cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, "span_cost_s": span_cost_s, "spans": tracer.spans}, fh)
        print(f"clockproc: {clockproc.__file__}", file=sys.stderr)


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "setup":
        return setup(argv[1], argv[2])
    if len(argv) >= 3 and argv[0] == "trace" and argv[2] == "--":
        return trace(argv[1], argv[3:])
    print("usage: child.py setup CONFIG SEED | child.py trace SPANS -- CLI-ARGS...", file=sys.stderr)
    return 64


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
