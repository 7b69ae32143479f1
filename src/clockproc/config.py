"""Experiment configuration: one flat JSON document with fixed sections.

The document has six sections -- ``model``, ``budgets``, ``grids``,
``seeds``, ``outputs``, ``overrides`` -- plus a top-level ``threads`` knob
for the worker-pool width.  ``outputs`` names the output directory alone: a
run writes every file its subcommand offers there.  Thread count never
changes any numeric result (reductions are performed in replica-index
order), it only changes wall time, so two runs of the same config are
comparable even when one of them overrode ``threads`` on the command line.

One table, ``_LAYOUT``, lists each section's keys and the parser of each;
``from_dict`` reads the document through it and ``to_dict`` writes it back
through it.  ``validate``, which every config passes through, however it
was built, runs each key's parser over the field as a check and checks the
integer keys itself, so a config built in code is refused where its JSON
document would be, with the same key named.  A null ``overrides`` entry or
a null ``threads`` keeps its default; a null anywhere else is rejected with
the key named.

Configs round-trip losslessly: ``from_dict(cfg.to_dict())`` reproduces the
config exactly, and the JSON text written by ``save`` parses back to the
same document (floats are serialized via ``repr``, which is lossless for
IEEE doubles).  Partial documents are allowed on input -- missing keys take
the documented defaults -- but unknown sections or keys are rejected so a
typo cannot silently fall back to a default.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Sequence

from .environment import validate_parameters
from .errors import ParameterValidationError

__all__ = [
    "DEFAULT_MASTER_SEED",
    "ExperimentConfig",
    "default_ts_grid",
]

DEFAULT_MASTER_SEED = 20260822


def default_ts_grid() -> tuple[tuple[float, float], ...]:
    """Six (t, s) pairs whose ratios t/(t+s) sweep 0.2 .. 0.8."""
    return (
        (1.0, 4.0),
        (1.0, 7.0 / 3.0),
        (1.0, 1.5),
        (1.0, 1.0),
        (1.0, 2.0 / 3.0),
        (1.0, 0.25),
    )


def _reject_unknown(section: str, given: dict, allowed: Sequence[str]) -> None:
    for key in given:
        if key not in allowed:
            raise ParameterValidationError(
                f"unknown key {key!r} in config section {section!r}; "
                f"allowed keys: {', '.join(allowed)}"
            )


def _as_number(section: str, key: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterValidationError(f"{section}.{key} must be a number; got {value!r}")
    return float(value)


def _as_float(section: str, key: str, value: Any) -> float:
    out = _as_number(section, key, value)
    if not math.isfinite(out):
        raise ParameterValidationError(f"{section}.{key} must be finite; got {value!r}")
    return out


def _as_grid(section: str, key: str, value: Any) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ParameterValidationError(f"{section}.{key} must be a list of numbers")
    return tuple(_as_float(section, key, item) for item in value)


def _as_pairs(section: str, key: str, value: Any) -> tuple[tuple[float, float], ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ParameterValidationError(f"{section}.{key} must be a nonempty list of [t, s]")
    pairs = []
    for item in value:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ParameterValidationError(
                f"{section}.{key} entries must be [t, s] pairs; got {item!r}"
            )
        pairs.append((_as_float(section, key, item[0]), _as_float(section, key, item[1])))
    return tuple(pairs)


def _as_path(section: str, key: str, value: Any) -> str:
    if not isinstance(value, str):
        raise ParameterValidationError(f"{section}.{key} must be a string")
    return value


def _as_zeta_table(section: str, key: str, value: Any) -> dict[int, float]:
    if not isinstance(value, dict):
        raise ParameterValidationError(
            f"{section}.{key} must map interaction order to a value"
        )
    table = {}
    for raw, entry in value.items():
        try:
            order = int(raw)
        except (TypeError, ValueError):
            raise ParameterValidationError(
                f"{section}.{key} keys must be integers; got {raw!r}"
            ) from None
        table[order] = _as_float(section, key, entry)
    return table


def _to_json(value: Any) -> Any:
    """A config field as plain JSON: tuples become lists, table keys strings."""
    if isinstance(value, tuple):
        return [_to_json(item) for item in value]
    if isinstance(value, dict):
        return {str(key): entry for key, entry in sorted(value.items())}
    return value


# section -> {key: parser}; each key names the ExperimentConfig field it sets.
# An integer key has no parser: ``validate`` checks its type.  The model's
# numbers are only typed here, since ``validate_parameters`` names their
# bounds, finiteness among them.  The top-level ``threads`` is the one key
# outside a section, and an integer.
_LAYOUT = {
    "model": {"n": None, "p": None, "beta": _as_number, "gamma": _as_number},
    "budgets": {"samples": None, "replicas": None, "step_cap": None},
    "grids": {"u_grid": _as_grid, "v_grid": _as_grid, "eps_grid": _as_grid, "ts_grid": _as_pairs},
    "seeds": {"master_seed": None},
    "outputs": {"directory": _as_path},
    "overrides": {"block_count": None, "zeta_table": _as_zeta_table},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run configuration.

    Defaults describe the accepted-parameter experiment (n=14, p=3,
    beta=3, gamma=2.7, so alpha=0.3); tests and small studies override the
    model section.  ``threads`` of None means "use every available core".
    """

    # model
    n: int = 14
    p: int = 3
    beta: float = 3.0
    gamma: float = 2.7
    # budgets
    samples: int = 100_000
    replicas: int = 500
    step_cap: int = 100_000_000
    # grids
    u_grid: tuple[float, ...] = (0.25, 0.4, 0.63, 1.0, 1.59, 2.52, 4.0)
    # geometric in the window where the intensity responds as a power law at
    # reachable n; below it the transform is dominated by the bulk of small
    # increments and the local slope flattens toward zero
    v_grid: tuple[float, ...] = (1.0, 1.78, 3.16, 5.62, 10.0, 17.8, 31.6, 56.2, 100.0)
    eps_grid: tuple[float, ...] = (0.05, 0.1, 0.2)
    ts_grid: tuple[tuple[float, float], ...] = field(default_factory=default_ts_grid)
    # seeds
    master_seed: int = DEFAULT_MASTER_SEED
    # outputs
    directory: str = "results"
    # overrides
    block_count: int | None = None
    zeta_table: dict[int, float] | None = None
    # worker pool width; None = available cores
    threads: int | None = None

    def validate(self) -> "ExperimentConfig":
        """Check every constraint, raising with the violated one named."""
        keys = [
            (f"{section}.{key}", parse, getattr(self, key))
            for section, parsers in _LAYOUT.items()
            for key, parse in parsers.items()
        ]
        for name, parse, value in keys + [("threads", None, self.threads)]:
            if value is None and name.startswith(("overrides.", "threads")):
                continue  # unset: the default
            if parse is not None:
                parse(*name.split("."), value)  # a check: the field keeps its value
            elif isinstance(value, bool) or not isinstance(value, int):
                raise ParameterValidationError(f"{name} must be an integer; got {value!r}")
            # every count is at least 1; the model and the seed have their own bounds
            elif value < 1 and not name.startswith(("model.", "seeds.")):
                raise ParameterValidationError(f"{name} must be >= 1; got {value}")
        validate_parameters(self.n, self.p, self.beta, self.gamma, self.zeta_table)
        for key in ("u_grid", "v_grid", "eps_grid"):
            grid = getattr(self, key)
            if not grid:
                raise ParameterValidationError(f"grids.{key} must be nonempty")
            if not all(item > 0 for item in grid):
                raise ParameterValidationError(f"grids.{key} entries must be positive")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ParameterValidationError(f"grids.{key} must be strictly increasing")
        for t, s in self.ts_grid:
            if not (t >= 0 and s > 0):
                raise ParameterValidationError(
                    f"grids.ts_grid pairs need t >= 0 and s > 0; got ({t}, {s})"
                )
        if not (0 <= self.master_seed < 1 << 64):
            raise ParameterValidationError(
                f"seeds.master_seed must lie in [0, 2^64); got {self.master_seed}"
            )
        if not self.directory:
            raise ParameterValidationError("outputs.directory must be a nonempty path")
        return self

    def resolved_threads(self) -> int:
        """``threads``, or else the cores this process may run on: its CPU
        affinity where the platform reports one, not the host's count."""
        if self.threads is not None:
            return self.threads
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-JSON document, fully resolved (defaults expanded)."""
        document = {
            section: {key: _to_json(getattr(self, key)) for key in keys}
            for section, keys in _LAYOUT.items()
        }
        document["threads"] = self.threads
        return document

    @classmethod
    def from_dict(cls, document: dict) -> "ExperimentConfig":
        if not isinstance(document, dict):
            raise ParameterValidationError("config document must be a JSON object")
        _reject_unknown("<top level>", document, (*_LAYOUT, "threads"))
        kwargs: dict[str, Any] = {}
        for section, parsers in _LAYOUT.items():
            given = document.get(section, {})
            if not isinstance(given, dict):
                raise ParameterValidationError(f"config section {section!r} must be a JSON object")
            _reject_unknown(section, given, tuple(parsers))
            for key, parse in parsers.items():
                # an override left null keeps its default (unset)
                if key in given and (given[key] is not None or section != "overrides"):
                    kwargs[key] = given[key] if parse is None else parse(section, key, given[key])
        if document.get("threads") is not None:
            kwargs["threads"] = document["threads"]
        return cls(**kwargs).validate()

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                document = json.load(handle)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ParameterValidationError(f"config file is not valid JSON: {exc}") from exc
        return cls.from_dict(document)

    def replace(self, **changes) -> "ExperimentConfig":
        merged = {**self.__dict__, **changes}
        return type(self)(**merged).validate()
