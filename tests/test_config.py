"""Experiment configuration: defaults, validation, JSON round-trips."""

import json
import math
import pathlib
import re

import pytest

from clockproc import config
from clockproc.config import ExperimentConfig, default_ts_grid
from clockproc.environment import Environment
from clockproc.errors import ParameterValidationError


def test_defaults_are_valid_and_describe_reference_model():
    cfg = ExperimentConfig().validate()
    assert (cfg.n, cfg.p, cfg.beta, cfg.gamma) == (14, 3, 3.0, 2.7)
    assert cfg.samples == 100_000
    assert cfg.replicas == 500
    assert cfg.ts_grid == default_ts_grid()
    assert len(cfg.ts_grid) == 6
    assert cfg.threads is None
    assert cfg.resolved_threads() >= 1


def test_threads_default_to_the_cores_this_process_may_run_on(monkeypatch):
    """Under a CPU affinity mask (taskset, a cpuset) the default is the
    mask's size, not the host's core count."""
    monkeypatch.setattr(config.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    monkeypatch.setattr(config.os, "cpu_count", lambda: 8)
    assert ExperimentConfig().resolved_threads() == 2
    assert ExperimentConfig(threads=5).resolved_threads() == 5


@pytest.mark.parametrize("count, threads", [(8, 8), (None, 1)])
def test_threads_fall_back_to_the_cpu_count_without_affinity(count, threads, monkeypatch):
    monkeypatch.delattr(config.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(config.os, "cpu_count", lambda: count)
    assert ExperimentConfig().resolved_threads() == threads


def test_round_trip_through_dict_and_json(tmp_path):
    cfg = ExperimentConfig(n=8, beta=2.0, gamma=1.5, samples=1234,
                           zeta_table={3: 1.05}, threads=2)
    doc = cfg.to_dict()
    assert doc["model"]["n"] == 8
    assert doc["overrides"]["zeta_table"] == {"3": 1.05}  # JSON keys are strings
    back = ExperimentConfig.from_dict(doc)
    assert back == cfg
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    assert ExperimentConfig.load(path) == cfg


def test_partial_documents_inherit_defaults():
    cfg = ExperimentConfig.from_dict({"model": {"n": 10}})
    assert cfg.n == 10
    assert cfg.beta == 3.0
    assert cfg.samples == 100_000


def test_unknown_keys_rejected_per_section():
    with pytest.raises(ParameterValidationError, match="model"):
        ExperimentConfig.from_dict({"model": {"n": 8, "temperature": 2.0}})
    with pytest.raises(ParameterValidationError, match="top level"):
        ExperimentConfig.from_dict({"modell": {}})
    with pytest.raises(ParameterValidationError, match="budgets"):
        ExperimentConfig.from_dict({"budgets": {"walks": 10}})
    with pytest.raises(ParameterValidationError, match="grids"):
        ExperimentConfig.from_dict({"grids": {"w_grid": [1.0]}})
    # every run writes all the files it offers, so there is no format list
    with pytest.raises(ParameterValidationError, match="'formats' in config section 'outputs'"):
        ExperimentConfig.from_dict({"outputs": {"formats": ["csv"]}})


def test_the_readme_config_example_loads():
    """The README's JSON example is a document the parser accepts."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    cfg = ExperimentConfig.from_dict(json.loads(block))
    assert (cfg.n, cfg.master_seed, cfg.directory) == (10, 7, "results")


def test_validation_names_the_violated_constraint():
    with pytest.raises(ParameterValidationError, match="gamma"):
        ExperimentConfig.from_dict({"model": {"n": 10, "beta": 3.0, "gamma": 3.2}})
    with pytest.raises(ParameterValidationError, match="samples"):
        ExperimentConfig(samples=0).validate()
    with pytest.raises(ParameterValidationError, match="master_seed"):
        ExperimentConfig(master_seed=-1).validate()
    with pytest.raises(ParameterValidationError, match="ts_grid"):
        ExperimentConfig(ts_grid=((1.0, 0.0),)).validate()
    with pytest.raises(ParameterValidationError, match=r"grids\.v_grid entries must be positive"):
        ExperimentConfig(v_grid=(0.0, -1.0)).validate()
    with pytest.raises(ParameterValidationError, match=r"grids\.u_grid must be strictly increasing"):
        ExperimentConfig().replace(u_grid=(5.0, 1.0))
    with pytest.raises(ParameterValidationError, match="block_count"):
        ExperimentConfig(block_count=0).validate()
    with pytest.raises(ParameterValidationError, match="threads"):
        ExperimentConfig(threads=0).validate()
    # configs built in code skip from_dict's number parsing, so validate
    # rejects non-finite values itself
    nan, inf = math.nan, math.inf
    for key, grid in (("v_grid", (nan, 1.0)), ("u_grid", (1.0, inf)), ("eps_grid", (0.1, nan))):
        with pytest.raises(ParameterValidationError, match=rf"grids\.{key} .*finite"):
            ExperimentConfig(**{key: grid}).validate()
    for pair in ((nan, 1.0), (1.0, nan), (inf, 1.0), (1.0, inf)):
        with pytest.raises(ParameterValidationError, match=r"grids\.ts_grid .*finite"):
            ExperimentConfig(ts_grid=(pair,)).validate()
    for gamma in (nan, inf):
        with pytest.raises(ParameterValidationError, match=r"gamma must be .*finite"):
            ExperimentConfig(beta=0.0, gamma=gamma).validate()
    with pytest.raises(ParameterValidationError, match="beta must be positive and finite"):
        ExperimentConfig(beta=inf).validate()
    # configs built in code also skip from_dict's parsing of integers, so
    # validate rejects a float, a bool or a null in an integer key itself
    for name, value in (
        ("budgets.samples", 2.5), ("budgets.replicas", 3.5), ("budgets.step_cap", 1e3),
        ("budgets.samples", True), ("budgets.samples", None), ("seeds.master_seed", 3.0),
        ("overrides.block_count", 2.0), ("overrides.block_count", True), ("threads", 1.5),
        ("threads", True),
    ):
        with pytest.raises(ParameterValidationError, match=rf"^{name} must be an integer; got"):
            ExperimentConfig(**{name.rpartition(".")[2]: value}).validate()
    # configs built in code also pass each key through its section's parser,
    # so a mistyped value is refused as its JSON document is, with one message
    for name, value, others, message in (
        ("model.gamma", "2.7", {}, "model.gamma must be a number; got '2.7'"),
        ("model.beta", True, {"gamma": 0.5}, "model.beta must be a number; got True"),
        ("grids.u_grid", ("a", "b"), {}, "grids.u_grid must be a number; got 'a'"),
        ("grids.v_grid", [1.0, True], {}, "grids.v_grid must be a number; got True"),
        ("outputs.directory", 5, {}, "outputs.directory must be a string"),
    ):
        section, key = name.split(".")
        document = {"model": dict(others)}
        document.setdefault(section, {})[key] = value
        for build in (
            lambda: ExperimentConfig(**{key: value}, **others).validate(),
            lambda: ExperimentConfig.from_dict(document),
        ):
            with pytest.raises(ParameterValidationError, match=f"^{re.escape(message)}$"):
                build()


def test_spin_count_above_the_packed_state_limit_is_rejected():
    # states are packed into one uint64 word, so n stops at 63 in both branches
    ExperimentConfig(n=63).validate()
    ExperimentConfig(beta=0.0, gamma=0.5, n=63).validate()
    with pytest.raises(ParameterValidationError, match=r"\[2, 63\]; got 70"):
        ExperimentConfig(n=70).validate()
    with pytest.raises(ParameterValidationError, match=r"n must be an integer in \[2, 63\]; got 70"):
        ExperimentConfig(beta=0.0, gamma=0.5, n=70).validate()


# (n, p, beta, gamma, zeta table) -> None where the model runs, else the
# pattern of the bound its refusal names
_BOUND = r"gamma must satisfy gamma < min\(beta\^2, zeta\(p\)\*beta\)"
DOMAIN = [
    # the flat reference chain: any finite gamma >= 0 at n in [2, 63], p >= 3
    ((2, 3, 0.0, 0.0, None), None),
    ((8, 3, 0.0, 0.5, None), None),
    ((63, 3, 0.0, 2.7, None), None),
    ((8, 5, -0.0, 0.0, None), None),
    ((8, 3, 0.0, 100.0, None), None),
    ((8, 3, 0.0, -0.5, None), "gamma must be nonnegative and finite"),
    ((8, 3, 0.0, math.nan, None), "gamma must be nonnegative and finite"),
    ((8, 3, 0.0, math.inf, None), "gamma must be nonnegative and finite"),
    ((1, 3, 0.0, 0.5, None), r"n must be an integer in \[2, 63\]"),
    ((64, 3, 0.0, 0.5, None), r"n must be an integer in \[2, 63\]"),
    ((8, 2, 0.0, 0.5, None), "p must be an integer >= 3"),
    ((8, 3, -1.0, 0.0, None), "beta must be positive and finite"),
    ((8, 3, -1e-300, 0.5, None), "beta must be positive and finite"),
    # beta > 0: admissibility 0 < gamma < min(beta^2, zeta(p)*beta)
    ((10, 3, 3.0, 2.7, None), None),
    ((10, 3, 0.5, 0.2, None), None),
    ((10, 3, 3.0, 3.2, {3: 1.12}), None),
    ((10, 3, 3.0, 3.2, None), _BOUND),
    ((10, 3, 0.5, 0.25, None), _BOUND),
    ((10, 3, 3.0, 3.4, {3: 1.12}), _BOUND),
    ((10, 3, 3.0, 0.0, None), "gamma must be positive"),
    ((10, 3, 3.0, math.nan, None), "gamma must be positive"),
    ((10, 3, math.inf, 2.7, None), "beta must be positive and finite"),
    ((10, 3, math.nan, 2.7, None), "beta must be positive and finite"),
    ((1, 3, 3.0, 2.7, None), r"n must be an integer in \[2, 63\]"),
    ((10, 2, 3.0, 2.7, None), "p must be an integer >= 3"),
]


@pytest.mark.filterwarnings("ignore:block length")
@pytest.mark.parametrize(
    "model, bound", DOMAIN, ids=["-".join(map(str, model[:4])) for model, _ in DOMAIN]
)
def test_config_and_environment_share_one_model_domain(model, bound):
    n, p, beta, gamma, zeta_table = model
    builds = (
        lambda: ExperimentConfig(n=n, p=p, beta=beta, gamma=gamma, zeta_table=zeta_table).validate(),
        lambda: Environment.create(n, p, beta, gamma, 0, zeta_table),
    )
    for build in builds:
        if bound is None:
            build()
        else:
            with pytest.raises(ParameterValidationError, match=rf"^{bound}"):
                build()


def test_beta_zero_reference_model_is_allowed():
    cfg = ExperimentConfig(beta=0.0, gamma=0.5, n=8).validate()
    assert cfg.beta == 0.0
    # gamma may be zero too in the reference model, but never negative
    ExperimentConfig(beta=0.0, gamma=0.0, n=8).validate()
    with pytest.raises(ParameterValidationError):
        ExperimentConfig(beta=0.0, gamma=-0.5, n=8).validate()


def test_zeta_override_admits_wider_slopes():
    doc = {"model": {"n": 10, "gamma": 3.2},
           "overrides": {"zeta_table": {"3": 1.12}}}
    cfg = ExperimentConfig.from_dict(doc)
    assert cfg.zeta_table == {3: 1.12}
    with pytest.raises(ParameterValidationError):
        ExperimentConfig.from_dict({"model": {"n": 10, "gamma": 3.2}})
    with pytest.raises(ParameterValidationError, match="zeta_table"):
        ExperimentConfig.from_dict({"overrides": {"zeta_table": {"three": 1.1}}})


def test_grid_and_type_coercion_errors():
    with pytest.raises(ParameterValidationError, match="u_grid"):
        ExperimentConfig.from_dict({"grids": {"u_grid": []}})
    with pytest.raises(ParameterValidationError, match="u_grid"):
        ExperimentConfig.from_dict({"grids": {"u_grid": ["a"]}})
    with pytest.raises(ParameterValidationError, match="ts_grid"):
        ExperimentConfig.from_dict({"grids": {"ts_grid": [[1.0]]}})
    with pytest.raises(ParameterValidationError, match="n"):
        ExperimentConfig.from_dict({"model": {"n": 9.5}})


def test_null_overrides_and_threads_take_their_defaults():
    doc = {"overrides": {"block_count": None, "zeta_table": None}, "threads": None}
    assert ExperimentConfig.from_dict(doc) == ExperimentConfig()


def test_null_elsewhere_is_rejected_naming_the_key():
    with pytest.raises(ParameterValidationError, match=r"model\.n must be an integer; got None"):
        ExperimentConfig.from_dict({"model": {"n": None}})
    with pytest.raises(ParameterValidationError, match="config section 'grids'"):
        ExperimentConfig.from_dict({"grids": None})


def test_replace_revalidates():
    cfg = ExperimentConfig(n=8)
    smaller = cfg.replace(samples=10)
    assert smaller.samples == 10 and smaller.n == 8
    with pytest.raises(ParameterValidationError):
        cfg.replace(gamma=100.0)


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParameterValidationError, match="JSON"):
        ExperimentConfig.load(path)
