"""Run configuration: JSON file -> typed parameter objects.

The shipped defaults are the reference scenario (x0=100, mu=5,
alpha=10, lam=1, a=50, Q=50, C_h=1 <= C_o=5 <= C_so=10), so every
command runs meaningfully with no config at all.  CLI flags override
individual fields.  Keys and value kinds are checked against the
defaults, so a misspelled key or a value of the wrong kind is an error
rather than a silent default.  The merge stores each accepted value in
its default's kind (50 for a float key is 50.0, 9.0 for an integer key
is 9), so nothing downstream casts and no output depends on how a
number was spelled.
"""

import copy
import json
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .forecast import ExperimentConfig
from .params import CostParams, OrderingMode, PolicyParams, ProcessParams
from .renewal import RenewalSeriesConfig

# the most points a time grid (grid.steps, fpt.steps) may have, and the most
# thresholds fpt-diag compares (fpt.n_values); checked before any array exists
MAX_STEPS = 100_000

DEFAULT_CONFIG = {
    "process": {"mu": 5.0, "alpha": 10.0, "lam": 1.0},
    "policy": {"x0": 100.0, "a": 50.0, "Q": 50.0},
    "costs": {
        "c_o": 5.0,
        "c_h": 1.0,
        "c_so": 10.0,
        "ordering_mode": "per_unit_times_Q",
    },
    "grid": {"t_start": 0.0, "t_end": 12.0, "steps": 121},
    "series": {"tail_tol": 1e-12, "n_max": 10000},
    "mc": {"n_paths": 100000, "base_seed": 20240},
    "validate": {"times": [2.0, 5.0, 10.0]},
    "fpt": {"n_values": 5, "t_end": 12.0, "steps": 61},
    "sweep": {"a_list": [40.0, 50.0, 60.0], "Q_list": [50.0, 60.0], "c_o_list": [5.0, 10.0]},
    "experiment": {
        "n_series": 1000,
        "window": 12,
        "sim_start": 13,
        "sim_end": 50,
        "period_length": 1.0,
        "base_seed": 7000000,
        "ordering_mode": "per_order",
        "trigger": "on_hand",
        "forecaster": "arima",
    },
}


def _kind(default):
    """What may replace ``default``, as error messages name it."""
    if isinstance(default, dict):
        return "an object"
    if isinstance(default, str):
        return "a string"
    if isinstance(default, list):
        return "a list of finite numbers"
    return "an integer" if isinstance(default, int) else "a finite number"


def _fits(default, value) -> bool:
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(default[0], v) for v in value)
    if isinstance(default, (dict, str)):
        return isinstance(value, type(default))
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, ints beyond any float
        return False
    # 9.0 passes for an integer key; 9.5 would be truncated silently
    return not isinstance(default, int) or float(value).is_integer()


def _merge(base, override, prefix=""):
    """``base`` updated from ``override``; every key must already be in
    ``base`` and every value must be of its default's kind, in which it
    is stored: the one place a config value gets its type."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        name = prefix + key
        if key not in base:
            raise ParameterError(f"unknown config key {name!r}")
        default = base[key]
        if not _fits(default, value):
            raise ParameterError(f"config key {name!r} must be {_kind(default)}, got {value!r}")
        if isinstance(default, dict):
            out[key] = _merge(default, value, name + ".")
        elif isinstance(default, list):
            out[key] = [type(default[0])(v) for v in value]
        else:
            out[key] = type(default)(value)
    return out


@dataclass(frozen=True)
class RunConfig:
    raw: dict
    process: ProcessParams
    policy: PolicyParams
    costs: CostParams
    grid: np.ndarray
    series: RenewalSeriesConfig
    n_paths: int
    base_seed: int
    validate_times: tuple
    experiment: ExperimentConfig


def _build_grid(t_start: float, t_end: float, steps: int) -> np.ndarray:
    if t_start < 0 or t_end < t_start:
        raise ParameterError(f"grid must satisfy 0 <= t_start <= t_end, got [{t_start}, {t_end}]")
    if steps == 1 or t_end == t_start:
        return np.array([t_start])
    return np.linspace(t_start, t_end, steps)


def _require(ok: bool, key: str, what: str, value) -> None:
    if not ok:
        raise ParameterError(f"config key {key!r} must be {what}, got {value!r}")


def _check_domains(raw: dict) -> None:
    """Ranges the kind check cannot see: seeds numpy accepts, grids and
    threshold lists that fit in memory, and validate/fpt runs that
    compare something."""
    for section in ("mc", "experiment"):
        seed = raw[section]["base_seed"]
        _require(seed >= 0, f"{section}.base_seed", "a non-negative integer", seed)
    times = raw["validate"]["times"]
    _require(len(times) > 0, "validate.times", "a non-empty list", times)
    _require(all(t > 0 for t in times), "validate.times", "a list of positive numbers", times)
    for section, key in (("grid", "steps"), ("fpt", "steps"), ("fpt", "n_values")):
        count = raw[section][key]
        _require(count >= 1, f"{section}.{key}", "at least 1", count)
        _require(count <= MAX_STEPS, f"{section}.{key}", f"at most {MAX_STEPS}", count)
    _require(raw["fpt"]["t_end"] > 0, "fpt.t_end", "positive", raw["fpt"]["t_end"])


def build_config(raw: dict) -> RunConfig:
    _check_domains(raw)
    process = ProcessParams(**raw["process"])
    policy = PolicyParams(**raw["policy"])
    costs_raw = raw["costs"]
    costs = CostParams(**dict(costs_raw, ordering_mode=OrderingMode(costs_raw["ordering_mode"])))
    exp_raw = dict(raw["experiment"])
    exp_costs = replace(costs, ordering_mode=OrderingMode(exp_raw.pop("ordering_mode")))
    experiment = ExperimentConfig(process=process, policy=policy, costs=exp_costs, **exp_raw)
    return RunConfig(
        raw=raw,
        process=process,
        policy=policy,
        costs=costs,
        grid=_build_grid(**raw["grid"]),
        series=RenewalSeriesConfig(**raw["series"]),
        n_paths=raw["mc"]["n_paths"],
        base_seed=raw["mc"]["base_seed"],
        validate_times=tuple(raw["validate"]["times"]),
        experiment=experiment,
    )


def load_config(path=None, overrides=None) -> RunConfig:
    """Merge defaults <- config file <- CLI overrides, then build."""
    raw = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ParameterError("a config file must hold a JSON object")
        raw = _merge(raw, loaded)
    if overrides:
        raw = _merge(raw, overrides)
    return build_config(raw)
