"""Workloads: seeded command invocations of the driftinv CLI.

A workload is an endless sequence of cycles.  Cycle ``j`` of seed ``s``
is a fixed list of invocations whose config files are drawn from
``numpy.random.default_rng([s, j])``, so a seed fixes every input and a
different seed changes them.  Each invocation carries the units of work
it requests, counted from its inputs only.

Policy parameters are drawn as full-precision floats on purpose: with
round values, a drift crossing can land exactly on an evaluation time,
and which side of it the program falls on is then floating-point luck
that no oracle can predict.  Their ranges are narrow because they set
how much work a unit takes (series terms, jump horizons); wide ranges
made the throughput depend on the seed.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

X0 = 100.0
REFERENCE = {"mu": 5.0, "alpha": 10.0, "lam": 1.0}
# same mean demand rate (mu + alpha*lam = 15), four times the jumps
HIGH_INTENSITY = {"mu": 5.0, "alpha": 2.5, "lam": 4.0}

MC_PATHS = 2000
VALIDATE_TIMES = [4.0, 7.0, 10.0]
FPT = {"n_values": 3, "t_end": 12.0, "steps": 31}
CURVE_STEPS = 61
ARIMA_SERIES = 12
CROSTON_SERIES = 200
SERIES = {"tail_tol": 1e-12, "n_max": 10000}
EXPERIMENT = {
    "window": 12, "sim_start": 13, "sim_end": 50, "period_length": 1.0,
    "ordering_mode": "per_order",
}
SIM_PERIODS = EXPERIMENT["sim_end"] - EXPERIMENT["sim_start"] + 1

# (R, Q) and (C_o, C_so) of the 48-row table experiment, C_h = 1
TABLE_RQ = [
    (40.0, 50.0), (40.0, 60.0), (50.0, 50.0), (50.0, 60.0), (60.0, 50.0), (60.0, 60.0),
    (40.0, 110.0), (40.0, 120.0), (50.0, 110.0), (50.0, 120.0), (60.0, 110.0), (60.0, 120.0),
]
TABLE_COSTS = [(5.0, 10.0), (10.0, 10.0), (5.0, 15.0), (10.0, 15.0)]
TABLE_ROWS = [(R, Q, 1.0, c_o, c_so) for R, Q in TABLE_RQ for c_o, c_so in TABLE_COSTS]


@dataclass(frozen=True)
class Invocation:
    command: str
    config: dict
    units: int
    slot: int  # position within its cycle


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    unit: str
    make_cycle: Callable  # rng -> [(command, config, units)]

    def cycle(self, seed: int, j: int):
        rng = np.random.default_rng([seed, j])
        return [
            Invocation(command, config, units, slot)
            for slot, (command, config, units) in enumerate(self.make_cycle(rng))
        ]


def _seed(rng) -> int:
    return int(rng.integers(2**31 - 1))


def _mc_cycle(rng):
    units = {
        "simulate": MC_PATHS,
        "validate": MC_PATHS * len(VALIDATE_TIMES),
        "fpt-diag": MC_PATHS * 2 * FPT["n_values"],
    }
    out = []
    for process in (REFERENCE, HIGH_INTENSITY):
        for command in ("simulate", "validate", "fpt-diag"):
            config = {
                "process": dict(process),
                "policy": {"x0": X0, "a": rng.uniform(48.0, 52.0), "Q": rng.uniform(48.0, 52.0)},
                "grid": {"t_start": 0.0, "t_end": 12.0, "steps": 13},
                "mc": {"n_paths": MC_PATHS, "base_seed": _seed(rng)},
                "validate": {"times": list(VALIDATE_TIMES)},
                "fpt": dict(FPT),
            }
            out.append((command, config, units[command]))
    return out


def _closed_form_cycle(rng):
    mode = str(rng.choice(["per_unit_times_Q", "per_order"]))
    out = []
    for t_end in (12.0, 60.0):
        a_list = [rng.uniform(38.0, 42.0), rng.uniform(48.0, 52.0), rng.uniform(58.0, 62.0)]
        q_list = [rng.uniform(43.0, 47.0), rng.uniform(53.0, 57.0)]
        c_o_list = [rng.uniform(1.0, 5.0), rng.uniform(5.0, 10.0)]
        config = {
            "process": dict(REFERENCE),
            "policy": {"x0": X0, "a": a_list[1], "Q": q_list[0]},
            "costs": {"c_o": c_o_list[0], "c_h": 1.0, "c_so": 10.0, "ordering_mode": mode},
            "grid": {"t_start": 0.0, "t_end": t_end, "steps": CURVE_STEPS},
            "series": dict(SERIES),
            "sweep": {"a_list": a_list, "Q_list": q_list, "c_o_list": c_o_list},
        }
        out.append(("expected-cost", config, CURVE_STEPS))
        out.append(("sweep", config, CURVE_STEPS * 12))
    return out


def _experiment_config(rng, n_series, **experiment):
    R, Q, _, c_o, c_so = TABLE_ROWS[int(rng.integers(len(TABLE_ROWS)))]
    return {
        "process": dict(REFERENCE),
        "policy": {"x0": X0, "a": X0 - R, "Q": Q},
        "costs": {"c_o": c_o, "c_h": 1.0, "c_so": c_so},
        "experiment": dict(EXPERIMENT, n_series=n_series, base_seed=_seed(rng), **experiment),
    }


def _arima_cycle(rng):
    config = _experiment_config(rng, ARIMA_SERIES)
    units = ARIMA_SERIES * SIM_PERIODS
    return [("table1", config, units), ("compare", config, units)]


def _croston_cycle(rng):
    config = _experiment_config(
        rng, CROSTON_SERIES, forecaster="croston", trigger="forecast_projected"
    )
    return [("table1", config, CROSTON_SERIES * len(TABLE_ROWS))]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "mc",
            "simulate, validate and fpt-diag on the reference and a high-intensity "
            "process: jump sampling and the event kernel dominate",
            "paths requested",
            _mc_cycle,
        ),
        Workload(
            "closed-form",
            "expected-cost and sweep to t=12 and t=60: the renewal series and the "
            "incomplete gamma dominate, nothing is simulated",
            "cost points written",
            _closed_form_cycle,
        ),
        Workload(
            "forecast-arima",
            "table1 then compare on one config: the rolling ARIMA fit dominates and "
            "the two commands build the same experiment",
            "series x simulated periods per command",
            _arima_cycle,
        ),
        Workload(
            "forecast-croston",
            "table1 with Croston and the forecast-projected trigger: the discrete "
            "replay dominates and ARIMA does not run",
            "series x grid rows",
            _croston_cycle,
        ),
    ]
}
