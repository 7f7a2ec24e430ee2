"""Reorder-point inventory analysis under drifted-Poisson demand.

Closed-form expected inventory and total cost for a (reorder point,
fixed order quantity) policy when cumulative demand is linear drift
plus Poisson-timed jumps, together with an exact event-driven Monte
Carlo oracle and a rolling-forecast baseline experiment.
"""

from .cost import (
    CostBreakdown,
    CostCurve,
    ExactMoments,
    argmax_time,
    cost_curve,
    exact_moments,
    expected_inventory,
    expected_total_cost,
    long_run_rate,
    sweep,
)
from .demand import SamplePath, demand_at, period_increments, sample_path
from .errors import (
    DomainError,
    InsufficientDataError,
    ParameterError,
    SeriesNotConvergedError,
)
from .forecast import (
    ExperimentConfig,
    TableRow,
    croston_forecast,
    reorder_sim_discrete,
    rolling_forecast,
    run_table_experiment,
)
from .mc import SimSummary, Trajectory, mc_summary, realized_cost, simulate
from .params import CostParams, OrderingMode, PolicyParams, ProcessParams
from .renewal import (
    GammaSpec,
    RenewalSeriesConfig,
    expected_integrated_renewals,
    expected_renewals,
    fpt_empirical_cdf,
    fpt_gamma_spec,
    gamma_cdf,
    literal_integrand_cdf,
    truncated_mean,
)

__version__ = "0.1.0"

__all__ = [
    "CostBreakdown",
    "CostCurve",
    "CostParams",
    "DomainError",
    "ExactMoments",
    "ExperimentConfig",
    "GammaSpec",
    "InsufficientDataError",
    "OrderingMode",
    "ParameterError",
    "PolicyParams",
    "ProcessParams",
    "RenewalSeriesConfig",
    "SamplePath",
    "SeriesNotConvergedError",
    "SimSummary",
    "TableRow",
    "Trajectory",
    "argmax_time",
    "cost_curve",
    "croston_forecast",
    "demand_at",
    "exact_moments",
    "expected_integrated_renewals",
    "expected_inventory",
    "expected_renewals",
    "expected_total_cost",
    "fpt_empirical_cdf",
    "fpt_gamma_spec",
    "gamma_cdf",
    "mc_summary",
    "literal_integrand_cdf",
    "long_run_rate",
    "period_increments",
    "realized_cost",
    "reorder_sim_discrete",
    "rolling_forecast",
    "run_table_experiment",
    "sample_path",
    "simulate",
    "sweep",
    "truncated_mean",
]
