"""Shared parameter records: demand process, reorder policy, unit costs."""

import math
import warnings
from dataclasses import dataclass
from enum import Enum

from .errors import ParameterError


def _require_finite(record, *fields) -> None:
    for name in fields:
        value = getattr(record, name)
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class ProcessParams:
    """Cumulative demand mu*t + alpha*N_t with N a Poisson(lam) process.

    mu    -- drift, demand units per unit time
    alpha -- demand units added by one jump
    lam   -- jump intensity, jumps per unit time
    """

    mu: float
    alpha: float
    lam: float

    def __post_init__(self):
        _require_finite(self, "mu", "alpha", "lam")
        if not (self.mu > 0 and self.alpha > 0 and self.lam > 0):
            raise ParameterError(
                f"process parameters must be strictly positive, got "
                f"mu={self.mu}, alpha={self.alpha}, lam={self.lam}"
            )

    @property
    def demand_rate(self) -> float:
        """Mean demand per unit time, mu + alpha*lam."""
        return self.mu + self.alpha * self.lam


@dataclass(frozen=True)
class PolicyParams:
    """Reorder-point policy: start at x0, order Q whenever cumulative
    demand (net of previous orders) has drawn the level down by a.

    The reorder point is x0 - a.
    """

    x0: float
    a: float
    Q: float

    def __post_init__(self):
        _require_finite(self, "x0", "a", "Q")
        if not self.x0 > 0:
            raise ParameterError(f"initial inventory must be positive, got {self.x0}")
        if not self.Q > 0:
            raise ParameterError(f"order quantity must be positive, got {self.Q}")
        if not 0 < self.a < self.x0:
            raise ParameterError(
                f"drawdown threshold must satisfy 0 < a < x0, got a={self.a}, x0={self.x0}"
            )

    @property
    def reorder_point(self) -> float:
        return self.x0 - self.a

    def threshold(self, n: int) -> float:
        """Cumulative-demand level that triggers the n-th order (n >= 1)."""
        if n < 1:
            raise ParameterError(f"order index must be >= 1, got {n}")
        return self.a + (n - 1) * self.Q


class OrderingMode(str, Enum):
    """How the ordering cost of one replenishment is charged.

    PER_UNIT_TIMES_Q charges c_o * Q per order (the closed-form default);
    PER_ORDER charges c_o per order (the table-experiment default).
    """

    PER_UNIT_TIMES_Q = "per_unit_times_Q"
    PER_ORDER = "per_order"


@dataclass(frozen=True)
class CostParams:
    """Unit costs: ordering c_o, holding c_h per unit-time, shortage c_so
    per unit-time of backordered stock."""

    c_o: float
    c_h: float
    c_so: float
    ordering_mode: OrderingMode = OrderingMode.PER_UNIT_TIMES_Q

    def __post_init__(self):
        _require_finite(self, "c_o", "c_h", "c_so")
        if self.c_o < 0 or self.c_h < 0 or self.c_so < 0:
            raise ParameterError(
                f"costs must be nonnegative, got c_o={self.c_o}, "
                f"c_h={self.c_h}, c_so={self.c_so}"
            )
        # Soft check only: the usual cost ordering, not a hard requirement.
        if not (self.c_h <= self.c_o <= self.c_so):
            warnings.warn(
                f"cost ordering c_h <= c_o <= c_so does not hold "
                f"(c_h={self.c_h}, c_o={self.c_o}, c_so={self.c_so})",
                UserWarning,
                stacklevel=3,  # past the generated __init__, to the line that built the record
            )

    def order_cost(self, Q: float) -> float:
        """Cost charged for a single replenishment of size Q."""
        if self.ordering_mode is OrderingMode.PER_UNIT_TIMES_Q:
            return self.c_o * Q
        return self.c_o
