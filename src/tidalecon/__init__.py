"""Techno-economic modelling of tidal-stream turbine arrays."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .finance_core import (
    CashFlowSchedule,
    Compounding,
    DiscountSpec,
    discount_factor,
    present_value,
)
from .cost_model import (
    ArrayDesign,
    CostParameters,
    TariffScheme,
    build_schedule,
    capex,
    energy_year,
    hours_generating,
    opex_year,
)
from .metrics import (
    AmbiguousIrrWarning,
    BreakEvenSpec,
    IrrUndefinedError,
    NoIrrInRangeError,
    NoPaybackError,
    ValidityWindowWarning,
    bep_ev_functional,
    bep_from_capacity_factor,
    bep_functional,
    functional_sweep,
    irr,
    lcoe,
    npv,
    payback_period,
)
from .cost_estimation import (
    CostBasis,
    CostObservation,
    CostSplit,
    FixedToTurbineRatio,
    RatioWindowWarning,
    fit_higgins_ratio,
    learning_rate_adjust,
    normalize_observation,
    split_from_ratio,
    split_two_points,
)
from .scenarios import (
    ParameterRange,
    ScenarioResult,
    builtin_parameters,
    evaluate_scenarios,
    lcoe_rate_elasticity,
    sensitivity_sweep,
)

# Every name the imports above bind, less the submodules they bind on the way.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
