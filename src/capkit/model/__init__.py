"""Core scenario model: types, orders, freedom sets, and frontiers."""

from .freedom import AccessProfile, DimensionAccess, access_profile, compute_freedom, compute_real_freedom
from .frontier import maximal_set
from .order import dominates, strictly_dominates, theta_prefers
from .types import (
    GUARD_CONTEXTS,
    INTENTS,
    MECHANISMS,
    SPACE_IDS,
    Dimension,
    DimensionSchema,
    FunctioningVector,
    Guard,
    ResourceVector,
    Scenario,
    ThresholdVector,
    UtilizationEntry,
    ValuationMap,
    dedupe_by_value,
)

__all__ = [
    "AccessProfile",
    "DimensionAccess",
    "Dimension",
    "DimensionSchema",
    "FunctioningVector",
    "GUARD_CONTEXTS",
    "Guard",
    "INTENTS",
    "MECHANISMS",
    "ResourceVector",
    "SPACE_IDS",
    "Scenario",
    "ThresholdVector",
    "UtilizationEntry",
    "ValuationMap",
    "access_profile",
    "compute_freedom",
    "compute_real_freedom",
    "dedupe_by_value",
    "dominates",
    "maximal_set",
    "strictly_dominates",
    "theta_prefers",
]
