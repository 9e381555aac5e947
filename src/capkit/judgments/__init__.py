"""Judgment layer: interactions, permissibility conditions, and detectors."""

from .failures import (
    DominationResult,
    Finding,
    PaternalismResult,
    detect_coercion,
    detect_deception,
    detect_domination,
    detect_exploitation,
    paternalism_check,
)
from .improvement import (
    AssistanceFlags,
    BeneficenceFlags,
    ConditionResult,
    assistance_life_plans,
    assistance_real_freedom,
    classify_beneficence,
    condition1,
    condition2,
)
from .records import (
    InteractionDeltas,
    InteractionRecord,
    MaterializedStep,
    Trace,
    TraceStep,
    apply_interaction,
    materialize_trace,
)
from .verdict import TraceVerdict, Verdict, detect_trace, judge

__all__ = [
    "AssistanceFlags",
    "BeneficenceFlags",
    "ConditionResult",
    "DominationResult",
    "Finding",
    "InteractionDeltas",
    "InteractionRecord",
    "MaterializedStep",
    "PaternalismResult",
    "Trace",
    "TraceStep",
    "TraceVerdict",
    "Verdict",
    "apply_interaction",
    "assistance_life_plans",
    "assistance_real_freedom",
    "classify_beneficence",
    "condition1",
    "condition2",
    "detect_coercion",
    "detect_deception",
    "detect_domination",
    "detect_exploitation",
    "detect_trace",
    "judge",
    "materialize_trace",
    "paternalism_check",
]
