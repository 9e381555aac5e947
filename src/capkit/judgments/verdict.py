"""Verdict assembly: one structured judgment per interaction, one per trace.

Each verdict lists its adverse outcomes once (``adverse``): the list decides
``has_violation``, and each outcome on it must carry evidence.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from ..errors import InternalInvariantError
from ..model.types import Scenario
from ..rationals import format_rational
from .failures import (
    DominationResult,
    Finding,
    PaternalismResult,
    detect_domination,
    detect_failures,
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
from .records import InteractionRecord, Trace, materialize_trace


def _failure_outcomes(paternalism: PaternalismResult, findings: Sequence[Finding]) -> list:
    """The adverse outcomes of one before/after pair's failure detectors."""
    out = [("paternalism", paternalism.evidence)] if paternalism.status == "unjustified" else []
    return out + [(f.kind, f.evidence) for f in findings]


class _Outcomes:
    @property
    def has_violation(self) -> bool:
        """True when anything a --fail-on-violation caller cares about fired."""
        return bool(self.adverse())


@dataclass(frozen=True)
class Verdict(_Outcomes):
    """The full structured judgment of one interaction."""

    interaction_id: str
    condition1: ConditionResult
    condition2: ConditionResult
    beneficence: BeneficenceFlags
    assistance: AssistanceFlags
    paternalism: PaternalismResult
    findings: tuple[Finding, ...]

    @property
    def subject(self) -> str:
        return f"interaction {self.interaction_id!r}"

    def adverse(self) -> list[tuple[str, tuple[dict, ...]]]:
        """(label, evidence) of each adverse outcome, in report order."""
        conditions = (("condition1", self.condition1), ("condition2", self.condition2))
        out = [(label, c.evidence) for label, c in conditions if c.violated]
        return out + _failure_outcomes(self.paternalism, self.findings)

    def to_dict(self) -> dict:
        return {
            "interaction": self.interaction_id,
            "condition1": _outcome_dict(self.condition1),
            "condition2": _outcome_dict(self.condition2),
            "beneficence": {**asdict(self.beneficence), "weak_only": self.beneficence.weak_only},
            "assistance": asdict(self.assistance),
            "paternalism": {
                "status": self.paternalism.status,
                "clauses": dict(self.paternalism.clauses),
                "failed_clauses": list(self.paternalism.failed_clauses),
                "evidence": _canonical_evidence(self.paternalism.evidence),
            },
            "findings": [_finding_dict(f) for f in self.findings],
        }


@dataclass(frozen=True)
class TraceVerdict(_Outcomes):
    """Domination over one trace, and the failure detectors on each step:
    (step index, interaction id, findings, paternalism) per step."""

    trace_id: str
    domination: DominationResult
    steps: tuple[tuple[int, str, tuple[Finding, ...], PaternalismResult], ...]

    @property
    def subject(self) -> str:
        return f"trace {self.trace_id!r}"

    def adverse(self) -> list[tuple[str, tuple[dict, ...]]]:
        """(label, evidence) of each adverse outcome, in report order."""
        out = []
        if self.domination.status == "finding":
            out.append(("domination", self.domination.evidence))
        for index, _, findings, paternalism in self.steps:
            for kind, evidence in _failure_outcomes(paternalism, findings):
                out.append((f"step {index} {kind}", evidence))
        return out

    def to_dict(self) -> dict:
        return {
            "trace": self.trace_id,
            "domination": _outcome_dict(self.domination),
            "steps": [
                {
                    "step": index,
                    "interaction": rec_id,
                    "findings": [_finding_dict(f) for f in findings],
                    "paternalism": {
                        "status": paternalism.status,
                        "failed_clauses": list(paternalism.failed_clauses),
                    },
                }
                for index, rec_id, findings, paternalism in self.steps
            ],
        }


def _canonical_value(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _canonical_value(v) for k, v in sorted(value.items())}
    return value


def _canonical_evidence(evidence: Sequence[dict]) -> list[dict]:
    items = [_canonical_value(dict(item)) for item in evidence]
    return sorted(items, key=lambda item: json.dumps(item, sort_keys=True))


def _outcome_dict(result) -> dict:
    return {"status": result.status, "evidence": _canonical_evidence(result.evidence)}


def _finding_dict(f: Finding) -> dict:
    return {"kind": f.kind, "severity": f.severity, "evidence": _canonical_evidence(f.evidence)}


def _check_evidence(verdict):
    """Every adverse outcome must carry at least one evidence item."""
    for label, evidence in verdict.adverse():
        if not evidence:
            raise InternalInvariantError(
                f"{label} outcome produced no evidence for {verdict.subject}"
            )
    return verdict


def judge(
    before: Scenario,
    after: Scenario,
    rec: InteractionRecord,
    *,
    require_change: bool = True,
) -> Verdict:
    """Run every judgment over one interaction and assemble the verdict.

    ``require_change`` mirrors the CLI's --strict-formula flag (inverted):
    pass False to evaluate the raw improvement formulas without the
    set-change guard.
    """
    findings, paternalism = detect_failures(before, after, rec)

    verdict = Verdict(
        interaction_id=rec.id,
        condition1=condition1(before, after),
        condition2=condition2(before, after),
        beneficence=classify_beneficence(
            before, after, require_change=require_change
        ),
        assistance=AssistanceFlags(
            real_freedom=assistance_real_freedom(
                before, after, require_change=require_change
            ),
            life_plans=assistance_life_plans(before, after),
        ),
        paternalism=paternalism,
        findings=tuple(findings),
    )
    return _check_evidence(verdict)


def detect_trace(
    base: Scenario, records: Mapping[str, InteractionRecord], trace: Trace
) -> TraceVerdict:
    """Chain a trace from ``base``, judge domination over it, and run the
    per-interaction failure detectors on each step's before/after pair."""
    steps = materialize_trace(base, records, trace)
    domination = detect_domination(steps)
    rows = []
    for step in steps:
        findings, paternalism = detect_failures(step.before, step.after, step.record)
        rows.append((step.index, step.record.id, tuple(findings), paternalism))
    return _check_evidence(TraceVerdict(trace.id, domination, tuple(rows)))
