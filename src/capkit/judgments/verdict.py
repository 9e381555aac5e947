"""Verdict assembly: one structured judgment per interaction."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..errors import InternalInvariantError
from ..model.types import Scenario
from ..rationals import format_rational
from .failures import Finding, PaternalismResult, detect_failures
from .improvement import (
    AssistanceFlags,
    BeneficenceFlags,
    Condition1Result,
    Condition2Result,
    assistance_life_plans,
    assistance_real_freedom,
    classify_beneficence,
    condition1,
    condition2,
)
from .records import InteractionRecord


@dataclass(frozen=True)
class Verdict:
    """The full structured judgment of one interaction."""

    interaction_id: str
    condition1: Condition1Result
    condition2: Condition2Result
    beneficence: BeneficenceFlags
    assistance: AssistanceFlags
    paternalism: PaternalismResult
    findings: tuple[Finding, ...]

    @property
    def has_violation(self) -> bool:
        """True when anything a --fail-on-violation caller cares about fired."""
        return (
            self.condition1.violated
            or self.condition2.violated
            or self.paternalism.status == "unjustified"
            or bool(self.findings)
        )

    def to_dict(self) -> dict:
        return {
            "interaction": self.interaction_id,
            "condition1": {
                "status": self.condition1.status,
                "evidence": _canonical_evidence(self.condition1.evidence),
            },
            "condition2": {
                "status": self.condition2.status,
                "evidence": _canonical_evidence(self.condition2.evidence),
            },
            "beneficence": {
                "weak": self.beneficence.weak,
                "real_freedom": self.beneficence.real_freedom,
                "life_plan": self.beneficence.life_plan,
                "weak_only": self.beneficence.weak_only,
            },
            "assistance": {
                "real_freedom": self.assistance.real_freedom,
                "life_plans": self.assistance.life_plans,
            },
            "paternalism": {
                "status": self.paternalism.status,
                "clauses": dict(self.paternalism.clauses),
                "failed_clauses": list(self.paternalism.failed_clauses),
                "evidence": _canonical_evidence(self.paternalism.evidence),
            },
            "findings": [finding_dict(f) for f in self.findings],
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


def finding_dict(f: Finding) -> dict:
    return {"kind": f.kind, "severity": f.severity, "evidence": _canonical_evidence(f.evidence)}


def _check_evidence(verdict: Verdict) -> Verdict:
    """Every adverse outcome must carry at least one evidence item."""
    checks = []
    if verdict.condition1.violated:
        checks.append(("condition1", verdict.condition1.evidence))
    if verdict.condition2.violated:
        checks.append(("condition2", verdict.condition2.evidence))
    if verdict.paternalism.status == "unjustified":
        checks.append(("paternalism", verdict.paternalism.evidence))
    for finding in verdict.findings:
        checks.append((finding.kind, finding.evidence))
    for label, evidence in checks:
        if not evidence:
            raise InternalInvariantError(
                f"{label} outcome produced no evidence for interaction "
                f"{verdict.interaction_id!r}"
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
