"""Paternalism assessment and the interference failure-mode detectors.

Each detector evaluates only what the record declares plus what the finite
scenarios entail; none of them guesses at undeclared mental states.  A
detector that would need a declared counterfactual (a threat world, a
believed world) and does not find one either stays silent or, when the
declared mechanism makes the omission incoherent, raises
:class:`IncompleteRecordError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import IncompleteRecordError
from ..model.freedom import (
    access_profile,
    compute_freedom,
    compute_real_freedom,
    maximal_plans,
    maximal_transient,
)
from ..model.frontier import maximal_of_distinct, meeting
from ..model.types import FunctioningVector, Scenario, value_set
from .improvement import unmatched
from .records import InteractionRecord, MaterializedStep

THREAT_MECHANISMS = frozenset({"threat", "physical_force"})
DECEPTION_MECHANISMS = frozenset({"information_filtering", "misrepresentation"})
EXPLOITATIVE_INTENTS = frozenset({"benefit_actor", "benefit_third_party"})


@dataclass(frozen=True)
class Finding:
    """One detected failure mode, with its evidence trail."""

    kind: str
    severity: Optional[str]
    evidence: tuple[dict, ...]


@dataclass(frozen=True)
class PaternalismResult:
    """Outcome of the substituted-judgment assessment.

    status: "not_paternalistic", "justified", or "unjustified".
    clauses: the four tested clauses (a-d) with their truth values;
    failed_clauses: which of them blocked justification.
    """

    status: str
    clauses: dict
    failed_clauses: tuple[str, ...]
    evidence: tuple[dict, ...]


def _ids(vectors: Sequence[FunctioningVector]) -> list[str]:
    return sorted(fv.id for fv in vectors)


def paternalism_check(
    before: Scenario, after: Scenario, rec: InteractionRecord
) -> PaternalismResult:
    """Assess an interference done to the target for the target's own good.

    The check engages only when the record declares benefit_target intent
    and the interaction either restricts freedom (Q' ⊊ Q as value sets) or
    names a promoted outcome.  Justification requires all four clauses:

    a. the promoted outcome is one the target would maximally choose under
       their TRUE considered valuation;
    b. the target is relevantly ignorant: a believed scenario is declared
       and its maximal choice set differs from the true one;
    c. communication beforehand was not feasible;
    d. the declared interference is proportionate.
    """
    if rec.intent != "benefit_target":
        return PaternalismResult(
            "not_paternalistic",
            {},
            (),
            ({"kind": "intent", "intent": rec.intent},),
        )
    q_before = compute_freedom(before)
    restricted = value_set(compute_freedom(after)) < value_set(q_before)
    if not restricted and rec.promoted_outcome is None:
        return PaternalismResult(
            "not_paternalistic",
            {},
            (),
            (
                {
                    "kind": "no_interference_signature",
                    "detail": "freedom not restricted and no promoted outcome declared",
                },
            ),
        )

    m_true = maximal_plans(before)
    m_true_values = value_set(m_true)
    evidence = []

    if rec.promoted_outcome is not None:
        promoted = before.functioning(rec.promoted_outcome)
        clause_a = promoted.value_key in m_true_values
        evidence.append(
            {
                "kind": "promoted_outcome",
                "functioning": promoted.id,
                "maximal_under_true_values": clause_a,
                "true_maximal_set": _ids(m_true),
            }
        )
        if rec.actor_estimate_of_target_values is not None:
            m_est = maximal_of_distinct(q_before, rec.actor_estimate_of_target_values)
            evidence.append(
                {
                    "kind": "actor_estimate",
                    "promoted_maximal_under_estimate": promoted.value_key
                    in value_set(m_est),
                }
            )
    else:
        clause_a = False
        evidence.append(
            {
                "kind": "promoted_outcome",
                "detail": "no promoted outcome declared for a restricting "
                "intervention",
                "maximal_under_true_values": False,
            }
        )

    if rec.believed_scenario is not None:
        m_believed = maximal_plans(rec.believed_scenario)
        clause_b = value_set(m_believed) != m_true_values
        evidence.append(
            {
                "kind": "relevant_ignorance",
                "believed_maximal_set": _ids(m_believed),
                "true_maximal_set": _ids(m_true),
                "diverges": clause_b,
            }
        )
    else:
        clause_b = False
        evidence.append(
            {"kind": "relevant_ignorance", "detail": "no believed scenario declared", "diverges": False}
        )

    clause_c = not rec.communication_feasible
    clause_d = rec.proportionality_ok
    evidence.append({"kind": "communication", "feasible": rec.communication_feasible})
    evidence.append({"kind": "proportionality", "ok": rec.proportionality_ok})

    clauses = {"a": clause_a, "b": clause_b, "c": clause_c, "d": clause_d}
    failed = tuple(sorted(k for k, ok in clauses.items() if not ok))
    status = "justified" if not failed else "unjustified"
    return PaternalismResult(status, clauses, failed, tuple(evidence))


# ---------------------------------------------------------------------------
# Coercion
# ---------------------------------------------------------------------------


def detect_coercion(
    before: Scenario, after: Scenario, rec: InteractionRecord
) -> Optional[Finding]:
    """Threatened or forced worsening without a right to impose it.

    Fires when the record declares a threat or physical force, the actor has
    no right to the imposition, a threat scenario is declared, and carrying
    the threat out would leave some current freedom with no weakly-as-good
    counterpart.  Severity is serious when the worsening shows up in the
    considered valuation v or drops an entitlement dimension below its
    threshold; a worsening visible only in the transient valuation u is
    minor.
    """
    if "threat" in rec.mechanisms and rec.threat_scenario is None:
        raise IncompleteRecordError(
            f"interaction {rec.id!r} declares a threat mechanism but no "
            "threat_scenario to evaluate it against"
        )
    if not THREAT_MECHANISMS.intersection(rec.mechanisms):
        return None
    if rec.actor_has_right or rec.threat_scenario is None:
        return None
    threat = rec.threat_scenario

    # Freedoms with no weakly-as-good counterpart in the threatened world,
    # searched over its frontier under the same valuation.
    q_before = compute_freedom(before)
    v_witnesses = unmatched(q_before, maximal_plans(threat), before.v, threat.v)

    profile_before = access_profile(before)
    profile_threat = access_profile(threat)
    dropped_dims = [
        eb.dimension
        for eb, et in zip(profile_before.entries, profile_threat.entries)
        if eb.satisfied and not et.satisfied
    ]
    joint_drop = bool(compute_real_freedom(before)) and not bool(
        compute_real_freedom(threat)
    )

    u_witnesses = unmatched(q_before, maximal_transient(threat), before.u, threat.u)

    if not v_witnesses and not dropped_dims and not joint_drop and not u_witnesses:
        return None

    serious = bool(v_witnesses or dropped_dims or joint_drop)
    evidence = []
    for b in v_witnesses:
        evidence.append(
            {
                "kind": "threatened_worsening",
                "valuation": "v",
                "functioning": b.id,
                "image": tuple(before.v.apply(b)),
            }
        )
    for dim in dropped_dims:
        evidence.append(
            {"kind": "threshold_dimension_dropped", "dimension": dim}
        )
    if joint_drop and not dropped_dims:
        evidence.append(
            {
                "kind": "real_freedom_emptied",
                "detail": "threat leaves no option satisfying all thresholds",
            }
        )
    if not serious:
        for b in u_witnesses:
            evidence.append(
                {
                    "kind": "threatened_worsening",
                    "valuation": "u",
                    "functioning": b.id,
                    "image": tuple(before.u.apply(b)),
                }
            )
    return Finding("coercion", "serious" if serious else "minor", tuple(evidence))


# ---------------------------------------------------------------------------
# Deception
# ---------------------------------------------------------------------------


def detect_deception(
    before: Scenario, after: Scenario, rec: InteractionRecord
) -> Optional[Finding]:
    """Choice distortion through filtered or misrepresented information.

    Fires when an information-shaping mechanism is declared, a believed
    scenario is declared, and the believed maximal choices share nothing
    with the true maximal choices of the post-interaction situation.
    Severity is serious when some believed-best option is not even present
    in the true world, cannot be weakly matched there, or realizes below an
    entitlement threshold; otherwise the distortion is minor (a genuinely
    available but suboptimal pick).
    """
    declared = DECEPTION_MECHANISMS.intersection(rec.mechanisms)
    if declared and rec.believed_scenario is None:
        raise IncompleteRecordError(
            f"interaction {rec.id!r} declares {sorted(declared)} but no "
            "believed_scenario to compare against"
        )
    if not declared or rec.believed_scenario is None:
        return None
    believed = rec.believed_scenario

    m_believed = maximal_plans(believed)
    q_true = compute_freedom(after)
    m_true = maximal_plans(after)
    if not m_believed and not m_true:
        return None
    if value_set(m_believed) & value_set(m_true):
        return None

    true_by_value = {fv.value_key: fv for fv in after.functionings}
    q_true_values = value_set(q_true)
    present = [
        true_by_value[b.value_key] for b in m_believed if b.value_key in true_by_value
    ]
    unmatched_values = value_set(unmatched(present, m_true, after.v, after.v))
    in_q = [fv for fv in present if fv.value_key in q_true_values]
    below_theta = value_set(in_q) - value_set(meeting(in_q, after.r, after.theta.values))
    serious_items = []
    for bhat in m_believed:
        counterpart = true_by_value.get(bhat.value_key)
        if counterpart is None:
            serious_items.append(
                {
                    "kind": "fabricated_option",
                    "functioning": bhat.id,
                    "detail": "believed-best option does not exist in the true world",
                }
            )
            continue
        if counterpart.value_key in unmatched_values:
            serious_items.append(
                {
                    "kind": "unmatched_believed_choice",
                    "functioning": counterpart.id,
                    "detail": "no realizable option is weakly as good as the "
                    "believed-best choice",
                }
            )
        elif counterpart.value_key in below_theta:
            serious_items.append(
                {
                    "kind": "choice_below_threshold",
                    "functioning": counterpart.id,
                }
            )
    evidence = [
        {
            "kind": "maximal_choice_disjunction",
            "believed_maximal_set": _ids(m_believed),
            "true_maximal_set": _ids(m_true),
        }
    ]
    evidence.extend(serious_items)
    severity = "serious" if serious_items else "minor"
    return Finding("deception", severity, tuple(evidence))


# ---------------------------------------------------------------------------
# Exploitation
# ---------------------------------------------------------------------------


def detect_exploitation(
    before: Scenario,
    after: Scenario,
    rec: InteractionRecord,
    coercion: Optional[Finding] = None,
    deception: Optional[Finding] = None,
) -> Optional[Finding]:
    """Self- or third-party-serving use of coercion, deception, or unfair terms.

    Severity mirrors the worst contributing finding; an exploitation
    established only by the declared unfair_terms flag is graded minor, as
    no capability worsening was demonstrated.
    """
    if rec.intent not in EXPLOITATIVE_INTENTS:
        return None
    basis = []
    if coercion is not None:
        basis.append({"kind": "basis", "via": "coercion", "severity": coercion.severity})
    if deception is not None:
        basis.append({"kind": "basis", "via": "deception", "severity": deception.severity})
    if rec.unfair_terms:
        basis.append({"kind": "basis", "via": "unfair_terms"})
    if not basis:
        return None
    serious = any(item.get("severity") == "serious" for item in basis)
    evidence = [{"kind": "intent", "intent": rec.intent}] + basis
    return Finding("exploitation", "serious" if serious else "minor", tuple(evidence))


def detect_failures(
    before: Scenario, after: Scenario, rec: InteractionRecord
) -> tuple[list[Finding], PaternalismResult]:
    """Every per-interaction detector: the findings in presentation order
    (coercion, deception, exploitation) and the paternalism assessment."""
    coercion = detect_coercion(before, after, rec)
    deception = detect_deception(before, after, rec)
    exploitation = detect_exploitation(before, after, rec, coercion, deception)
    findings = [f for f in (coercion, deception, exploitation) if f is not None]
    return findings, paternalism_check(before, after, rec)


# ---------------------------------------------------------------------------
# Domination
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DominationResult:
    """Trace-level assessment of desire-tracking choice.

    status: "finding", "none", or "insufficient_evidence".  A single
    interaction can never establish domination -- one followed suggestion is
    not a pattern -- so one-step traces always return insufficient_evidence.
    """

    status: str
    evidence: tuple[dict, ...]


def detect_domination(steps: Sequence[MaterializedStep]) -> DominationResult:
    """Look for systematic tracking of the actor's desires across a trace.

    A finding requires at least two steps, with distinct desired outcomes,
    in which the target's choice coincided with what the actor desired, and
    at least one of those choices lying outside the target's own v-maximal
    set for that step.
    """
    if len(steps) == 1:
        return DominationResult(
            "insufficient_evidence",
            (
                {
                    "kind": "trace_too_short",
                    "detail": "a single interaction cannot establish a pattern "
                    "of desire-tracking",
                },
            ),
        )
    followed = [
        step
        for step in steps
        if step.target_choice.value_key == step.actor_desired.value_key
    ]
    distinct_desires = {step.actor_desired.value_key for step in followed}
    off_frontier = []
    for step in followed:
        m_step = maximal_plans(step.after)
        if step.target_choice.value_key not in value_set(m_step):
            off_frontier.append((step, m_step))
    if len(followed) >= 2 and len(distinct_desires) >= 2 and off_frontier:
        evidence = [
            {
                "kind": "followed_desire",
                "step": step.index,
                "interaction": step.record.id,
                "choice": step.target_choice.id,
            }
            for step in followed
        ]
        for step, m_step in off_frontier:
            evidence.append(
                {
                    "kind": "choice_outside_maximal_set",
                    "step": step.index,
                    "choice": step.target_choice.id,
                    "maximal_set": _ids(m_step),
                }
            )
        return DominationResult("finding", tuple(evidence))
    return DominationResult(
        "none",
        (
            {
                "kind": "no_pattern",
                "followed_steps": len(followed),
                "distinct_desired_outcomes": len(distinct_desires),
                "choices_outside_maximal_set": len(off_frontier),
            },
        ),
    )
