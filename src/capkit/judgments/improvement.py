"""Improvement relations and the two permissibility conditions.

The improvement relation between two finite functioning sets S and S' under
a valuation w is the two-clause quantified formula

    ∀b∈S ∃b'∈S' (w(b') ⪰ w(b))   and   ∃b∈S ∃b'∈S' (w(b') ≻ w(b))

with one addition: by default the engine also requires the compared sets to
actually differ (as value sets).  Without that guard the bare formula calls
an unchanged situation "improved" whenever it happens to contain an
internally dominated pair; the guard can be lifted via ``require_change``
(surfaced on the CLI as ``--strict-formula``) to study the raw formula.

The threshold-sensitive variants used by the assistance judgments need no
relation of their own for the ∀∃ clause: a ⪰ b implies sat(a) ⊇ sat(b), so
the weak threshold preference is Pareto dominance.  Only the strict ∃∃
clause changes, to a ≻ b or sat(a) ⊋ sat(b).

Every quantifier is evaluated over Pareto frontiers, each taken under the
valuation of its own side: M(S) under w and M(S') under the after-valuation.
This is exact.  In a finite set every element is weakly dominated by some
maximal one, and ⪰ is transitive, so:

* an element of S' that weakly dominates b can be replaced by a maximal
  a* ⪰ it, so the ∀∃ clause holds on S × S' iff it holds on S × M(S'),
  and likewise S may shrink to M(S): any b ∈ S lies under a maximal
  element, which is matched;
* the strict ∃∃ clause holds on S × S' iff it holds on S × M(S'):
  a* ⪰ b' ≻ b gives a* ≻ b, and sat(a*) ⊇ sat(b') ⊋ sat(b) keeps the
  strict threshold preference.  S stays whole here, because a non-maximal
  b is the easier one to beat.

The same replacement lets every ∀∃ scan (:func:`unmatched`) search M(S')
instead of S'.  Its S side stays whole wherever the unmatched elements
themselves are reported.  The oracle keeps the raw formulas.

The clauses compare int tuples, not Fractions, through the kernels of
:mod:`~capkit.model.frontier`.  The scale is chosen once per map, not per
comparison: component k of every image of a map is multiplied by the lcm
D_k of the denominators in column k over all of that map's images, and θ
goes on it as ⌈θ_k·D_k⌉.  Since D_k > 0, ⪰, ≻, equality and the sat sets
are unchanged.  Before and after an interaction share their map objects,
hence their scale; maps on two different scales are put on one per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ..model.freedom import (
    AccessProfile,
    access_profile,
    compute_freedom,
    compute_real_freedom,
    maximal_plans,
    maximal_real_freedom,
    maximal_transient,
)
from ..model.frontier import Valuation, covered, scaled_images, skyline, strictly_beaten
from ..model.types import FunctioningVector, Scenario, ValuationMap, value_set


def unmatched(
    s_set: Sequence[FunctioningVector],
    s_prime: Sequence[FunctioningVector],
    w_before: Valuation,
    w_after: Valuation,
) -> list[FunctioningVector]:
    """Members b of S with no b' in S' such that w_after(b') ⪰ w_before(b):
    the counterexamples to the universal clause ∀b∈S ∃b'∈S'.

    Passing M(S') under w_after as ``s_prime`` gives the same list, since
    any b' ⪰ b lies under some maximal a* ⪰ b.  The engine does so.
    """
    (before, after), _, _ = scaled_images([(s_set, w_before), (s_prime, w_after)])
    return [b for b, ok in zip(s_set, covered(before, after)) if not ok]


def _clauses_hold(before, m_before, m_after, theta) -> bool:
    """The ∀∃ clause over M(S) × M(S') and the strict ∃∃ clause over
    S × M(S'), on int images (all of S, and the two frontiers) and θ on
    their scale."""
    return all(covered(m_before, m_after)) and strictly_beaten(before, m_after, theta)


def improves(
    s_set: Sequence[FunctioningVector],
    s_prime: Sequence[FunctioningVector],
    w: Valuation,
    w_after: Optional[Valuation] = None,
    *,
    theta: Optional[Sequence[Fraction]] = None,
    require_change: bool = True,
) -> bool:
    """Does S' improve on S?

    S is valued under w and S' under ``w_after`` (w when omitted); image
    components, and θ's, must be ``numbers.Rational`` (a float raises
    :class:`ValuationError`, a length mismatch :class:`SchemaError`).  The
    strict ∃∃ clause uses Pareto ≻, or the strict threshold preference when
    ``theta`` is given; the ∀∃ clause is Pareto ⪰ either way.  Each image is
    computed once, and the frontiers M(S) and M(S') are found from those
    images; the clauses are then checked on them as the module docstring
    sets out.  Empty S is never improved on: the universal clause is
    vacuous but the existential clause has nothing to witness.
    """
    if require_change and value_set(s_set) == value_set(s_prime):
        return False
    (before, after), _, theta = scaled_images(
        [(s_set, w), (s_prime, w if w_after is None else w_after)], theta
    )
    return _clauses_hold(
        before,
        [before[i] for i in skyline(before)],
        [after[i] for i in skyline(after)],
        theta,
    )


# A side of a comparison: a set, its frontier under the side's valuation,
# and that valuation.  The frontiers come from the per-scenario cache.
_Side = tuple[Sequence[FunctioningVector], Sequence[FunctioningVector], ValuationMap]


def _q_under_u(s: Scenario) -> _Side:
    return compute_freedom(s), maximal_transient(s), s.u


def _q_star_under_r(s: Scenario) -> _Side:
    return compute_real_freedom(s), maximal_real_freedom(s), s.r


def _q_under_v(s: Scenario) -> _Side:
    return compute_freedom(s), maximal_plans(s), s.v


def _m_under_v(s: Scenario) -> _Side:
    return maximal_plans(s), maximal_plans(s), s.v


def _side_improves(
    before: _Side,
    after: _Side,
    *,
    theta: Optional[Sequence[Fraction]] = None,
    require_change: bool = True,
) -> bool:
    """:func:`improves` between two scenario sides, on their cached frontiers."""
    (s_set, m_s, w), (s_prime, m_s_prime, w_after) = before, after
    if require_change and value_set(s_set) == value_set(s_prime):
        return False
    images, _, theta = scaled_images([(s_set, w), (m_s, w), (m_s_prime, w_after)], theta)
    return _clauses_hold(*images, theta)


# ---------------------------------------------------------------------------
# Condition 1: preserve access to basic entitlements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Condition1Result:
    """Outcome of the entitlement-preservation check.

    status is "pass", "violated", or "vacuous_initially_empty".  The vacuous
    status means the agent had no threshold-satisfying option to begin with;
    the check then degrades to reporting whether access was further impeded,
    dimension by dimension.
    """

    status: str
    evidence: tuple[dict, ...]

    @property
    def violated(self) -> bool:
        return self.status == "violated"


def _profile_comparison(before: AccessProfile, after: AccessProfile) -> list[dict]:
    items = []
    for eb, ea in zip(before.entries, after.entries):
        if eb.max_value is None:
            impeded = False  # nothing was accessible before, nothing to impede
        elif ea.max_value is None:
            impeded = True
        else:
            impeded = ea.max_value < eb.max_value
        items.append(
            {
                "kind": "access_comparison",
                "dimension": eb.dimension,
                "before_max": eb.max_value,
                "after_max": ea.max_value,
                "further_impeded": impeded,
            }
        )
    return items


def condition1(before: Scenario, after: Scenario) -> Condition1Result:
    """Necessary condition: the interaction must not empty real freedom.

    Binding only when the agent starts with at least one threshold-satisfying
    option.  When violated, the evidence names every entitlement dimension
    that no post-interaction option satisfies (or records that the failure is
    joint when each dimension is separately reachable).
    """
    q_star_before = compute_real_freedom(before)
    q_star_after = compute_real_freedom(after)
    profile_after = access_profile(after)
    if not q_star_before:
        evidence = [{"kind": "initially_empty", "detail": "real freedom empty before interaction"}]
        evidence.extend(_profile_comparison(access_profile(before), profile_after))
        return Condition1Result("vacuous_initially_empty", tuple(evidence))
    if q_star_after:
        witness = q_star_after[0]
        return Condition1Result(
            "pass",
            (
                {
                    "kind": "real_freedom_witness",
                    "functioning": witness.id,
                    "count": len(q_star_after),
                },
            ),
        )
    failing = profile_after.unsatisfied_dimensions()
    evidence = []
    if failing:
        for entry in profile_after.entries:
            if not entry.satisfied:
                evidence.append(
                    {
                        "kind": "threshold_dimension_emptied",
                        "dimension": entry.dimension,
                        "threshold": entry.threshold,
                        "max_after": entry.max_value,
                    }
                )
    else:
        evidence.append(
            {
                "kind": "joint_threshold_failure",
                "detail": "every dimension is separately reachable but no "
                "single option satisfies all thresholds",
            }
        )
    return Condition1Result("violated", tuple(evidence))


# ---------------------------------------------------------------------------
# Condition 2: do not strip maximal life plans without replacement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Condition2Result:
    """Outcome of the maximal-plan replacement check."""

    status: str
    evidence: tuple[dict, ...]

    @property
    def violated(self) -> bool:
        return self.status == "violated"


def condition2(before: Scenario, after: Scenario) -> Condition2Result:
    """Every v-maximal option must keep a weakly-as-good successor.

    ∀b ∈ M(Q_before, v): ∃b' ∈ Q_after with v(b') ⪰ v(b), searched over
    M(Q_after, v).
    """
    m_before = maximal_plans(before)
    missing = unmatched(m_before, maximal_plans(after), before.v, after.v)
    if missing:
        evidence = tuple(
            {
                "kind": "unreplaced_maximal_plan",
                "functioning": b.id,
                "image": tuple(before.v.apply(b)),
            }
            for b in missing
        )
        return Condition2Result("violated", evidence)
    return Condition2Result(
        "pass",
        ({"kind": "maximal_plans_replaced", "count": len(m_before)},),
    )


# ---------------------------------------------------------------------------
# Beneficence and assistance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BeneficenceFlags:
    """The three graded beneficence readings of an interaction.

    weak        -- the whole freedom set improves under the transient
                   valuation u (u falls back to v when undeclared);
    real_freedom -- the threshold-satisfying core improves under r;
    life_plan   -- the v-maximal frontier improves under v.

    ``weak_only`` labels interactions that better the agent's situation
    merely in the transient sense; reports call these out explicitly.
    """

    weak: bool
    real_freedom: bool
    life_plan: bool

    @property
    def weak_only(self) -> bool:
        return self.weak and not (self.real_freedom or self.life_plan)


def classify_beneficence(
    before: Scenario, after: Scenario, *, require_change: bool = True
) -> BeneficenceFlags:
    return BeneficenceFlags(
        weak=_side_improves(
            _q_under_u(before), _q_under_u(after), require_change=require_change
        ),
        real_freedom=_side_improves(
            _q_star_under_r(before), _q_star_under_r(after), require_change=require_change
        ),
        life_plan=_side_improves(
            _m_under_v(before), _m_under_v(after), require_change=require_change
        ),
    )


def assistance_real_freedom(
    before: Scenario, after: Scenario, *, require_change: bool = True
) -> bool:
    """Assistance through real freedom: Q* improves under the
    threshold-sensitive preference over r-images."""
    return _side_improves(
        _q_star_under_r(before),
        _q_star_under_r(after),
        theta=before.theta.values,
        require_change=require_change,
    )


def assistance_life_plans(before: Scenario, after: Scenario) -> bool:
    """Assistance through life plans: every v-maximal option keeps a weakly
    preferred successor somewhere in the new freedom set, and at least one is
    strictly bettered.

    The definition itself demands a changed freedom set (Q' ≠ Q), so this
    judgment keeps that requirement even under ``--strict-formula``.

    When the scenario declares an aspiration threshold over P-space
    (``theta_p``), the comparison is threshold-sensitive; otherwise it is
    plain Pareto.
    """
    if value_set(compute_freedom(before)) == value_set(compute_freedom(after)):
        return False
    return _side_improves(
        _m_under_v(before),
        _q_under_v(after),
        theta=None if before.theta_p is None else before.theta_p.values,
        require_change=False,  # the Q' ≠ Q requirement above already holds
    )


@dataclass(frozen=True)
class AssistanceFlags:
    real_freedom: bool
    life_plans: bool
