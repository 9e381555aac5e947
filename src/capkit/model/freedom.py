"""Freedom sets, real freedom, maximal plans, and the entitlement access profile.

Besides M(Q) under v (the maximal plans), each scenario caches the two
other frontiers the improvement quantifiers reduce to: M(Q) under u and
M(Q*) under r.  Q and Q* are distinct by value already, so their frontiers
are taken without a second deduplication.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .frontier import maximal_of_distinct, meeting, scaled_images
from .types import FunctioningVector, Scenario, dedupe_by_value


def _per_scenario(fn):
    """Compute fn(s) once per (frozen) scenario and cache it on the instance."""

    @functools.wraps(fn)
    def cached(s: Scenario):
        if fn not in s._derived:
            s._derived[fn] = fn(s)
        return s._derived[fn]

    return cached


@_per_scenario
def compute_freedom(s: Scenario) -> tuple[FunctioningVector, ...]:
    """The freedom set Q: every functioning some live utilization pattern yields.

    A pattern is live when its resource is present in the scenario and all of
    its lower-bound guards hold against the context vectors.  The result is
    deduplicated by vector value and ordered by representative id, so equal
    inputs always enumerate identically.
    """
    present = {res.id for res in s.resources}
    reachable = []
    for entry in s.utilization:
        if entry.resource_id not in present:
            continue
        if all(
            s.context_value(g.context, g.component) >= g.min for g in entry.guards
        ):
            reachable.append(s.functioning(entry.output))
    deduped = dedupe_by_value(reachable)
    return tuple(sorted(deduped.values(), key=lambda fv: fv.id))


@_per_scenario
def compute_real_freedom(s: Scenario) -> tuple[FunctioningVector, ...]:
    """The real freedom set Q*: members of Q whose r-image meets every threshold."""
    return tuple(meeting(compute_freedom(s), s.r, s.theta.values))


@_per_scenario
def maximal_plans(s: Scenario) -> tuple[FunctioningVector, ...]:
    """The maximal set M: members of Q whose v-image nothing in Q strictly beats."""
    return maximal_of_distinct(compute_freedom(s), s.v)


@_per_scenario
def maximal_transient(s: Scenario) -> tuple[FunctioningVector, ...]:
    """M(Q) under the transient valuation u: M itself when u is v's map."""
    if "u" not in s.maps:
        return maximal_plans(s)
    return maximal_of_distinct(compute_freedom(s), s.u)


@_per_scenario
def maximal_real_freedom(s: Scenario) -> tuple[FunctioningVector, ...]:
    """M(Q*) under r: members of Q* whose r-image nothing in Q* strictly beats."""
    return maximal_of_distinct(compute_real_freedom(s), s.r)


@dataclass(frozen=True)
class DimensionAccess:
    """Access summary for one entitlement dimension.

    max_value is None when the freedom set is empty (there is nothing to
    take a maximum over).
    """

    dimension: str
    threshold: Fraction
    max_value: Optional[Fraction]
    satisfied: bool


@dataclass(frozen=True)
class AccessProfile:
    """Per-dimension view of how close the agent's freedom comes to theta.

    ``satisfied`` on each row says some reachable functioning meets that one
    dimension's minimum; ``jointly_satisfiable`` says a single functioning
    meets all of them at once (equivalently, Q* is nonempty).  The two can
    disagree: every minimum may be reachable separately while no option
    clears them together.
    """

    entries: tuple[DimensionAccess, ...]
    jointly_satisfiable: bool

    def unsatisfied_dimensions(self) -> tuple[str, ...]:
        return tuple(e.dimension for e in self.entries if not e.satisfied)


@_per_scenario
def access_profile(s: Scenario) -> AccessProfile:
    """Summarize entitlement access over the current freedom set; each
    maximum is read back from r's int images as ``Fraction(max, D_k)``."""
    theta = s.theta.values
    (images,), scale, theta_ints = scaled_images([(compute_freedom(s), s.r)], theta)
    entries = []
    for k, name in enumerate(s.schemas["E"].names):
        top = max((img[k] for img in images), default=None)
        entries.append(
            DimensionAccess(
                dimension=name,
                threshold=theta[k],
                max_value=None if top is None else Fraction(top, scale[k]),
                satisfied=top is not None and top >= theta_ints[k],
            )
        )
    return AccessProfile(
        entries=tuple(entries), jointly_satisfiable=bool(compute_real_freedom(s))
    )
