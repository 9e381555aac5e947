"""Freedom sets, real freedom, maximal plans, and the entitlement access profile.

Besides M(Q) under v (the maximal plans), each scenario caches the two
other frontiers the improvement quantifiers reduce to: M(Q) under u and
M(Q*) under r.  Q and Q* are distinct by value already, so their frontiers
are taken without a second deduplication.

Q is read from a per-scenario table of producers: for each value, the
catalog ids that live patterns yield with it, and how many live patterns
yield each id.  A value's representative is its smallest id.

An after-world pays for its delta.  :func:`note_delta` records on it its
before-world and the patterns its delta drops and adds.  This module finds
the kept patterns whose liveness may differ from the two worlds alone:
those on a resource only the after-world holds, and those guarded on a
context component whose value differs between the worlds (the kept
patterns are scanned only when there is one).  Every other kept pattern is
live in the after-world exactly when it is live in the before-world.  So
when the before-world already holds its table, the after-world's table is
a copy of it with the touched patterns counted out against the
before-world and back in against the after-world.  Only sets the
before-world already caches are used, so deriving never recurses along a
chain; without them a table is walked from scratch.  An after-world holds
its before-world until its table is made, and only weakly after that, so
a chain keeps none of its earlier worlds alive; Q and M are derived from
the before-world's only while it lives.

When the delta changes no value or representative of Q, the after-world
shares its before-world's table and every set the before-world caches
(hash-consing at the scenario level).

M(after) is derived where the before-world caches M; M(Q) under u is
derived the same way.  Every value of Q(before) outside M(before) is
strictly dominated by a member of M(before), since Q is finite and strict
dominance is transitive.  If the delta removes no value of M(before),
those members all stay in Q(after).  So every kept value outside
M(before) stays dominated, and a value of Q(after) that strictly beats a
candidate is a candidate or is beaten by one.  M(after) is then the
frontier of the candidates: M(before) with its representatives updated,
and the values the delta added.  It is M(before) itself when nothing was
added and no maximal representative changed.  When the delta removes a
value of M(before), the frontier is taken over all of Q(after).
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Optional, Sequence

from .frontier import maximal_of_distinct, meeting, scaled_images
from .types import GUARD_CONTEXTS, FunctioningVector, Scenario, UtilizationEntry

_ID = attrgetter("id")
# The "changes" of a world not derived from a before-world.
_UNDERIVED = (lambda: None, (frozenset(),) * 3)


def _per_scenario(fn):
    """Compute fn(s) once per (frozen) scenario and cache it on the instance,
    under fn's name.

    Every such set is a function of Q and of the maps, thresholds and
    schemas a delta leaves alone, so a world whose delta changed no value
    or representative of Q takes its before-world's cached set as it is.
    """
    name = fn.__name__

    @functools.wraps(fn)
    def cached(s: Scenario):
        derived = s._derived
        if name not in derived:
            held, changes = _from_before(s, name)
            derived[name] = fn(s) if held is None or any(changes) else held
        return derived[name]

    return cached


def note_delta(
    after: Scenario,
    before: Scenario,
    dropped: Sequence[UtilizationEntry],
    added: Sequence[UtilizationEntry],
) -> None:
    """Record that ``after`` is ``before`` with one delta applied, which
    drops the patterns ``dropped`` of ``before`` and adds ``added``.
    Nothing is computed here.

    ``after`` must differ from ``before`` only in its resources, context
    vectors and patterns.
    """
    after._derived["delta"] = (before, dropped, added)


def _liveness(s: Scenario):
    """The resource ids present in s, and the predicate "this pattern is
    live in s": its resource is present and every guard holds against s's
    context vectors.  Each distinct guard is evaluated once."""
    present = {res.id for res in s.resources}
    verdicts: dict = {}

    def holds(g) -> bool:
        key = (g.context, g.component, g.min.numerator, g.min.denominator)
        ok = verdicts.get(key)
        if ok is None:
            ok = verdicts[key] = s.context_value(g.context, g.component) >= g.min
        return ok

    def live(entry: UtilizationEntry) -> bool:
        return entry.resource_id in present and (not entry.guards or all(map(holds, entry.guards)))

    return present, live


def walk_producers(s: Scenario) -> dict:
    """The producer table of s, walked from scratch over every pattern."""
    _, live = _liveness(s)
    table: dict = {}
    for entry in s.utilization:
        if live(entry):
            fv = s.functioning(entry.output)
            ids = table.get(fv.value_key)
            if ids is None:
                table[fv.value_key] = {fv.id: 1}
            else:
                ids[fv.id] = ids.get(fv.id, 0) + 1
    return table


def _derive_producers(after: Scenario, note) -> tuple[dict, tuple]:
    """after's producer table from its before-world's, and the values the
    delta removed, added, and gave a new representative."""
    before, dropped, added = note
    old = before._derived["producers"]
    (was_present, was_live), (present, is_live) = _liveness(before), _liveness(after)
    steps = [(entry, -1) for entry in dropped if was_live(entry)]
    # A kept pattern on a revived resource, or guarded on a shifted
    # component, may change liveness.
    revived = present - was_present
    shifted = {
        (context, k)
        for context in GUARD_CONTEXTS
        for k, x in getattr(after, context).items()
        if getattr(before, context).get(k) != x
    }
    if revived or shifted:
        fresh = {entry.pattern_id for entry in added}
        for entry in after.utilization:
            if entry.pattern_id not in fresh and (
                entry.resource_id in revived
                or (entry.guards and not shifted.isdisjoint(
                    [(g.context, g.component) for g in entry.guards]
                ))
            ):
                steps.append((entry, is_live(entry) - was_live(entry)))
    steps += [(entry, 1) for entry in added if is_live(entry)]
    steps = [(entry, step) for entry, step in steps if step]
    removed, appeared, moved = set(), set(), set()
    if not steps:
        return old, (removed, appeared, moved)
    table = dict(old)
    owned: set = set()  # values whose id counts this table holds a copy of
    for entry, step in steps:
        fv = after.functioning(entry.output)
        key = fv.value_key
        if key not in owned:
            owned.add(key)
            table[key] = dict(table.get(key, ()))
        ids = table[key]
        ids[fv.id] = ids.get(fv.id, 0) + step
        if not ids[fv.id]:
            del ids[fv.id]
    for key in owned:
        ids, old_ids = table[key], old.get(key)
        if not ids:
            del table[key]
            if old_ids:
                removed.add(key)
        elif not old_ids:
            appeared.add(key)
        elif min(ids) != min(old_ids):
            moved.add(key)
    return table, (removed, appeared, moved)


def _producers(s: Scenario) -> dict:
    """``value_key -> {functioning id: live patterns yielding it}``, cached
    on s; derived from the before-world's table where it holds one."""
    derived = s._derived
    table = derived.get("producers")
    if table is None:
        note = derived.pop("delta", None)
        if note is not None and "producers" in note[0]._derived:
            table, changes = _derive_producers(s, note)
            derived["changes"] = (weakref.ref(note[0]), changes)
        else:
            table = walk_producers(s)
        derived["producers"] = table
    return table


def _from_before(s: Scenario, name: str):
    """The set ``name`` as cached on the before-world s was derived from
    (None when there is none), and the values the delta removed, added, and
    gave a new representative."""
    _producers(s)  # derives s from its before-world, where it can
    ref, changes = s._derived.get("changes", _UNDERIVED)
    before = ref()
    return (None if before is None else before._derived.get(name)), changes


def _representatives(s: Scenario, keys) -> list[FunctioningVector]:
    """The representative (smallest id) of each value of Q in keys."""
    table, fv_of = _producers(s), s._fv_by_id
    return [fv_of[min(table[key])] for key in keys]


@_per_scenario
def freedom_values(s: Scenario) -> frozenset:
    """The distinct values of Q, as :attr:`FunctioningVector.value_key`."""
    return frozenset(_producers(s))


@_per_scenario
def compute_freedom(s: Scenario) -> tuple[FunctioningVector, ...]:
    """The freedom set Q: every functioning some live utilization pattern yields.

    A pattern is live when its resource is present in the scenario and all of
    its lower-bound guards hold against the context vectors.  The result is
    deduplicated by vector value, keeping the smallest id of each value, and
    ordered by id, so equal inputs always enumerate identically.
    """
    return tuple(sorted(_representatives(s, _producers(s)), key=_ID))


@_per_scenario
def compute_real_freedom(s: Scenario) -> tuple[FunctioningVector, ...]:
    """The real freedom set Q*: members of Q whose r-image meets every threshold."""
    return tuple(meeting(compute_freedom(s), s.r, s.theta.values))


def _frontier_of_q(s: Scenario, name: str, w) -> tuple[FunctioningVector, ...]:
    """M(Q) under w, derived from the before-world's cached set ``name``
    where the delta removed none of its values (see the module docstring)."""
    m_before, (removed, appeared, moved) = _from_before(s, name)
    if m_before is None or not removed.isdisjoint(fv.value_key for fv in m_before):
        return maximal_of_distinct(compute_freedom(s), w)
    if not appeared and moved.isdisjoint(fv.value_key for fv in m_before):
        return m_before
    keys = [fv.value_key for fv in m_before] + list(appeared)
    return maximal_of_distinct(_representatives(s, keys), w)


@_per_scenario
def maximal_plans(s: Scenario) -> tuple[FunctioningVector, ...]:
    """The maximal set M: members of Q whose v-image nothing in Q strictly beats."""
    return _frontier_of_q(s, "maximal_plans", s.v)


@_per_scenario
def maximal_transient(s: Scenario) -> tuple[FunctioningVector, ...]:
    """M(Q) under the transient valuation u: M itself when u is v's map."""
    if "u" not in s.maps:
        return maximal_plans(s)
    return _frontier_of_q(s, "maximal_transient", s.u)


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
