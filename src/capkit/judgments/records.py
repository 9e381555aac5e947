"""Interaction records, delta application, and trace materialization."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Optional, Sequence

from ..errors import DeltaError, TraceError
from ..model.freedom import freedom_values, note_delta
from ..model.types import (
    FunctioningVector,
    ResourceVector,
    Scenario,
    UtilizationEntry,
    ValuationMap,
)


@dataclass(frozen=True)
class InteractionDeltas:
    """What an interaction changes about the target's situation.

    Deltas touch resources, conversion context, and utilization patterns
    only; the functioning catalog, the valuation maps, and the thresholds
    describe who the agent is and are preserved.
    """

    resources_added: tuple[ResourceVector, ...] = ()
    resources_removed: tuple[str, ...] = ()
    characteristics_delta: Mapping[str, Fraction] = field(default_factory=dict)
    social_delta: Mapping[str, Fraction] = field(default_factory=dict)
    utilization_added: tuple[UtilizationEntry, ...] = ()
    utilization_removed: tuple[str, ...] = ()


@dataclass(frozen=True)
class InteractionRecord:
    """One agent acting on another, with its declared normative facts.

    The boolean and enum fields (intent, mechanisms, actor_has_right,
    communication_feasible, proportionality_ok, unfair_terms) are inputs to
    judgment, not outputs of it: the engine evaluates what follows from the
    record as declared and never infers mental states.
    """

    id: str
    actor_id: str
    target: str
    deltas: InteractionDeltas
    intent: str
    mechanisms: tuple[str, ...]
    actor_has_right: bool
    communication_feasible: bool
    proportionality_ok: bool
    unfair_terms: bool = False
    promoted_outcome: Optional[str] = None
    actor_estimate_of_target_values: Optional[ValuationMap] = None
    believed_scenario: Optional[Scenario] = None
    threat_scenario: Optional[Scenario] = None


def _removal_set(ids: tuple[str, ...], present: set[str], unknown: str) -> set[str]:
    """The ids to remove, in one pass.  An id not present, or listed a
    second time (its first listing removed it), raises ``unknown`` + id."""
    removed: set[str] = set()
    for item in ids:
        if item not in present or item in removed:
            raise DeltaError(f"{unknown} {item!r}")
        removed.add(item)
    return removed


def apply_interaction(s: Scenario, rec: InteractionRecord) -> Scenario:
    """Produce the post-interaction scenario from declared deltas.

    Application order is fixed: resource removals, resource additions,
    context offsets, utilization removals, then utilization additions.
    A kept utilization entry survives when its resource is present after
    all of the resource changes: removing a resource silently disables the
    entries on it, unless the same delta adds it back.  Every other
    dangling reference is an error.  An empty delta yields a scenario equal
    to the input.  The result records the patterns the delta drops and
    adds, so its Q and M are derived from ``s``'s
    (:func:`~capkit.model.freedom.note_delta`).
    """
    d = rec.deltas

    present = {res.id for res in s.resources}
    removed = _removal_set(
        d.resources_removed, present, f"interaction {rec.id!r} removes unknown resource"
    )
    resources = [res for res in s.resources if res.id not in removed]
    surviving_ids = {res.id for res in resources}
    for res in d.resources_added:
        if res.id in surviving_ids:
            raise DeltaError(
                f"interaction {rec.id!r} adds resource {res.id!r} which already exists"
            )
        if len(res.values) != len(s.resource_schema):
            raise DeltaError(
                f"interaction {rec.id!r} adds resource {res.id!r} with "
                f"{len(res.values)} components; resource schema has "
                f"{len(s.resource_schema)}"
            )
        resources.append(res)
        surviving_ids.add(res.id)

    characteristics = dict(s.characteristics)
    for name, offset in d.characteristics_delta.items():
        if name not in characteristics:
            raise DeltaError(
                f"interaction {rec.id!r} shifts unknown characteristic {name!r}"
            )
        characteristics[name] = characteristics[name] + offset
    social = dict(s.social)
    for name, offset in d.social_delta.items():
        if name not in social:
            raise DeltaError(
                f"interaction {rec.id!r} shifts unknown social component {name!r}"
            )
        social[name] = social[name] + offset

    removed = _removal_set(
        d.utilization_removed,
        {u.pattern_id for u in s.utilization},
        f"interaction {rec.id!r} removes unknown utilization pattern",
    )
    # Entries whose resource was just removed are disabled alongside it.
    utilization = [
        u
        for u in s.utilization
        if u.pattern_id not in removed and u.resource_id in surviving_ids
    ]
    dropped = []
    if len(utilization) < len(s.utilization):
        dropped = [
            u
            for u in s.utilization
            if u.pattern_id in removed or u.resource_id not in surviving_ids
        ]
    existing_patterns = {u.pattern_id for u in utilization}
    for entry in d.utilization_added:
        if entry.pattern_id in existing_patterns:
            raise DeltaError(
                f"interaction {rec.id!r} adds utilization pattern "
                f"{entry.pattern_id!r} which already exists"
            )
        if entry.resource_id not in surviving_ids:
            raise DeltaError(
                f"interaction {rec.id!r} adds pattern {entry.pattern_id!r} over "
                f"unknown resource {entry.resource_id!r}"
            )
        if not s.has_functioning(entry.output):
            raise DeltaError(
                f"interaction {rec.id!r} adds pattern {entry.pattern_id!r} with "
                f"unknown output functioning {entry.output!r}"
            )
        for g in entry.guards:
            ctx = characteristics if g.context == "characteristics" else social
            if g.component not in ctx:
                raise DeltaError(
                    f"interaction {rec.id!r} adds pattern {entry.pattern_id!r} "
                    f"guarded on unknown {g.context} component {g.component!r}"
                )
        utilization.append(entry)
        existing_patterns.add(entry.pattern_id)

    after = replace(
        s,
        resources=tuple(resources),
        characteristics=characteristics,
        social=social,
        utilization=tuple(utilization) if dropped or d.utilization_added else s.utilization,
    )
    note_delta(after, s, dropped, d.utilization_added)
    return after


@dataclass(frozen=True)
class TraceStep:
    """One link in a trace: an interaction plus what was chosen and desired."""

    interaction: str
    target_choice: str
    actor_desired: str


@dataclass(frozen=True)
class Trace:
    """An ordered sequence of interactions on the same target."""

    id: str
    steps: tuple[TraceStep, ...]


@dataclass(frozen=True)
class MaterializedStep:
    """A trace step resolved against its chained before/after scenarios."""

    index: int
    record: InteractionRecord
    before: Scenario
    after: Scenario
    target_choice: FunctioningVector
    actor_desired: FunctioningVector


def materialize_trace(
    base: Scenario,
    records: Mapping[str, InteractionRecord],
    trace: Trace,
) -> tuple[MaterializedStep, ...]:
    """Chain a trace: each step's after-scenario is the next step's before.

    Raises TraceError when the trace is empty, references an unknown
    interaction or functioning, declares a choice outside the step's
    freedom set, or a step's deltas no longer apply to the chained scenario.
    """
    return tuple(_chain_trace(base, records, trace))


def _chain_trace(
    base: Scenario,
    records: Mapping[str, InteractionRecord],
    trace: Trace,
) -> Iterator[MaterializedStep]:
    """The steps of :func:`materialize_trace`, each chained when it is asked
    for: a step's TraceError is raised only once the steps before it are out."""
    if not trace.steps:
        raise TraceError(f"trace {trace.id!r} has no steps")
    current = base
    for index, step in enumerate(trace.steps):
        rec = records.get(step.interaction)
        if rec is None:
            raise TraceError(
                f"trace {trace.id!r} step {index} references unknown "
                f"interaction {step.interaction!r}"
            )
        try:
            after = apply_interaction(current, rec)
        except DeltaError as exc:
            raise TraceError(
                f"trace {trace.id!r} does not chain at step {index}: {exc}"
            ) from exc
        for label, fv_id in (
            ("target_choice", step.target_choice),
            ("actor_desired", step.actor_desired),
        ):
            if not after.has_functioning(fv_id):
                raise TraceError(
                    f"trace {trace.id!r} step {index} {label} {fv_id!r} is not "
                    "in the functioning catalog"
                )
        choice = after.functioning(step.target_choice)
        if choice.value_key not in freedom_values(after):
            raise TraceError(
                f"trace {trace.id!r} step {index} target_choice "
                f"{step.target_choice!r} is not realizable after the step"
            )
        yield MaterializedStep(
            index=index,
            record=rec,
            before=current,
            after=after,
            target_choice=choice,
            actor_desired=after.functioning(step.actor_desired),
        )
        current = after


def first_trace_steps(
    base: Scenario, records: Mapping[str, InteractionRecord], traces: Sequence[Trace]
) -> Callable[[str], Optional[MaterializedStep]]:
    """``step_of(rec_id)``: the first step that applies ``rec_id`` in the
    first of ``traces`` that references it, chained from ``base``; None when
    no trace does.

    Each trace is chained once, and only as far as the steps asked for, so
    asking for every record of a k-step trace applies k deltas, not k²/2.  A
    trace that does not chain up to the step raises its TraceError, and
    raises it again when asked once more.
    """
    first: dict[str, tuple[int, int]] = {}  # record id -> (trace position, step index)
    for t, trace in enumerate(traces):
        for index, step in enumerate(trace.steps):
            first.setdefault(step.interaction, (t, index))
    chained: dict[int, tuple[Iterator[MaterializedStep], list[MaterializedStep]]] = {}

    def step_of(rec_id: str) -> Optional[MaterializedStep]:
        if rec_id not in first:
            return None
        t, index = first[rec_id]
        if t not in chained:
            chained[t] = (_chain_trace(base, records, traces[t]), [])
        chain, steps = chained[t]
        try:
            while len(steps) <= index:
                steps.append(next(chain))
        except TraceError:
            del chained[t]  # the next ask chains the trace afresh
            raise
        return steps[index]

    return step_of
