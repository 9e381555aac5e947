"""Delta application and trace materialization."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
from capkit.errors import DeltaError, TraceError
from capkit.judgments.records import (
    InteractionDeltas,
    InteractionRecord,
    Trace,
    TraceStep,
    apply_interaction,
    first_trace_steps,
    materialize_trace,
)
from capkit.model.freedom import (
    access_profile,
    compute_freedom,
    compute_real_freedom,
    maximal_plans,
    maximal_real_freedom,
    maximal_transient,
)
from capkit.model.types import (
    Dimension,
    DimensionSchema,
    FunctioningVector,
    Guard,
    ResourceVector,
    Scenario,
    ThresholdVector,
    UtilizationEntry,
    ValuationMap,
)
from capkit.scenario_io import parse_document

F = Fraction

FIXTURES = Path(__file__).parent / "fixtures"


def _base_scenario() -> Scenario:
    functionings = (
        FunctioningVector("b_walk", (F(1), F(0))),
        FunctioningVector("b_ride", (F(0), F(1))),
        FunctioningVector("b_rest", (F(1), F(1))),
    )
    return Scenario(
        agent_id="agent",
        schemas={
            "B": DimensionSchema("B", (Dimension("moving"), Dimension("resting"))),
            "E": DimensionSchema("E", (Dimension("mobility"),)),
            "P": DimensionSchema("P", (Dimension("ease"),)),
        },
        resource_schema=(Dimension("gear"),),
        resources=(
            ResourceVector("x_shoes", (F(1),)),
            ResourceVector("x_bike", (F(2),)),
        ),
        characteristics={"fitness": F(1)},
        social={"paths": F(1)},
        functionings=functionings,
        utilization=(
            UtilizationEntry("f_walk", "x_shoes", (), "b_walk"),
            UtilizationEntry(
                "f_ride", "x_bike", (Guard("characteristics", "fitness", F(1)),), "b_ride"
            ),
        ),
        maps={
            "v": ValuationMap(
                "v",
                "table",
                entries={"b_walk": (F(1),), "b_ride": (F(2),), "b_rest": (F(0),)},
            ),
            "r": ValuationMap(
                "r",
                "table",
                entries={"b_walk": (F(1),), "b_ride": (F(1),), "b_rest": (F(1),)},
            ),
        },
        theta=ThresholdVector((F(1),)),
    )


def _record(deltas: InteractionDeltas, rec_id: str = "i_test") -> InteractionRecord:
    return InteractionRecord(
        id=rec_id,
        actor_id="other",
        target="agent",
        deltas=deltas,
        intent="unknown",
        mechanisms=("offer",),
        actor_has_right=True,
        communication_feasible=True,
        proportionality_ok=True,
    )


class TestApplyInteraction:
    def test_empty_delta_is_identity(self):
        base = _base_scenario()
        after = apply_interaction(base, _record(InteractionDeltas()))
        assert after == base

    def test_add_resource_and_pattern(self):
        base = _base_scenario()
        deltas = InteractionDeltas(
            resources_added=(ResourceVector("x_bus_pass", (F(1),)),),
            utilization_added=(
                UtilizationEntry("f_rest", "x_bus_pass", (), "b_rest"),
            ),
        )
        after = apply_interaction(base, _record(deltas))
        assert {fv.id for fv in compute_freedom(after)} == {
            "b_walk",
            "b_ride",
            "b_rest",
        }

    def test_remove_resource_disables_dependent_patterns(self):
        base = _base_scenario()
        deltas = InteractionDeltas(resources_removed=("x_bike",))
        after = apply_interaction(base, _record(deltas))
        assert [u.pattern_id for u in after.utilization] == ["f_walk"]
        assert [fv.id for fv in compute_freedom(after)] == ["b_walk"]

    def test_remove_pattern(self):
        base = _base_scenario()
        after = apply_interaction(
            base, _record(InteractionDeltas(utilization_removed=("f_walk",)))
        )
        assert [u.pattern_id for u in after.utilization] == ["f_ride"]

    def test_context_offsets(self):
        base = _base_scenario()
        deltas = InteractionDeltas(
            characteristics_delta={"fitness": F(-1)},
            social_delta={"paths": F(1, 2)},
        )
        after = apply_interaction(base, _record(deltas))
        assert after.characteristics["fitness"] == F(0)
        assert after.social["paths"] == F(3, 2)
        # the lowered characteristic now fails the riding guard
        assert [fv.id for fv in compute_freedom(after)] == ["b_walk"]

    def test_removal_applies_before_addition(self):
        # Swapping out a resource under the same id is a removal followed by
        # an addition, in that order.  A kept pattern survives when its
        # resource is present after all of the resource changes, so f_ride
        # stays, live as before.
        base = _base_scenario()
        compute_freedom(base)
        deltas = InteractionDeltas(
            resources_removed=("x_bike",),
            resources_added=(ResourceVector("x_bike", (F(3),)),),
        )
        after = apply_interaction(base, _record(deltas))
        assert [r for r in after.resources if r.id == "x_bike"] == [
            ResourceVector("x_bike", (F(3),))
        ]
        assert after.utilization == base.utilization
        assert [fv.id for fv in compute_freedom(after)] == ["b_ride", "b_walk"]
        assert [fv.id for fv in oracle.freedom(after)] == ["b_walk", "b_ride"]

    def test_pattern_swap_same_id(self):
        base = _base_scenario()
        deltas = InteractionDeltas(
            utilization_removed=("f_walk",),
            utilization_added=(
                UtilizationEntry("f_walk", "x_shoes", (), "b_rest"),
            ),
        )
        after = apply_interaction(base, _record(deltas))
        assert {u.output for u in after.utilization} == {"b_rest", "b_ride"}

    def test_identity_of_preserved_parts(self):
        base = _base_scenario()
        deltas = InteractionDeltas(resources_removed=("x_bike",))
        after = apply_interaction(base, _record(deltas))
        assert after.functionings == base.functionings
        assert after.maps == base.maps
        assert after.theta == base.theta
        assert after.schemas == base.schemas

    def test_after_scenario_does_not_inherit_derived_sets(self):
        # The after-scenario starts with its own derived-set cache, and must
        # give its own Q, Q*, three frontiers and access profile.
        rest = UtilizationEntry(
            "f_rest", "x_bike", (Guard("characteristics", "fitness", F(2)),), "b_rest"
        )
        seed = _base_scenario()
        base = replace(
            seed,
            utilization=seed.utilization + (rest,),
            maps={
                "v": ValuationMap(
                    "v", "table", entries={"b_walk": (F(1),), "b_ride": (F(2),), "b_rest": (F(3),)}
                ),
                "r": ValuationMap(
                    "r", "table", entries={"b_walk": (F(2),), "b_ride": (F(0),), "b_rest": (F(1),)}
                ),
            },
        )
        derived = (
            compute_freedom,
            compute_real_freedom,
            maximal_plans,
            access_profile,
            maximal_transient,
            maximal_real_freedom,
        )
        before = [fn(base) for fn in derived]
        deltas = InteractionDeltas(
            resources_removed=("x_shoes",), characteristics_delta={"fitness": F(1)}
        )
        after = apply_interaction(base, _record(deltas))
        q, q_star, m, profile, m_u, m_r = (fn(after) for fn in derived)

        def ids(vectors):
            return sorted(fv.id for fv in vectors)

        assert [fn(base) for fn in derived] == before
        assert ids(q) == ids(oracle.freedom(after)) == ["b_rest", "b_ride"]
        assert ids(q_star) == ids(oracle.real_freedom(after)) == ["b_rest"]
        assert ids(m) == ids(oracle.naive_maximal_set(oracle.freedom(after), after.v)) == ["b_rest"]
        assert ids(before[2]) == ["b_ride"]
        assert [e.max_value for e in before[3].entries] == [F(2)]
        assert [e.max_value for e in profile.entries] == [F(1)]
        # u is undeclared, so M(Q) under u is M(Q) under v
        assert ids(m_u) == ids(oracle.naive_maximal_set(oracle.freedom(after), after.u)) == ["b_rest"]
        assert ids(m_r) == ids(oracle.naive_maximal_set(oracle.real_freedom(after), after.r)) == ["b_rest"]
        assert ids(before[4]) == ["b_ride"]
        assert ids(before[5]) == ["b_walk"]

    def test_survivor_order_is_kept(self):
        base = replace(
            _base_scenario(),
            resources=tuple(
                ResourceVector(rid, (F(1),)) for rid in ("x_d", "x_a", "x_c", "x_b")
            ),
            utilization=tuple(
                UtilizationEntry(pid, rid, (), "b_walk")
                for pid, rid in (
                    ("f_4", "x_c"),
                    ("f_1", "x_d"),
                    ("f_3", "x_a"),
                    ("f_2", "x_b"),
                    ("f_0", "x_a"),
                )
            ),
        )
        deltas = InteractionDeltas(
            resources_removed=("x_c", "x_d"),
            resources_added=(ResourceVector("x_0", (F(1),)),),
            utilization_removed=("f_0",),
            utilization_added=(UtilizationEntry("f_9", "x_0", (), "b_ride"),),
        )
        after = apply_interaction(base, _record(deltas))
        assert [res.id for res in after.resources] == ["x_a", "x_b", "x_0"]
        assert [u.pattern_id for u in after.utilization] == ["f_3", "f_2", "f_9"]

    def test_remove_pattern_whose_resource_is_removed(self):
        base = _base_scenario()
        deltas = InteractionDeltas(
            resources_removed=("x_bike",), utilization_removed=("f_ride",)
        )
        after = apply_interaction(base, _record(deltas))
        assert [res.id for res in after.resources] == ["x_shoes"]
        assert [u.pattern_id for u in after.utilization] == ["f_walk"]

    def test_surveillance_after_state(self):
        doc, _ = parse_document((FIXTURES / "surveillance.scn").read_text())
        after = apply_interaction(doc.scenario, doc.interactions[0])
        assert [u.pattern_id for u in after.utilization] == ["f_live_monitored"]
        assert [fv.id for fv in compute_freedom(after)] == ["b_monitored_home"]


class TestDeltaErrors:
    def test_remove_unknown_resource(self):
        with pytest.raises(DeltaError, match="unknown resource 'x_nope'"):
            apply_interaction(
                _base_scenario(),
                _record(InteractionDeltas(resources_removed=("x_nope",))),
            )

    def test_duplicate_removal_rejected(self):
        # The parser rejects a repeated id; a delta built through the API
        # fails at apply time, as its first listing already removed the id.
        for deltas, message in (
            (InteractionDeltas(resources_removed=("x_shoes", "x_shoes")),
             "removes unknown resource 'x_shoes'"),
            (InteractionDeltas(utilization_removed=("f_walk", "f_walk")),
             "removes unknown utilization pattern 'f_walk'"),
        ):
            with pytest.raises(DeltaError, match=message):
                apply_interaction(_base_scenario(), _record(deltas))

    def test_add_duplicate_resource(self):
        deltas = InteractionDeltas(
            resources_added=(ResourceVector("x_shoes", (F(1),)),)
        )
        with pytest.raises(DeltaError, match="already exists"):
            apply_interaction(_base_scenario(), _record(deltas))

    def test_add_resource_wrong_arity(self):
        deltas = InteractionDeltas(
            resources_added=(ResourceVector("x_wide", (F(1), F(2))),)
        )
        with pytest.raises(DeltaError, match="components"):
            apply_interaction(_base_scenario(), _record(deltas))

    def test_remove_unknown_pattern(self):
        with pytest.raises(DeltaError, match="unknown utilization pattern"):
            apply_interaction(
                _base_scenario(),
                _record(InteractionDeltas(utilization_removed=("f_nope",))),
            )

    def test_add_duplicate_pattern(self):
        deltas = InteractionDeltas(
            utilization_added=(UtilizationEntry("f_walk", "x_shoes", (), "b_rest"),)
        )
        with pytest.raises(DeltaError, match="already exists"):
            apply_interaction(_base_scenario(), _record(deltas))

    def test_add_pattern_over_unknown_resource(self):
        deltas = InteractionDeltas(
            utilization_added=(UtilizationEntry("f_new", "x_nope", (), "b_rest"),)
        )
        with pytest.raises(DeltaError, match="unknown resource"):
            apply_interaction(_base_scenario(), _record(deltas))

    def test_add_pattern_with_unknown_output(self):
        deltas = InteractionDeltas(
            utilization_added=(UtilizationEntry("f_new", "x_shoes", (), "b_nope"),)
        )
        with pytest.raises(DeltaError, match="unknown output functioning"):
            apply_interaction(_base_scenario(), _record(deltas))

    def test_add_pattern_guard_on_unknown_component(self):
        deltas = InteractionDeltas(
            utilization_added=(
                UtilizationEntry(
                    "f_new",
                    "x_shoes",
                    (Guard("social", "nope", F(1)),),
                    "b_rest",
                ),
            )
        )
        with pytest.raises(DeltaError, match="unknown social component"):
            apply_interaction(_base_scenario(), _record(deltas))

    def test_shift_unknown_characteristic(self):
        deltas = InteractionDeltas(characteristics_delta={"nope": F(1)})
        with pytest.raises(DeltaError, match="unknown characteristic"):
            apply_interaction(_base_scenario(), _record(deltas))

    def test_shift_unknown_social_component(self):
        deltas = InteractionDeltas(social_delta={"nope": F(1)})
        with pytest.raises(DeltaError, match="unknown social component"):
            apply_interaction(_base_scenario(), _record(deltas))

    def test_error_names_the_interaction(self):
        with pytest.raises(DeltaError, match="'i_culprit'"):
            apply_interaction(
                _base_scenario(),
                _record(
                    InteractionDeltas(resources_removed=("x_nope",)), "i_culprit"
                ),
            )


class TestTraceMaterialization:
    def test_chains_before_and_after(self):
        doc, _ = parse_document((FIXTURES / "domination.trc").read_text())
        steps = materialize_trace(
            doc.scenario, doc.records_by_id(), doc.traces[0]
        )
        assert len(steps) == 2
        assert steps[0].before == doc.scenario
        assert steps[1].before == steps[0].after
        assert steps[0].after.social["feed_exposure"] == F(1)
        assert steps[1].after.social["feed_exposure"] == F(2)
        assert steps[0].target_choice.id == "b_rally"
        assert steps[1].actor_desired.id == "b_series_binge"

    def test_empty_trace_rejected(self):
        doc, _ = parse_document((FIXTURES / "domination.trc").read_text())
        with pytest.raises(TraceError, match="no steps"):
            materialize_trace(
                doc.scenario, doc.records_by_id(), Trace("t_empty", ())
            )

    def test_unknown_interaction_rejected(self):
        doc, _ = parse_document((FIXTURES / "domination.trc").read_text())
        trace = Trace(
            "t_bad",
            (TraceStep("i_missing", "b_rally", "b_rally"),),
        )
        with pytest.raises(TraceError, match="unknown interaction 'i_missing'"):
            materialize_trace(doc.scenario, doc.records_by_id(), trace)

    def test_unrealizable_choice_rejected(self):
        base = _base_scenario()
        rec = _record(InteractionDeltas())
        trace = Trace(
            "t_bad",
            (TraceStep("i_test", "b_rest", "b_rest"),),  # b_rest has no pattern
        )
        with pytest.raises(TraceError, match="not realizable"):
            materialize_trace(base, {rec.id: rec}, trace)

    def test_undeclared_choice_rejected(self):
        base = _base_scenario()
        rec = _record(InteractionDeltas())
        trace = Trace("t_bad", (TraceStep("i_test", "b_ghost", "b_walk"),))
        with pytest.raises(TraceError, match="not in the functioning catalog"):
            materialize_trace(base, {rec.id: rec}, trace)

    def test_chain_mismatch_reports_step(self):
        base = _base_scenario()
        rec = _record(InteractionDeltas(resources_removed=("x_bike",)), "i_take")
        trace = Trace(
            "t_twice",
            (
                TraceStep("i_take", "b_walk", "b_walk"),
                TraceStep("i_take", "b_walk", "b_walk"),
            ),
        )
        with pytest.raises(TraceError, match="does not chain at step 1"):
            materialize_trace(base, {rec.id: rec}, trace)

    def test_first_trace_steps_chains_only_as_far_as_asked(self):
        base = _base_scenario()
        take = _record(InteractionDeltas(resources_removed=("x_bike",)), "i_take")
        after = _record(InteractionDeltas(), "i_after")
        trace = Trace(
            "t_twice",
            (
                TraceStep("i_take", "b_walk", "b_walk"),
                TraceStep("i_take", "b_walk", "b_walk"),
                TraceStep("i_after", "b_walk", "b_walk"),
            ),
        )
        step_of = first_trace_steps(base, {"i_take": take, "i_after": after}, [trace])
        assert step_of("i_take").before == base
        assert step_of("i_ghost") is None
        for _ in range(2):  # a trace that breaks raises on every ask
            with pytest.raises(TraceError, match="does not chain at step 1"):
                step_of("i_after")

    def test_choice_realizable_after_step_change(self):
        # The choice is judged against the post-step scenario, so an option
        # enabled by the step itself is fine.
        base = _base_scenario()
        rec = _record(
            InteractionDeltas(
                utilization_added=(
                    UtilizationEntry("f_rest", "x_shoes", (), "b_rest"),
                )
            ),
            "i_enable",
        )
        trace = Trace("t_ok", (TraceStep("i_enable", "b_rest", "b_rest"),))
        steps = materialize_trace(base, {rec.id: rec}, trace)
        assert steps[0].target_choice.id == "b_rest"

    def test_record_replace_keeps_frozen_semantics(self):
        rec = _record(InteractionDeltas())
        flipped = replace(rec, intent="benefit_target")
        assert flipped.intent == "benefit_target"
        assert rec.intent == "unknown"
