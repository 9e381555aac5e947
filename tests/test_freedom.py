"""Freedom sets, real freedom, and the access profile."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

import genlib
from capkit.model import freedom
from capkit.model.freedom import access_profile, compute_freedom, compute_real_freedom
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


def _scenario(
    functionings,
    utilization,
    *,
    resources=None,
    characteristics=None,
    social=None,
    r_entries=None,
    theta=(1,),
):
    """A minimal scenario around explicit catalog and utilization lists."""
    n_b = len(functionings[0].values) if functionings else 1
    n_e = len(theta)
    if r_entries is None:
        r_entries = {fv.id: (F(1),) * n_e for fv in functionings}
    v_entries = {fv.id: fv.values for fv in functionings}
    return Scenario(
        agent_id="agent",
        schemas={
            "B": DimensionSchema(
                "B", tuple(Dimension(f"being_{k}") for k in range(n_b))
            ),
            "E": DimensionSchema(
                "E", tuple(Dimension(f"entitlement_{k}") for k in range(n_e))
            ),
            "P": DimensionSchema(
                "P", tuple(Dimension(f"plan_{k}") for k in range(n_b))
            ),
        },
        resource_schema=(Dimension("goods"),),
        resources=tuple(
            resources
            if resources is not None
            else (ResourceVector("x0", (F(1),)),)
        ),
        characteristics=dict(characteristics or {"skill": F(1)}),
        social=dict(social or {"support": F(1)}),
        functionings=tuple(functionings),
        utilization=tuple(utilization),
        maps={
            "v": ValuationMap("v", "table", entries=v_entries),
            "r": ValuationMap("r", "table", entries=r_entries),
        },
        theta=ThresholdVector(tuple(F(t) for t in theta)),
    )


def _fv(fv_id, *vals):
    return FunctioningVector(id=fv_id, values=tuple(F(x) for x in vals))


class TestFreedomSet:
    def test_guard_blocks_until_context_suffices(self):
        fv = _fv("b_guarded", 1)
        entry = UtilizationEntry(
            "f0", "x0", (Guard("characteristics", "skill", F(2)),), "b_guarded"
        )
        low = _scenario([fv], [entry], characteristics={"skill": F(1)})
        high = _scenario([fv], [entry], characteristics={"skill": F(2)})
        assert compute_freedom(low) == ()
        assert compute_freedom(high) == (fv,)

    def test_social_guard(self):
        fv = _fv("b_social", 1)
        entry = UtilizationEntry(
            "f0", "x0", (Guard("social", "support", F(1)),), "b_social"
        )
        s = _scenario([fv], [entry], social={"support": F(0)})
        assert compute_freedom(s) == ()

    def test_missing_resource_disables_entry(self):
        fv = _fv("b_orphaned", 1)
        entry = UtilizationEntry("f0", "x_gone", (), "b_orphaned")
        s = _scenario([fv], [entry])
        assert compute_freedom(s) == ()

    def test_dedupe_by_value_keeps_smallest_id(self):
        twin_a = _fv("b_later", 1, 2)
        twin_b = _fv("b_early", 1, 2)
        entries = [
            UtilizationEntry("f0", "x0", (), "b_later"),
            UtilizationEntry("f1", "x0", (), "b_early"),
        ]
        q = compute_freedom(_scenario([twin_a, twin_b], entries))
        assert [fv.id for fv in q] == ["b_early"]

    def test_sorted_by_id(self):
        fvs = [_fv("b_z", 0), _fv("b_a", 1), _fv("b_m", 2)]
        entries = [
            UtilizationEntry(f"f{i}", "x0", (), fv.id) for i, fv in enumerate(fvs)
        ]
        q = compute_freedom(_scenario(fvs, entries))
        assert [fv.id for fv in q] == ["b_a", "b_m", "b_z"]

    def test_multiple_entries_same_output_counted_once(self):
        fv = _fv("b_twice", 1)
        entries = [
            UtilizationEntry("f0", "x0", (), "b_twice"),
            UtilizationEntry("f1", "x0", (), "b_twice"),
        ]
        assert compute_freedom(_scenario([fv], entries)) == (fv,)

    def test_catalog_entry_without_pattern_is_not_free(self):
        listed = _fv("b_listed", 1)
        reachable = _fv("b_reachable", 2)
        entries = [UtilizationEntry("f0", "x0", (), "b_reachable")]
        q = compute_freedom(_scenario([listed, reachable], entries))
        assert [fv.id for fv in q] == ["b_reachable"]


class TestRealFreedom:
    def test_threshold_filter(self):
        above = _fv("b_above", 1)
        below = _fv("b_below", 2)
        entries = [
            UtilizationEntry("f0", "x0", (), "b_above"),
            UtilizationEntry("f1", "x0", (), "b_below"),
        ]
        s = _scenario(
            [above, below],
            entries,
            r_entries={"b_above": (F(2),), "b_below": (F(1, 2),)},
            theta=(1,),
        )
        assert [fv.id for fv in compute_real_freedom(s)] == ["b_above"]

    def test_exact_boundary_is_satisfied(self):
        fv = _fv("b_edge", 1)
        s = _scenario(
            [fv],
            [UtilizationEntry("f0", "x0", (), "b_edge")],
            r_entries={"b_edge": (F(3, 2),)},
            theta=(F(3, 2),),
        )
        assert compute_real_freedom(s) == (fv,)

    def test_grocery_counts(self):
        # Q has three distinct reachable options; two clear both thresholds.
        doc, _ = parse_document((FIXTURES / "grocery.scn").read_text())
        q = compute_freedom(doc.scenario)
        q_star = compute_real_freedom(doc.scenario)
        assert [fv.id for fv in q] == [
            "b_home_cooking",
            "b_simple_meals",
            "b_takeout",
        ]
        assert [fv.id for fv in q_star] == ["b_home_cooking", "b_simple_meals"]


class TestSharedFrontiers:
    def test_undeclared_u_shares_m(self, monkeypatch):
        # grocery.scn declares no u, so s.u is v's map and M(Q) under u is M.
        calls = []
        original = freedom.maximal_set
        monkeypatch.setattr(
            freedom, "maximal_set", lambda *args: calls.append(1) or original(*args)
        )
        doc, _ = parse_document((FIXTURES / "grocery.scn").read_text())
        s = doc.scenario
        assert "u" not in s.maps
        assert freedom.maximal_transient(s) is freedom.maximal_plans(s)
        assert len(calls) == 1


class TestAccessProfile:
    def test_single_dimension_shortfall(self):
        fv = _fv("b_only", 1)
        s = _scenario(
            [fv],
            [UtilizationEntry("f0", "x0", (), "b_only")],
            r_entries={"b_only": (F(2), F(0))},
            theta=(1, 1),
        )
        profile = access_profile(s)
        assert profile.entries[0].satisfied
        assert profile.entries[0].max_value == F(2)
        assert not profile.entries[1].satisfied
        assert profile.entries[1].max_value == F(0)
        assert not profile.jointly_satisfiable
        assert profile.unsatisfied_dimensions() == ("entitlement_1",)

    def test_separately_reachable_but_not_jointly(self):
        a = _fv("b_a", 1)
        b = _fv("b_b", 2)
        s = _scenario(
            [a, b],
            [
                UtilizationEntry("f0", "x0", (), "b_a"),
                UtilizationEntry("f1", "x0", (), "b_b"),
            ],
            r_entries={"b_a": (F(2), F(0)), "b_b": (F(0), F(2))},
            theta=(1, 1),
        )
        profile = access_profile(s)
        assert all(e.satisfied for e in profile.entries)
        assert not profile.jointly_satisfiable
        assert profile.unsatisfied_dimensions() == ()

    def test_empty_freedom_set(self):
        fv = _fv("b_unreachable", 1)
        profile = access_profile(_scenario([fv], []))
        assert all(e.max_value is None for e in profile.entries)
        assert all(not e.satisfied for e in profile.entries)
        assert not profile.jointly_satisfiable


class TestMonotonicity:
    @given(st.integers(min_value=0, max_value=10_000))
    def test_raising_context_never_shrinks_freedom(self, seed):
        rng = random.Random(seed)
        base = genlib.scenario(rng)
        raised = Scenario(
            agent_id=base.agent_id,
            schemas=base.schemas,
            resource_schema=base.resource_schema,
            resources=base.resources,
            characteristics={"skill": base.characteristics["skill"] + 1},
            social={"support": base.social["support"] + 1},
            functionings=base.functionings,
            utilization=base.utilization,
            maps=base.maps,
            theta=base.theta,
            theta_p=base.theta_p,
        )
        before = {fv.values for fv in compute_freedom(base)}
        after = {fv.values for fv in compute_freedom(raised)}
        assert before <= after

    @given(st.integers(min_value=0, max_value=10_000))
    def test_adding_resource_never_shrinks_freedom(self, seed):
        rng = random.Random(seed)
        base = genlib.scenario(rng)
        extended = Scenario(
            agent_id=base.agent_id,
            schemas=base.schemas,
            resource_schema=base.resource_schema,
            resources=base.resources + (ResourceVector("x_new", (F(1),)),),
            characteristics=base.characteristics,
            social=base.social,
            functionings=base.functionings,
            utilization=base.utilization,
            maps=base.maps,
            theta=base.theta,
            theta_p=base.theta_p,
        )
        before = {fv.values for fv in compute_freedom(base)}
        after = {fv.values for fv in compute_freedom(extended)}
        assert before <= after

    @given(st.integers(min_value=0, max_value=10_000))
    def test_real_freedom_subset_of_freedom(self, seed):
        rng = random.Random(seed)
        s = genlib.scenario(rng)
        q_values = {fv.values for fv in compute_freedom(s)}
        for fv in compute_real_freedom(s):
            assert fv.values in q_values
