"""Improvement conditions, beneficence/assistance flags, and failure modes."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import genlib
import pytest

from capkit.errors import (
    IncompleteRecordError,
    InternalInvariantError,
    SchemaError,
    ValuationError,
)
from capkit.judgments import failures
from capkit.judgments.failures import (
    detect_coercion,
    detect_deception,
    detect_domination,
    detect_exploitation,
    paternalism_check,
)
from capkit.judgments.improvement import (
    _side_improves,
    assistance_life_plans,
    assistance_real_freedom,
    classify_beneficence,
    condition1,
    condition2,
    unmatched,
)
from capkit.judgments.records import (
    InteractionDeltas,
    InteractionRecord,
    MaterializedStep,
    apply_interaction,
    materialize_trace,
)
from capkit.judgments.verdict import Verdict, judge
from capkit.model import frontier
from capkit.model.freedom import (
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
    ResourceVector,
    Scenario,
    ThresholdVector,
    UtilizationEntry,
    ValuationMap,
)
from capkit.scenario_io import parse_document

F = Fraction

FIXTURES = Path(__file__).parent / "fixtures"


def _fv(fv_id, *vals):
    return FunctioningVector(id=fv_id, values=tuple(F(x) for x in vals))


def _table(map_id, entries):
    return ValuationMap(
        map_id,
        "table",
        entries={k: tuple(F(x) for x in img) for k, img in entries.items()},
    )


def _scn(
    functionings,
    *,
    reachable=None,
    v,
    r,
    u=None,
    theta,
    theta_p=None,
    agent="agent",
):
    """A scenario where ``reachable`` ids (default: all) form the freedom set."""
    ids = [fv.id for fv in functionings]
    reachable = ids if reachable is None else reachable
    n_b = len(functionings[0].values)
    n_e = len(theta)
    n_p = len(next(iter(v.values())))
    maps = {"v": _table("v", v), "r": _table("r", r)}
    schemas = {
        "B": DimensionSchema("B", tuple(Dimension(f"being_{k}") for k in range(n_b))),
        "E": DimensionSchema(
            "E", tuple(Dimension(f"entitlement_{k}") for k in range(n_e))
        ),
        "P": DimensionSchema("P", tuple(Dimension(f"plan_{k}") for k in range(n_p))),
    }
    if u is not None:
        n_u = len(next(iter(u.values())))
        schemas["U"] = DimensionSchema(
            "U", tuple(Dimension(f"transient_{k}") for k in range(n_u))
        )
        maps["u"] = _table("u", u)
    return Scenario(
        agent_id=agent,
        schemas=schemas,
        resource_schema=(Dimension("goods"),),
        resources=(ResourceVector("x0", (F(1),)),),
        characteristics={"skill": F(1)},
        social={"support": F(1)},
        functionings=tuple(functionings),
        utilization=tuple(
            UtilizationEntry(f"f_{fv_id}", "x0", (), fv_id) for fv_id in reachable
        ),
        maps=maps,
        theta=ThresholdVector(tuple(F(t) for t in theta)),
        theta_p=None if theta_p is None else ThresholdVector(tuple(F(t) for t in theta_p)),
    )


def _record(
    rec_id="i_x",
    *,
    intent="unknown",
    mechanisms=("offer",),
    actor_has_right=True,
    communication_feasible=True,
    proportionality_ok=True,
    unfair_terms=False,
    promoted_outcome=None,
    actor_estimate=None,
    believed_scenario=None,
    threat_scenario=None,
    deltas=None,
):
    return InteractionRecord(
        id=rec_id,
        actor_id="other",
        target="agent",
        deltas=deltas or InteractionDeltas(),
        intent=intent,
        mechanisms=tuple(mechanisms),
        actor_has_right=actor_has_right,
        communication_feasible=communication_feasible,
        proportionality_ok=proportionality_ok,
        unfair_terms=unfair_terms,
        promoted_outcome=promoted_outcome,
        actor_estimate_of_target_values=actor_estimate,
        believed_scenario=believed_scenario,
        threat_scenario=threat_scenario,
    )


def _improves(s, s_prime, w, w_after=None, **kwargs):
    """Does S' improve on S, with S under w and S' under w_after (w when omitted)?"""
    after = genlib.side(s_prime, w if w_after is None else w_after)
    return _side_improves(genlib.side(s, w), after, **kwargs)


class TestImproves:
    def test_universal_clause_can_fail(self):
        s = [_fv("a", 1, 1), _fv("b", 0, 5)]
        s_prime = [_fv("c", 2, 2)]
        w = genlib.tabulate(s + s_prime)
        # (2,2) covers (1,1) but nothing covers (0,5)
        assert not _improves(s, s_prime, w)

    def test_strict_witness_required(self):
        s = [_fv("a", 1, 1)]
        same = [_fv("a2", 1, 1)]
        better = [_fv("a2", 1, 1), _fv("c", 2, 1)]
        w = genlib.tabulate(s + better)
        assert not _improves(s, same, w)
        assert _improves(s, better, w)

    def test_change_guard(self):
        # Value-identical sets containing an internally dominated pair:
        # the raw formula would call this an improvement; the guard says no.
        s = [_fv("low", 0, 0), _fv("high", 1, 1)]
        s_prime = [_fv("low2", 0, 0), _fv("high2", 1, 1)]
        w = genlib.tabulate(s + s_prime)
        assert not _improves(s, s_prime, w)
        assert _improves(s, s_prime, w, require_change=False)

    def test_empty_before_set_never_improved(self):
        s_prime = [_fv("a", 1)]
        assert not _improves([], s_prime, genlib.tabulate(s_prime))

    def test_empty_after_set_never_improves(self):
        s = [_fv("a", 1)]
        assert not _improves(s, [], genlib.tabulate(s))

    def test_accepts_valuation_map(self):
        v = _table("v", {"a": (1,), "b": (2,)})
        assert _improves([_fv("a", 0)], [_fv("b", 1)], v)

    @pytest.mark.parametrize("separate_after", [False, True])
    @pytest.mark.parametrize("theta", [None, (F(1), F(1))])
    def test_each_image_computed_at_most_once(self, theta, separate_after, monkeypatch):
        # Each map's images are put on ints once, into its cached table, and
        # no image is looked up again through ``apply``.
        builds, applied = Counter(), Counter()
        real_build, real_apply = frontier._build_table, ValuationMap.apply

        def build(w):
            builds[id(w)] += 1
            return real_build(w)

        def apply(w, fv):
            applied[fv.id] += 1
            return real_apply(w, fv)

        monkeypatch.setattr(frontier, "_build_table", build)
        monkeypatch.setattr(ValuationMap, "apply", apply)

        s = [_fv("a", 0, 0), _fv("b", 1, 0)]
        s_prime = [_fv("c", 1, 1), _fv("d", 0, 1), _fv("e", 2, 0)]
        w = genlib.tabulate(s + s_prime)
        w_after = genlib.tabulate(s + s_prime) if separate_after else None
        assert _improves(s, s_prime, w, w_after, theta=theta)
        assert unmatched(s, s_prime, w, w if w_after is None else w_after) == []
        assert list(builds.values()) == [1] * (1 + separate_after)
        assert applied == Counter()

    def test_ragged_images_raise(self):
        s = [_fv("a", 1, 1)]
        s_prime = [_fv("b", 2)]
        w = genlib.tabulate(s + s_prime)
        with pytest.raises(SchemaError, match="different lengths"):
            _improves(s, s_prime, w)
        with pytest.raises(SchemaError, match="different lengths"):
            unmatched(s, s_prime, w, w)
        # Ragged within one side as well.
        ragged = [_fv("c", 2, 2), _fv("d", 3)]
        with pytest.raises(SchemaError, match="different lengths"):
            _improves(s, ragged, genlib.tabulate(s + ragged))

    @pytest.mark.parametrize("theta", [(F(1),), (F(1), F(1), F(1))])
    def test_mis_sized_theta_raises(self, theta):
        s = [_fv("a", 0, 0)]
        s_prime = [_fv("b", 1, 1)]
        with pytest.raises(SchemaError, match="different lengths"):
            _improves(s, s_prime, genlib.tabulate(s + s_prime), theta=theta)

    def test_non_rational_image_raises_valuation_error(self):
        s = [_fv("a", 0)]
        s_prime = [_fv("b", 1)]
        w = genlib.tabulate(s + s_prime)
        floats = genlib.tabulate(s + s_prime, lambda fv: tuple(float(x) for x in fv.values))
        with pytest.raises(ValuationError, match="float, not an exact rational"):
            _improves(s, s_prime, floats)
        with pytest.raises(ValuationError, match="float, not an exact rational"):
            unmatched(s, s_prime, w, floats)
        with pytest.raises(ValuationError, match="float, not an exact rational"):
            _improves(s, s_prime, w, theta=(0.5,))


def _naive_unmatched(s_set, s_prime, img_before, img_after):
    """The ∀∃ counterexamples by a plain scan of the whole of S'."""
    return [
        b
        for b in s_set
        if not any(
            all(x >= y for x, y in zip(img_after(bp), img_before(b))) for bp in s_prime
        )
    ]


class TestFrontierReduction:
    """The engine searches M(S') where the formulas quantify over S'.

    Each case is checked against a full scan of S' written here, on seeded
    genlib pairs, table maps and linear ones.  The S side must stay whole:
    the cases include unmatched elements that are not maximal in S.
    """

    # (set, its frontier, the valuation the frontier is taken under)
    SIDES = (
        (compute_freedom, maximal_plans, "v"),
        (compute_freedom, maximal_transient, "u"),
        (compute_real_freedom, maximal_real_freedom, "r"),
    )

    @pytest.mark.parametrize("linear", [False, True])
    def test_unmatched_on_frontier_equals_full_scan(self, linear):
        reduced = non_maximal = 0
        for seed in range(300):
            rng = random.Random((47_000 if linear else 46_000) + seed)
            before = genlib.scenario(rng, max_vectors=16, linear=linear)
            after = genlib.successor(rng, before)
            for full, frontier_of, map_id in self.SIDES:
                w_before, w_after = getattr(before, map_id), getattr(after, map_id)
                s_set, s_prime, m_prime = full(before), full(after), frontier_of(after)
                expected = _naive_unmatched(s_set, s_prime, w_before.apply, w_after.apply)
                assert unmatched(s_set, m_prime, w_before, w_after) == expected
                reduced += len(m_prime) < len(s_prime)
                non_maximal += any(b not in frontier_of(before) for b in expected)
        assert reduced >= 300
        assert non_maximal >= 10

    @pytest.mark.parametrize("linear", [False, True])
    def test_coercion_and_deception_match_unreduced(self, linear, monkeypatch):
        calls = []

        def spy(s_set, s_prime, img_before, img_after):
            calls.append(unmatched(s_set, s_prime, img_before, img_after))
            return calls[-1]

        monkeypatch.setattr(failures, "unmatched", spy)
        threatened = non_maximal = deceived = 0
        for seed in range(300):
            rng = random.Random((49_000 if linear else 48_000) + seed)
            before = genlib.scenario(rng, max_vectors=16, linear=linear)
            threat, believed, after = (genlib.successor(rng, before) for _ in range(3))

            calls.clear()
            detect_coercion(
                before,
                before,
                _record(mechanisms=("threat",), actor_has_right=False, threat_scenario=threat),
            )
            q, q_threat = compute_freedom(before), compute_freedom(threat)
            v_expected = _naive_unmatched(q, q_threat, before.v.apply, threat.v.apply)
            u_expected = _naive_unmatched(q, q_threat, before.u.apply, threat.u.apply)
            assert calls == [v_expected, u_expected]
            threatened += bool(v_expected or u_expected)
            non_maximal += any(b not in maximal_plans(before) for b in v_expected)

            calls.clear()
            detect_deception(
                before,
                after,
                _record(mechanisms=("misrepresentation",), believed_scenario=believed),
            )
            if calls:  # reached only when the believed and true M are disjoint
                # Each value's smallest id, as the reported sets name it.
                true_by_value = {}
                for fv in sorted(after.functionings, key=lambda fv: fv.id):
                    true_by_value.setdefault(fv.values, fv)
                present = [
                    true_by_value[b.values]
                    for b in maximal_plans(believed)
                    if b.values in true_by_value
                ]
                q_true = compute_freedom(after)
                assert calls == [
                    _naive_unmatched(present, q_true, after.v.apply, after.v.apply)
                ]
                deceived += 1
        assert threatened >= 50
        assert non_maximal >= 5
        assert deceived >= 30


class TestCondition1:
    def test_pass_with_witness_evidence(self):
        before = _scn([_fv("a", 1)], v={"a": (1,)}, r={"a": (2,)}, theta=(1,))
        after = _scn([_fv("b", 1)], v={"b": (1,)}, r={"b": (1,)}, theta=(1,))
        result = condition1(before, after)
        assert result.status == "pass"
        assert result.evidence[0]["kind"] == "real_freedom_witness"
        assert not result.violated

    def test_violation_names_emptied_dimension(self):
        before = _scn(
            [_fv("a", 1)], v={"a": (1,)}, r={"a": (2, 2)}, theta=(1, 1)
        )
        after = _scn(
            [_fv("b", 1)], v={"b": (1,)}, r={"b": (2, 0)}, theta=(1, 1)
        )
        result = condition1(before, after)
        assert result.status == "violated"
        kinds = {e["kind"] for e in result.evidence}
        assert kinds == {"threshold_dimension_emptied"}
        assert result.evidence[0]["dimension"] == "entitlement_1"
        assert result.evidence[0]["max_after"] == F(0)

    def test_joint_failure_when_each_dimension_reachable(self):
        before = _scn(
            [_fv("a", 1)], v={"a": (1,)}, r={"a": (1, 1)}, theta=(1, 1)
        )
        after = _scn(
            [_fv("b", 1), _fv("c", 2)],
            v={"b": (1,), "c": (1,)},
            r={"b": (2, 0), "c": (0, 2)},
            theta=(1, 1),
        )
        result = condition1(before, after)
        assert result.status == "violated"
        assert result.evidence[0]["kind"] == "joint_threshold_failure"

    def test_vacuous_when_initially_empty(self):
        before = _scn(
            [_fv("a", 1)], v={"a": (1,)}, r={"a": (0, 0)}, theta=(1, 1)
        )
        after = _scn(
            [_fv("b", 1)], v={"b": (1,)}, r={"b": (0, 0)}, theta=(1, 1)
        )
        result = condition1(before, after)
        assert result.status == "vacuous_initially_empty"
        assert not result.violated
        assert result.evidence[0]["kind"] == "initially_empty"

    def test_vacuous_comparison_flags_further_impediment(self):
        before = _scn(
            [_fv("a", 1)],
            v={"a": (1,)},
            r={"a": (F(1, 2), F(3, 4))},
            theta=(1, 1),
        )
        after = _scn(
            [_fv("b", 1)],
            v={"b": (1,)},
            r={"b": (F(1, 2), F(1, 4))},
            theta=(1, 1),
        )
        result = condition1(before, after)
        rows = [e for e in result.evidence if e["kind"] == "access_comparison"]
        assert [row["further_impeded"] for row in rows] == [False, True]
        assert rows[1]["before_max"] == F(3, 4)
        assert rows[1]["after_max"] == F(1, 4)


class TestCondition2:
    def test_pass_when_maximal_plan_strictly_replaced(self):
        before = _scn([_fv("a", 1)], v={"a": (1, 1)}, r={"a": (1,)}, theta=(1,))
        after = _scn([_fv("b", 1)], v={"b": (2, 2)}, r={"b": (1,)}, theta=(1,))
        result = condition2(before, after)
        assert result.status == "pass"
        assert result.evidence[0]["kind"] == "maximal_plans_replaced"

    def test_violation_lists_unreplaced_plans(self):
        before = _scn(
            [_fv("a", 1), _fv("z", 2)],
            v={"a": (2, 0), "z": (0, 2)},
            r={"a": (1,), "z": (1,)},
            theta=(1,),
        )
        after = _scn([_fv("k", 1)], v={"k": (2, 0)}, r={"k": (1,)}, theta=(1,))
        result = condition2(before, after)
        assert result.status == "violated"
        assert [e["functioning"] for e in result.evidence] == ["z"]
        assert result.evidence[0]["image"] == (F(0), F(2))

    def test_vacuous_pass_on_empty_before_freedom(self):
        before = _scn([_fv("a", 1)], reachable=[], v={"a": (1,)}, r={"a": (1,)}, theta=(1,))
        after = _scn([_fv("b", 1)], reachable=[], v={"b": (1,)}, r={"b": (1,)}, theta=(1,))
        assert condition2(before, after).status == "pass"

    def test_non_maximal_losses_are_tolerated(self):
        before = _scn(
            [_fv("best", 1), _fv("worse", 2)],
            v={"best": (2, 2), "worse": (1, 1)},
            r={"best": (1,), "worse": (1,)},
            theta=(1,),
        )
        after = _scn([_fv("best2", 1)], v={"best2": (2, 2)}, r={"best2": (1,)}, theta=(1,))
        assert condition2(before, after).status == "pass"


class TestBeneficence:
    def test_weak_only_transient_gain(self):
        # The added option is a transient win (u) but a considered loss (v)
        # and never clears the thresholds, so only the weak flag is set.
        before = _scn(
            [_fv("a", 1)],
            v={"a": (2, 2)},
            r={"a": (0,)},
            u={"a": (1,)},
            theta=(1,),
        )
        after = _scn(
            [_fv("a", 1), _fv("b", 2)],
            v={"a": (2, 2), "b": (1, 1)},
            r={"a": (0,), "b": (0,)},
            u={"a": (1,), "b": (2,)},
            theta=(1,),
        )
        flags = classify_beneficence(before, after)
        assert (flags.weak, flags.real_freedom, flags.life_plan) == (
            True,
            False,
            False,
        )
        assert flags.weak_only

    def test_all_three_flags(self):
        before = _scn([_fv("a", 1)], v={"a": (1,)}, r={"a": (1,)}, theta=(1,))
        after = _scn(
            [_fv("a", 1), _fv("b", 2)],
            v={"a": (1,), "b": (2,)},
            r={"a": (1,), "b": (2,)},
            theta=(1,),
        )
        flags = classify_beneficence(before, after)
        assert (flags.weak, flags.real_freedom, flags.life_plan) == (
            True,
            True,
            True,
        )
        assert not flags.weak_only

    def test_no_change_no_benefit(self):
        s = _scn(
            [_fv("low", 1), _fv("high", 2)],
            v={"low": (0,), "high": (1,)},
            r={"low": (1,), "high": (1,)},
            theta=(1,),
        )
        flags = classify_beneficence(s, s)
        assert (flags.weak, flags.real_freedom, flags.life_plan) == (
            False,
            False,
            False,
        )

    def test_no_change_raw_formula_differs(self):
        # Same situation, guard lifted: the internally dominated pair makes
        # the raw weak-benefit formula true.
        s = _scn(
            [_fv("low", 1), _fv("high", 2)],
            v={"low": (0,), "high": (1,)},
            r={"low": (1,), "high": (1,)},
            theta=(1,),
        )
        flags = classify_beneficence(s, s, require_change=False)
        assert flags.weak
        assert not flags.life_plan  # the maximal set has no dominated pair

    def test_u_falls_back_to_v(self):
        before = _scn([_fv("a", 1)], v={"a": (1,)}, r={"a": (0,)}, theta=(1,))
        after = _scn(
            [_fv("a", 1), _fv("b", 2)],
            v={"a": (1,), "b": (2,)},
            r={"a": (0,), "b": (0,)},
            theta=(1,),
        )
        assert classify_beneficence(before, after).weak


class TestAssistance:
    def test_real_freedom_lift_over_blocked_dimension(self):
        # "a" was blocked below the second threshold; the new option "b"
        # enters the threshold-satisfying core and Pareto-betters the old
        # core member, so the threshold-sensitive improvement holds.
        before = _scn(
            [_fv("a", 1), _fv("c", 2)],
            v={"a": (1,), "c": (1,)},
            r={"a": (2, 0), "c": (1, 1)},
            theta=(1, 1),
        )
        after = _scn(
            [_fv("a", 1), _fv("c", 2), _fv("b", 3)],
            v={"a": (1,), "c": (1,), "b": (1,)},
            r={"a": (2, 0), "c": (1, 1), "b": (2, 1)},
            theta=(1, 1),
        )
        assert assistance_real_freedom(before, after)

    def test_real_freedom_requires_strict_gain(self):
        before = _scn([_fv("a", 1)], v={"a": (1,)}, r={"a": (1,)}, theta=(1,))
        after = _scn(
            [_fv("a", 1), _fv("b", 2)],
            v={"a": (1,), "b": (2,)},
            r={"a": (1,), "b": (1,)},
            theta=(1,),
        )
        # the core changed but every image is the same point
        assert not assistance_real_freedom(before, after)

    def test_life_plans_removal_with_replacement(self):
        before = _scn([_fv("m", 1)], v={"m": (1, 1)}, r={"m": (1,)}, theta=(1,))
        after = _scn([_fv("m2", 2)], v={"m2": (2, 2)}, r={"m2": (1,)}, theta=(1,))
        assert assistance_life_plans(before, after)

    def test_life_plans_requires_changed_freedom(self):
        # Identical option values under different ids: no real change, no
        # assistance.  The definition demands Q' ≠ Q, so no flag lifts this.
        before = _scn([_fv("m", 1)], v={"m": (1, 1)}, r={"m": (1,)}, theta=(1,))
        after = _scn([_fv("m9", 1)], v={"m9": (1, 1)}, r={"m9": (1,)}, theta=(1,))
        assert not assistance_life_plans(before, after)

    def test_life_plans_aspiration_threshold_changes_the_answer(self):
        # v(m)=(0,3) vs v(m2)=(2,0) are Pareto-incomparable, but with the
        # aspiration threshold (2,0) the new option crosses a previously
        # unmet minimum, which counts as a strict gain.
        kwargs = dict(
            v={"m": (0, 3), "m2": (2, 0)},
            r={"m": (1,), "m2": (1,)},
            theta=(1,),
        )
        before_plain = _scn([_fv("m", 1)], v={"m": (0, 3)}, r={"m": (1,)}, theta=(1,))
        after_plain = _scn([_fv("m", 1), _fv("m2", 2)], **kwargs)
        assert not assistance_life_plans(before_plain, after_plain)

        before_aspiring = _scn(
            [_fv("m", 1)], v={"m": (0, 3)}, r={"m": (1,)}, theta=(1,), theta_p=(2, 0)
        )
        after_aspiring = _scn([_fv("m", 1), _fv("m2", 2)], theta_p=(2, 0), **kwargs)
        assert assistance_life_plans(before_aspiring, after_aspiring)


class TestPaternalism:
    def _restricting(self):
        before = _scn(
            [_fv("a", 1), _fv("b", 2)],
            v={"a": (2,), "b": (1,)},
            r={"a": (1,), "b": (1,)},
            theta=(1,),
        )
        after = _scn(
            [_fv("a", 1), _fv("b", 2)],
            reachable=["a"],
            v={"a": (2,), "b": (1,)},
            r={"a": (1,), "b": (1,)},
            theta=(1,),
        )
        return before, after

    def test_non_target_intent_not_paternalistic(self):
        before, after = self._restricting()
        rec = _record(intent="benefit_actor")
        assert paternalism_check(before, after, rec).status == "not_paternalistic"

    def test_expansion_without_promotion_not_paternalistic(self):
        before = _scn([_fv("a", 1)], v={"a": (1,)}, r={"a": (1,)}, theta=(1,))
        after = _scn(
            [_fv("a", 1), _fv("b", 2)],
            v={"a": (1,), "b": (2,)},
            r={"a": (1,), "b": (1,)},
            theta=(1,),
        )
        rec = _record(intent="benefit_target")
        result = paternalism_check(before, after, rec)
        assert result.status == "not_paternalistic"
        assert result.evidence[0]["kind"] == "no_interference_signature"

    def test_promotion_alone_engages_the_check(self):
        before = _scn([_fv("a", 1)], v={"a": (1,)}, r={"a": (1,)}, theta=(1,))
        rec = _record(intent="benefit_target", promoted_outcome="a")
        result = paternalism_check(before, before, rec)
        assert result.status in ("justified", "unjustified")

    def test_restriction_without_promoted_outcome_fails_clause_a(self):
        before, after = self._restricting()
        rec = _record(intent="benefit_target", communication_feasible=False)
        result = paternalism_check(before, after, rec)
        assert result.status == "unjustified"
        assert "a" in result.failed_clauses

    def test_subway_fixture_is_justified(self):
        doc, _ = parse_document((FIXTURES / "subway.scn").read_text())
        rec = doc.interactions[0]
        after = apply_interaction(doc.scenario, rec)
        result = paternalism_check(doc.scenario, after, rec)
        assert result.status == "justified"
        assert result.clauses == {"a": True, "b": True, "c": True, "d": True}

    def test_feasible_communication_flips_subway_to_unjustified(self):
        doc, _ = parse_document((FIXTURES / "subway.scn").read_text())
        rec = replace(doc.interactions[0], communication_feasible=True)
        after = apply_interaction(doc.scenario, rec)
        result = paternalism_check(doc.scenario, after, rec)
        assert result.status == "unjustified"
        assert result.failed_clauses == ("c",)

    def test_disproportionate_means_fail_clause_d(self):
        doc, _ = parse_document((FIXTURES / "subway.scn").read_text())
        rec = replace(doc.interactions[0], proportionality_ok=False)
        after = apply_interaction(doc.scenario, rec)
        assert paternalism_check(doc.scenario, after, rec).failed_clauses == ("d",)

    def test_no_believed_scenario_fails_clause_b(self):
        before, after = self._restricting()
        rec = _record(
            intent="benefit_target",
            promoted_outcome="a",
            communication_feasible=False,
        )
        result = paternalism_check(before, after, rec)
        assert result.status == "unjustified"
        assert result.failed_clauses == ("b",)

    def test_actor_estimate_is_reported(self):
        before, after = self._restricting()
        estimate = _table("v", {"a": (0,), "b": (5,)})
        rec = _record(
            intent="benefit_target",
            promoted_outcome="a",
            actor_estimate=estimate,
        )
        result = paternalism_check(before, after, rec)
        rows = [e for e in result.evidence if e["kind"] == "actor_estimate"]
        assert rows == [{"kind": "actor_estimate", "promoted_maximal_under_estimate": False}]


class TestCoercion:
    def _threat_world(self, r_img, v_img, u_img=None):
        u = None if u_img is None else {"t": u_img}
        return _scn([_fv("t", 9)], v={"t": v_img}, r={"t": r_img}, u=u, theta=(1,))

    def _base(self, u_img=None):
        u = None if u_img is None else {"a": u_img}
        return _scn([_fv("a", 1)], v={"a": (1, 1)}, r={"a": (2,)}, u=u, theta=(1,))

    def test_threat_mechanism_without_scenario_is_incoherent(self):
        base = self._base()
        rec = _record(mechanisms=("threat",), actor_has_right=False)
        with pytest.raises(IncompleteRecordError, match="threat_scenario"):
            detect_coercion(base, base, rec)

    def test_physical_force_without_scenario_is_silent(self):
        base = self._base()
        rec = _record(mechanisms=("physical_force",), actor_has_right=False)
        assert detect_coercion(base, base, rec) is None

    def test_rightful_imposition_is_not_coercion(self):
        base = self._base()
        threat = self._threat_world((0,), (0, 0))
        rec = _record(
            mechanisms=("threat",), actor_has_right=True, threat_scenario=threat
        )
        assert detect_coercion(base, base, rec) is None

    def test_non_threat_mechanisms_never_fire(self):
        base = self._base()
        threat = self._threat_world((0,), (0, 0))
        rec = _record(
            mechanisms=("persuasion",), actor_has_right=False, threat_scenario=threat
        )
        assert detect_coercion(base, base, rec) is None

    def test_serious_on_considered_worsening(self):
        base = self._base()
        threat = self._threat_world((2,), (0, 0))
        rec = _record(
            mechanisms=("threat",), actor_has_right=False, threat_scenario=threat
        )
        finding = detect_coercion(base, base, rec)
        assert finding.kind == "coercion"
        assert finding.severity == "serious"
        assert finding.evidence[0] == {
            "kind": "threatened_worsening",
            "valuation": "v",
            "functioning": "a",
            "image": (F(1), F(1)),
        }

    def test_serious_on_threshold_drop_names_dimension(self):
        base = self._base()
        threat = self._threat_world((0,), (1, 1))
        rec = _record(
            mechanisms=("threat",), actor_has_right=False, threat_scenario=threat
        )
        finding = detect_coercion(base, base, rec)
        assert finding.severity == "serious"
        kinds = [e["kind"] for e in finding.evidence]
        assert "threshold_dimension_dropped" in kinds

    def test_joint_drop_without_per_dimension_drop(self):
        base = _scn(
            [_fv("a", 1)], v={"a": (1,)}, r={"a": (1, 1)}, theta=(1, 1)
        )
        threat = _scn(
            [_fv("t1", 8), _fv("t2", 9)],
            v={"t1": (1,), "t2": (1,)},
            r={"t1": (2, 0), "t2": (0, 2)},
            theta=(1, 1),
        )
        rec = _record(
            mechanisms=("threat",), actor_has_right=False, threat_scenario=threat
        )
        finding = detect_coercion(base, base, rec)
        assert finding.severity == "serious"
        kinds = [e["kind"] for e in finding.evidence]
        assert "real_freedom_emptied" in kinds
        assert "threshold_dimension_dropped" not in kinds

    def test_transient_only_worsening_is_minor(self):
        base = self._base(u_img=(2,))
        threat = self._threat_world((2,), (1, 1), u_img=(1,))
        rec = _record(
            mechanisms=("threat",), actor_has_right=False, threat_scenario=threat
        )
        finding = detect_coercion(base, base, rec)
        assert finding.severity == "minor"
        assert finding.evidence[0]["valuation"] == "u"

    def test_harmless_threat_world_is_no_finding(self):
        base = self._base()
        threat = self._threat_world((2,), (2, 2))
        rec = _record(
            mechanisms=("threat",), actor_has_right=False, threat_scenario=threat
        )
        assert detect_coercion(base, base, rec) is None


class TestDeception:
    def _true_world(self, r_a=(1,)):
        return _scn(
            [_fv("a", 1), _fv("h", 2)],
            v={"a": (1, 1), "h": (2, 2)},
            r={"a": r_a, "h": (1,)},
            theta=(1,),
        )

    def _believed_only_a(self):
        return _scn([_fv("a", 1)], v={"a": (1, 1)}, r={"a": (1,)}, theta=(1,))

    def test_mechanism_without_believed_scenario_is_incoherent(self):
        world = self._true_world()
        rec = _record(mechanisms=("information_filtering",))
        with pytest.raises(IncompleteRecordError, match="believed_scenario"):
            detect_deception(world, world, rec)

    def test_believed_scenario_without_mechanism_is_silent(self):
        world = self._true_world()
        rec = _record(mechanisms=("offer",), believed_scenario=self._believed_only_a())
        assert detect_deception(world, world, rec) is None

    def test_hidden_better_option_is_minor(self):
        world = self._true_world()
        rec = _record(
            mechanisms=("information_filtering",),
            believed_scenario=self._believed_only_a(),
        )
        finding = detect_deception(world, world, rec)
        assert finding.kind == "deception"
        assert finding.severity == "minor"
        assert finding.evidence[0] == {
            "kind": "maximal_choice_disjunction",
            "believed_maximal_set": ["a"],
            "true_maximal_set": ["h"],
        }

    def test_believed_choice_below_threshold_is_serious(self):
        world = self._true_world(r_a=(0,))
        rec = _record(
            mechanisms=("information_filtering",),
            believed_scenario=self._believed_only_a(),
        )
        finding = detect_deception(world, world, rec)
        assert finding.severity == "serious"
        assert finding.evidence[1]["kind"] == "choice_below_threshold"

    def test_fabricated_option_is_serious(self):
        world = self._true_world()
        believed = _scn(
            [_fv("phantom", 7)], v={"phantom": (9, 9)}, r={"phantom": (1,)}, theta=(1,)
        )
        rec = _record(
            mechanisms=("misrepresentation",), believed_scenario=believed
        )
        finding = detect_deception(world, world, rec)
        assert finding.severity == "serious"
        assert finding.evidence[1]["kind"] == "fabricated_option"

    def test_unmatched_existing_option_is_serious(self):
        # The believed-best exists in the true catalog but is unreachable
        # there and nothing realizable matches it.
        world = _scn(
            [_fv("a", 1), _fv("dream", 2)],
            reachable=["a"],
            v={"a": (1, 1), "dream": (5, 5)},
            r={"a": (1,), "dream": (1,)},
            theta=(1,),
        )
        believed = _scn(
            [_fv("dream", 2)], v={"dream": (5, 5)}, r={"dream": (1,)}, theta=(1,)
        )
        rec = _record(
            mechanisms=("information_filtering",), believed_scenario=believed
        )
        finding = detect_deception(world, world, rec)
        assert finding.severity == "serious"
        assert finding.evidence[1]["kind"] == "unmatched_believed_choice"

    @pytest.mark.parametrize("order", [1, -1], ids=["id_sorted", "reversed"])
    def test_evidence_names_the_smallest_id_of_a_value(self, order):
        # a_low and z_low share one value: every reported id is a_low.
        catalog = [_fv("a_low", 0, 1), _fv("m_hi", 2, 2), _fv("z_low", 0, 1)][::order]
        v = {"a_low": (1, 1), "m_hi": (2, 0), "z_low": (1, 1)}
        r = {"a_low": (1,), "m_hi": (1,), "z_low": (1,)}
        world = _scn(catalog, reachable=["m_hi"], v=v, r=r, theta=(1,))
        believed = _scn(catalog, reachable=["a_low", "z_low"], v=v, r=r, theta=(1,))
        rec = _record(mechanisms=("information_filtering",), believed_scenario=believed)
        disjunction, unmatched_choice = detect_deception(world, world, rec).evidence
        assert disjunction["believed_maximal_set"] == ["a_low"]
        assert disjunction["true_maximal_set"] == ["m_hi"]
        assert unmatched_choice["kind"] == "unmatched_believed_choice"
        assert unmatched_choice["functioning"] == "a_low"

    def test_agreeing_maximal_choices_are_silent(self):
        world = self._true_world()
        believed = _scn(
            [_fv("h", 2)], v={"h": (2, 2)}, r={"h": (1,)}, theta=(1,)
        )
        rec = _record(
            mechanisms=("information_filtering",), believed_scenario=believed
        )
        assert detect_deception(world, world, rec) is None

    def test_both_empty_is_silent(self):
        world = _scn(
            [_fv("a", 1)], reachable=[], v={"a": (1, 1)}, r={"a": (1,)}, theta=(1,)
        )
        believed = _scn(
            [_fv("b", 2)], reachable=[], v={"b": (1, 1)}, r={"b": (1,)}, theta=(1,)
        )
        rec = _record(
            mechanisms=("information_filtering",), believed_scenario=believed
        )
        assert detect_deception(world, world, rec) is None


class TestExploitation:
    def _finding(self, kind, severity):
        from capkit.judgments.failures import Finding

        return Finding(kind, severity, ())

    def test_intent_gate(self):
        world = _scn([_fv("a", 1)], v={"a": (1,)}, r={"a": (1,)}, theta=(1,))
        rec = _record(intent="benefit_target", unfair_terms=True)
        assert (
            detect_exploitation(world, world, rec, self._finding("coercion", "serious"), None)
            is None
        )

    def test_unfair_terms_alone_is_minor(self):
        world = _scn([_fv("a", 1)], v={"a": (1,)}, r={"a": (1,)}, theta=(1,))
        rec = _record(intent="benefit_actor", unfair_terms=True)
        finding = detect_exploitation(world, world, rec, None, None)
        assert finding.severity == "minor"
        assert finding.evidence[0] == {"kind": "intent", "intent": "benefit_actor"}

    def test_severity_tracks_contributing_finding(self):
        world = _scn([_fv("a", 1)], v={"a": (1,)}, r={"a": (1,)}, theta=(1,))
        rec = _record(intent="benefit_third_party")
        serious = detect_exploitation(
            world, world, rec, self._finding("coercion", "serious"), None
        )
        minor = detect_exploitation(
            world, world, rec, None, self._finding("deception", "minor")
        )
        assert serious.severity == "serious"
        assert minor.severity == "minor"

    def test_nothing_to_base_it_on(self):
        world = _scn([_fv("a", 1)], v={"a": (1,)}, r={"a": (1,)}, theta=(1,))
        rec = _record(intent="benefit_actor")
        assert detect_exploitation(world, world, rec, None, None) is None


class TestDomination:
    def _steps(self, choices_desired, scenario=None):
        s = scenario or _scn(
            [_fv("rally", 1, 0), _fv("binge", 0, 1), _fv("family", 2, 2)],
            v={"rally": (1, 0), "binge": (0, 1), "family": (2, 2)},
            r={"rally": (1,), "binge": (1,), "family": (1,)},
            theta=(1,),
        )
        rec = _record()
        return [
            MaterializedStep(
                index=i,
                record=rec,
                before=s,
                after=s,
                target_choice=s.functioning(choice),
                actor_desired=s.functioning(desired),
            )
            for i, (choice, desired) in enumerate(choices_desired)
        ]

    def test_single_step_is_insufficient(self):
        result = detect_domination(self._steps([("rally", "rally")]))
        assert result.status == "insufficient_evidence"
        assert result.evidence[0]["kind"] == "trace_too_short"

    def test_pattern_found(self):
        result = detect_domination(
            self._steps([("rally", "rally"), ("binge", "binge")])
        )
        assert result.status == "finding"
        kinds = [e["kind"] for e in result.evidence]
        assert kinds.count("followed_desire") == 2
        assert kinds.count("choice_outside_maximal_set") == 2

    def test_same_desire_twice_is_no_pattern(self):
        result = detect_domination(
            self._steps([("rally", "rally"), ("rally", "rally")])
        )
        assert result.status == "none"
        assert result.evidence[0]["distinct_desired_outcomes"] == 1

    def test_choices_on_the_frontier_are_no_pattern(self):
        s = _scn(
            [_fv("rally", 1, 0), _fv("binge", 0, 1)],
            v={"rally": (1, 0), "binge": (0, 1)},
            r={"rally": (1,), "binge": (1,)},
            theta=(1,),
        )
        result = detect_domination(
            self._steps([("rally", "rally"), ("binge", "binge")], scenario=s)
        )
        assert result.status == "none"
        assert result.evidence[0]["choices_outside_maximal_set"] == 0

    def test_unfollowed_suggestions_are_no_pattern(self):
        result = detect_domination(
            self._steps([("family", "rally"), ("family", "binge")])
        )
        assert result.status == "none"
        assert result.evidence[0]["followed_steps"] == 0

    def test_fixture_trace(self):
        doc, _ = parse_document((FIXTURES / "domination.trc").read_text())
        steps = materialize_trace(doc.scenario, doc.records_by_id(), doc.traces[0])
        assert detect_domination(steps).status == "finding"


class TestVerdict:
    def test_judge_aggregates_and_orders_findings(self):
        doc, _ = parse_document((FIXTURES / "ransomware.scn").read_text())
        rec = doc.interactions[0]
        after = apply_interaction(doc.scenario, rec)
        verdict = judge(doc.scenario, after, rec)
        assert verdict.interaction_id == "i_encrypt_files"
        assert [f.kind for f in verdict.findings] == ["coercion", "exploitation"]
        assert verdict.has_violation

    def test_has_violation_flags(self):
        doc, _ = parse_document((FIXTURES / "grocery.scn").read_text())
        rec = doc.interactions[0]
        after = apply_interaction(doc.scenario, rec)
        verdict = judge(doc.scenario, after, rec)
        assert not verdict.has_violation
        assert verdict.beneficence.life_plan

    def test_unjustified_paternalism_is_a_violation(self):
        doc, _ = parse_document((FIXTURES / "surveillance.scn").read_text())
        rec = doc.interactions[0]
        after = apply_interaction(doc.scenario, rec)
        verdict = judge(doc.scenario, after, rec)
        assert verdict.paternalism.status == "unjustified"
        assert verdict.has_violation

    def test_to_dict_formats_rationals(self):
        before = _scn(
            [_fv("a", 1)], v={"a": (1,)}, r={"a": (F(1, 2), F(3, 4))}, theta=(1, 1)
        )
        after = _scn(
            [_fv("b", 1)], v={"b": (1,)}, r={"b": (F(1, 2), F(1, 4))}, theta=(1, 1)
        )
        verdict = judge(before, after, _record())
        obj = verdict.to_dict()
        rows = [
            e
            for e in obj["condition1"]["evidence"]
            if e["kind"] == "access_comparison"
        ]
        assert rows[1]["before_max"] == "3/4"
        assert rows[1]["after_max"] == "1/4"
        assert obj["condition1"]["status"] == "vacuous_initially_empty"

    def test_adverse_outcome_without_evidence_is_an_internal_error(self):
        from capkit.judgments.failures import PaternalismResult
        from capkit.judgments.improvement import (
            AssistanceFlags,
            BeneficenceFlags,
            ConditionResult,
        )
        from capkit.judgments.verdict import _check_evidence

        broken = Verdict(
            interaction_id="i_broken",
            condition1=ConditionResult("violated", ()),
            condition2=ConditionResult("pass", ({"kind": "maximal_plans_replaced"},)),
            beneficence=BeneficenceFlags(False, False, False),
            assistance=AssistanceFlags(False, False),
            paternalism=PaternalismResult(
                "not_paternalistic", {}, (), ({"kind": "intent"},)
            ),
            findings=(),
        )
        with pytest.raises(InternalInvariantError, match="i_broken"):
            _check_evidence(broken)

    def test_verdict_is_frozen(self):
        doc, _ = parse_document((FIXTURES / "grocery.scn").read_text())
        rec = doc.interactions[0]
        after = apply_interaction(doc.scenario, rec)
        verdict = judge(doc.scenario, after, rec)
        assert isinstance(verdict, Verdict)
        with pytest.raises(AttributeError):
            verdict.interaction_id = "other"
