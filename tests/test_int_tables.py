"""The integer layer: per-map image tables, θ on their scale, and the
judgments that run on them, against Fraction arithmetic and the oracle."""

from __future__ import annotations

import json
import marshal
import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from math import lcm
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import genlib
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capkit.cli as cli
from capkit import scenario_io
from capkit.errors import SchemaError
from capkit.judgments.failures import detect_coercion, detect_deception
from capkit.judgments.improvement import (
    assistance_life_plans,
    assistance_real_freedom,
    classify_beneficence,
    condition1,
    condition2,
    unmatched,
)
from capkit.judgments.records import InteractionDeltas, InteractionRecord
from capkit.model import frontier
from capkit.model.freedom import access_profile, compute_freedom, compute_real_freedom
from capkit.model.frontier import maximal_set, meeting
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
from capkit.scenario_io import (
    ScenarioDocument,
    parse_document,
    serialize_document,
    serialize_scenario,
)

F = Fraction
FIXTURES = Path(__file__).parent / "fixtures"

# Every draw below has a fixed budget and no randomness between runs.
PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)

mixed = st.fractions(min_value=-3, max_value=3, max_denominator=12)
halves = st.integers(min_value=-4, max_value=5).map(lambda n: F(2 * n + 1, 2))
thirds = (
    st.integers(min_value=-6, max_value=9).filter(lambda n: n % 3).map(lambda n: F(n, 3))
)
sevenths = st.fractions(min_value=-3, max_value=3, max_denominator=7)


def _ids(n: int) -> list[str]:
    return [f"b{i}" for i in range(n)]


def _catalog(n: int) -> tuple[FunctioningVector, ...]:
    # Distinct values, so any table is a function of the values.
    return tuple(FunctioningVector(fid, (F(i),)) for i, fid in enumerate(_ids(n)))


def _scenario(catalog, reachable, v, r, theta) -> Scenario:
    width = {"P": len(next(iter(v.values()))), "E": len(theta)}
    schemas = {
        name: DimensionSchema(name, tuple(Dimension(f"{name}{k}") for k in range(n)))
        for name, n in (("B", 1), *width.items())
    }
    return Scenario(
        agent_id="agent",
        schemas=schemas,
        resource_schema=(Dimension("goods"),),
        resources=(ResourceVector("x0", (F(1),)),),
        characteristics={},
        social={},
        functionings=catalog,
        utilization=tuple(UtilizationEntry(f"f_{fid}", "x0", (), fid) for fid in reachable),
        maps={
            "v": ValuationMap("v", "table", entries=v),
            "r": ValuationMap("r", "table", entries=r),
        },
        theta=ThresholdVector(theta),
    )


@st.composite
def two_worlds(draw):
    """One catalog seen by a main scenario whose images are in halves and by
    a copy whose images are in thirds: their tables have different scales."""
    n = draw(st.integers(min_value=1, max_value=8))
    n_p, n_e = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    catalog = _catalog(n)
    theta = draw(st.tuples(*[halves] * n_e))

    def world(part):
        v = {fid: draw(st.tuples(*[part] * n_p)) for fid in _ids(n)}
        r = {fid: draw(st.tuples(*[part] * n_e)) for fid in _ids(n)}
        reachable = draw(st.lists(st.sampled_from(_ids(n)), unique=True))
        return _scenario(catalog, sorted(reachable), v, r, theta)

    return world(halves), world(thirds)


_image = oracle._image


def _values(fvs) -> set:
    return {fv.values for fv in fvs}


class TestTable:
    @PROPERTY
    @given(st.integers(1, 3).flatmap(
        lambda w: st.lists(st.tuples(*[mixed] * w), min_size=1, max_size=10)
    ))
    def test_scale_is_the_column_lcm_and_images_read_back(self, images):
        entries = dict(zip(_ids(len(images)), images))
        ints, scale, key = frontier._table(ValuationMap("v", "table", entries=entries))
        for k, d in enumerate(scale):
            assert d == lcm(*(img[k].denominator for img in images))
        for fid, img in entries.items():
            assert tuple(F(n, d) for n, d in zip(ints[fid], scale)) == img
            assert all(type(n) is int for n in ints[fid])
        assert key(FunctioningVector("b0", (F(0),))) == "b0"

    def test_replace_never_inherits_a_table(self):
        old = ValuationMap("v", "table", entries={"b0": (F(1, 2),)})
        assert frontier._table(old)[1] == (2,)
        new = replace(old, entries={"b0": (F(1, 3),)})
        assert frontier._table(new)[1] == (3,)


    def test_tables_of_different_widths_raise(self):
        catalog = _catalog(1)
        one = ValuationMap("v", "table", entries={"b0": (F(1),)})
        two = ValuationMap("v", "table", entries={"b0": (F(1), F(1, 2))})
        with pytest.raises(SchemaError, match=r"different lengths \(1 vs 2\)"):
            unmatched(catalog, catalog, one, two)
        with pytest.raises(SchemaError, match=r"different lengths \(1 vs 2\)"):
            meeting(catalog, two, (F(0),))


class TestThetaOnTheScale:
    @PROPERTY
    @given(
        st.lists(st.tuples(halves, st.sampled_from((F(0), F(1), F(-1)))), min_size=1),
        st.tuples(sevenths, sevenths),
    )
    def test_ceiling_is_exact(self, images, theta):
        catalog = _catalog(len(images))
        w = ValuationMap("r", "table", entries=dict(zip(_ids(len(images)), images)))
        (ints,), scale, theta_ints = frontier.scaled_images([(catalog, w)], theta)
        for x, x_int in zip(images, ints):
            for k in range(2):
                assert (x_int[k] >= theta_ints[k]) == (x[k] >= theta[k])
        assert meeting(catalog, w, theta) == [
            fv for fv, x in zip(catalog, images) if x[0] >= theta[0] and x[1] >= theta[1]
        ]

    def test_sevenths_over_halves(self):
        images = [(F(1, 2),), (F(0),), (F(-1, 2),), (F(-1),)]
        catalog = _catalog(len(images))
        w = ValuationMap("r", "table", entries=dict(zip(_ids(len(images)), images)))
        for theta, met in (
            ((F(1, 7),), ["b0"]),
            ((F(-1, 7),), ["b0", "b1"]),
            ((F(-4, 7),), ["b0", "b1", "b2"]),
            ((F(-1),), ["b0", "b1", "b2", "b3"]),
            ((F(1, 2),), ["b0"]),
            ((F(4, 7),), []),
        ):
            assert [fv.id for fv in meeting(catalog, w, theta)] == met, theta


class TestMapsOnDifferentScales:
    """A copy in thirds against a main map in halves meets on sixths."""

    @PROPERTY
    @given(two_worlds())
    def test_condition2_evidence(self, worlds):
        main, copy = worlds
        assert frontier._table(main.v)[1] != frontier._table(copy.v)[1]
        expected = [
            b.id
            for b in oracle.naive_maximal_set(oracle.freedom(main), main.v)
            if not any(
                oracle._weak(_image(copy, "v", bp), _image(main, "v", b))
                for bp in oracle.freedom(copy)
            )
        ]
        result = condition2(main, copy)
        assert result.violated == bool(expected)
        if expected:
            assert [e["functioning"] for e in result.evidence] == expected
            assert [e["image"] for e in result.evidence] == [
                _image(main, "v", main.functioning(fid)) for fid in expected
            ]

    @PROPERTY
    @given(two_worlds())
    def test_coercion_evidence(self, worlds):
        main, threat = worlds
        rec = _record(mechanisms=("threat",), actor_has_right=False, threat_scenario=threat)
        q, q_threat = oracle.freedom(main), oracle.freedom(threat)
        worse = sorted(
            b.id
            for b in q
            if not any(
                oracle._weak(_image(threat, "v", bp), _image(main, "v", b))
                for bp in q_threat
            )
        )
        dropped = [
            dim.name
            for k, dim in enumerate(main.schemas["E"].dims)
            if any(_image(main, "r", b)[k] >= main.theta.values[k] for b in q)
            and not any(_image(threat, "r", b)[k] >= threat.theta.values[k] for b in q_threat)
        ]
        joint = bool(oracle.real_freedom(main)) and not oracle.real_freedom(threat)
        expected = [("threatened_worsening", fid) for fid in worse]
        expected += [("threshold_dimension_dropped", dim) for dim in dropped]
        if joint and not dropped:
            expected.append(("real_freedom_emptied", None))
        finding = detect_coercion(main, main, rec)
        if not expected:
            assert finding is None
            return
        assert finding.severity == "serious"
        assert [
            (e["kind"], e.get("functioning", e.get("dimension"))) for e in finding.evidence
        ] == expected

    @PROPERTY
    @given(two_worlds())
    def test_deception_evidence(self, worlds):
        believed, after = worlds
        rec = _record(mechanisms=("misrepresentation",), believed_scenario=believed)
        m_believed = oracle.naive_maximal_set(oracle.freedom(believed), believed.v)
        q_true = oracle.freedom(after)
        m_true = oracle.naive_maximal_set(q_true, after.v)
        finding = detect_deception(after, after, rec)
        if (not m_believed and not m_true) or _values(m_believed) & _values(m_true):
            assert finding is None
            return
        by_value = {fv.values: fv for fv in after.functionings}
        expected = []
        for bhat in m_believed:
            c = by_value[bhat.values]
            if not any(
                oracle._weak(_image(after, "v", bp), _image(after, "v", c)) for bp in q_true
            ):
                expected.append(("unmatched_believed_choice", c.id))
            elif c.values in _values(q_true) and not oracle._weak(
                _image(after, "r", c), after.theta.values
            ):
                expected.append(("choice_below_threshold", c.id))
        assert [(e["kind"], e["functioning"]) for e in finding.evidence[1:]] == expected
        assert finding.severity == ("serious" if expected else "minor")


class TestAccessProfile:
    @PROPERTY
    @given(two_worlds())
    def test_max_value_is_the_fraction_max(self, worlds):
        for s in worlds:
            profile = access_profile(s)
            q = oracle.freedom(s)
            for k, entry in enumerate(profile.entries):
                top = max((_image(s, "r", b)[k] for b in q), default=None)
                assert entry.max_value == top
                assert top is None or type(entry.max_value) is Fraction
                assert entry.satisfied == (top is not None and top >= s.theta.values[k])
            assert profile.jointly_satisfiable == bool(oracle.real_freedom(s))


def _record(*, mechanisms, actor_has_right=True, believed_scenario=None, threat_scenario=None):
    return InteractionRecord(
        id="i_x",
        actor_id="other",
        target="agent",
        deltas=InteractionDeltas(),
        intent="unknown",
        mechanisms=mechanisms,
        actor_has_right=actor_has_right,
        communication_feasible=True,
        proportionality_ok=True,
        unfair_terms=False,
        promoted_outcome=None,
        actor_estimate_of_target_values=None,
        believed_scenario=believed_scenario,
        threat_scenario=threat_scenario,
    )


# ---------------------------------------------------------------------------
# Linear maps keep the parser's images
# ---------------------------------------------------------------------------


def _judgments(before, after) -> dict:
    flags = classify_beneficence(before, after)
    return {
        "condition1": condition1(before, after).status != "violated",
        "condition2": condition2(before, after).status != "violated",
        "benefit_weak": flags.weak,
        "benefit_real_freedom": flags.real_freedom,
        "benefit_life_plans": flags.life_plan,
        "assistance_real_freedom": assistance_real_freedom(before, after),
        "assistance_life_plans": assistance_life_plans(before, after),
    }


def _guarded(engine: dict, before, after) -> int:
    """How many of ``engine``'s readings differ from the oracle's raw
    formulas.  Only the change guard may turn a raw-true reading false."""
    count = 0
    for formula, value in engine.items():
        raw = oracle.eval_formula(formula, before, after)
        if value != raw:
            assert raw and not value and formula not in ("condition1", "condition2")
            count += 1
    return count


def _round_trip(s: Scenario) -> Scenario:
    doc = ScenarioDocument(format_version=1, scenario=s, interactions=(), traces=())
    parsed, _ = parse_document(serialize_document(doc))
    return parsed.scenario


def test_parsed_linear_maps_judge_like_the_oracle():
    """genlib scenarios with linear maps, serialized and parsed back: the
    parsed maps read their images from tables, the code-built ones compute
    them; both agree with each other and with the oracle's raw formulas
    wherever the change guard does not apply."""
    tabled = guarded = 0
    for seed in range(200):
        rng = random.Random(140_000 + seed)
        built_before = genlib.scenario(rng, linear=True)
        built_after = genlib.successor(rng, built_before)
        before, after = _round_trip(built_before), _round_trip(built_after)
        for s in (before, after):
            for m in s.maps.values():
                if m.form == "linear":
                    assert m.images is not None and frontier._table(m)[0]
                    tabled += 1
        engine = _judgments(before, after)
        assert engine == _judgments(built_before, built_after), seed
        for s, built in ((before, built_before), (after, built_after)):
            assert maximal_set(compute_freedom(s), s.v) == maximal_set(
                compute_freedom(built), built.v
            )
            assert compute_real_freedom(s) == compute_real_freedom(built)
            assert access_profile(s) == access_profile(built)
        guarded += _guarded(engine, before, after)
    assert tabled >= 200
    assert guarded


@pytest.mark.parametrize("linear", [False, True])
def test_successor_believed_world_parses_and_judges_like_the_oracle(linear):
    """A record whose believed world is a genlib successor of the main
    scenario (a near-copy that drops and adds vectors) serializes to a
    document the parser accepts.  Parsed, the world is the one built, is
    shared with the main scenario exactly when it is equal to it, and
    judges like the oracle wherever the change guard does not apply."""
    dropped = shared = guarded = 0
    for seed in range(150):
        rng = random.Random((150_000 if linear else 151_000) + seed)
        main = genlib.scenario(rng, linear=linear)
        believed = genlib.successor(rng, main)
        record = _record(mechanisms=("misrepresentation",), believed_scenario=believed)
        doc = ScenarioDocument(
            format_version=1, scenario=main, interactions=(record,), traces=()
        )
        parsed, _ = parse_document(serialize_document(doc))
        before, after = parsed.scenario, parsed.interactions[0].believed_scenario
        assert serialize_scenario(after) == serialize_scenario(believed), seed
        equal = serialize_scenario(believed) == serialize_scenario(main)
        assert (after is before) == equal
        shared += equal
        dropped += not {fv.id for fv in main.functionings} <= {
            fv.id for fv in after.functionings
        }

        assert _values(compute_freedom(after)) == _values(oracle.freedom(after))
        assert _values(compute_real_freedom(after)) == _values(oracle.real_freedom(after))
        assert maximal_set(compute_freedom(after), after.v) == oracle.naive_maximal_set(
            oracle.freedom(after), after.v
        )
        guarded += _guarded(_judgments(before, after), before, after)
    assert dropped >= 50
    assert shared
    assert guarded


def test_linear_apply_is_one_lookup():
    m = ValuationMap("v", "linear", matrix=((F(1), F(1, 2)),))
    fv = FunctioningVector("b0", (F(1), F(1)))
    parsed = ValuationMap("v", "linear", matrix=m.matrix)
    parsed.images[fv.value_key] = (F(9),)  # as if the parser had computed it
    assert m.apply(fv) == (F(3, 2),)
    assert parsed.apply(fv) == (F(9),)  # read from images, not recomputed
    other = FunctioningVector("b1", (F(2), F(0)))
    assert parsed.apply(other) == (F(2),)  # a vector outside the catalog is computed


def test_replaced_linear_matrix_never_reads_old_images():
    """The parser leaves each catalog image in the map's memo; a map made by
    ``replace`` with a new matrix starts with an empty one."""
    data = json.loads((FIXTURES / "grocery.scn").read_text())
    data["scenario"]["maps"]["v"] = {"form": "linear", "matrix": [[1, 1, 1], [1, 1, 1]]}
    doc, _ = parse_document(json.dumps(data))
    fv = doc.scenario.functioning("b_home_cooking")
    parsed = doc.scenario.v
    assert fv.value_key in parsed.images
    assert parsed.apply(fv) == (4, 4)
    negated = replace(parsed, matrix=((F(-1),) * 3,) * 2)
    assert negated.apply(fv) == (-4, -4)
    assert frontier._table(negated)[0] == {fv.value_key: (-4, -4)}
    assert parsed.apply(fv) == (4, 4)


# ---------------------------------------------------------------------------
# Mechanism guard: shipped fixtures never rescale per call
# ---------------------------------------------------------------------------


@contextmanager
def _scaling():
    """Counts table builds per map, image rows put on a scale inside them per
    (image tuple, scale), and ``integer_images`` calls outside them (the
    per-call Fraction→int steps)."""
    builds: Counter = Counter()
    rows: Counter = Counter()
    held = []  # keeps every counted map and image alive, so ids stay unique
    per_call = Counter()
    building = []
    real_build, real_images = frontier._build_table, frontier.integer_images
    real_on_scale = frontier._on_scale

    def build(w):
        builds[id(w)] += 1
        held.append(w)
        building.append(w)
        try:
            return real_build(w)
        finally:
            building.pop()

    def on_scale(img, scale):
        if building:
            rows[id(img), scale] += 1
            held.append(img)
        return real_on_scale(img, scale)

    def integer_images(*args):
        if not building:
            per_call["integer_images"] += 1
        return real_images(*args)

    with patch.object(frontier, "_build_table", build), patch.object(
        frontier, "integer_images", integer_images
    ), patch.object(frontier, "_on_scale", on_scale):
        yield builds, held, per_call, rows


def test_fixtures_scale_each_map_once(capsys):
    runs = [("judge", p) for p in sorted(FIXTURES.glob("*.scn"))]
    runs += [("detect", p) for p in sorted(FIXTURES.glob("*.trc"))]
    assert len(runs) >= 9
    tables = 0
    with _scaling() as (builds, held, per_call, rows):
        for command, path in runs:
            builds.clear()
            held.clear()
            rows.clear()
            code = cli.main([command, str(path)])
            capsys.readouterr()
            assert code in (0, 2) and (code == 0) == (path.stem != "broken_chain"), path
            assert all(n == 1 for n in builds.values()), path
            assert all(n == 1 for n in rows.values()), path
            tables += len(builds)
    assert tables >= 10
    assert per_call == Counter()


# ---------------------------------------------------------------------------
# Mechanism guard: one key, one walk and one integer image per distinct value
# ---------------------------------------------------------------------------


def _many_worlds(seed: int) -> str:
    """A document whose records carry genlib successors of the main world
    (some equal to it), plus one world that differs from the main one only
    inside an array, so its fingerprint collides with the main one's."""
    rng = random.Random(f"many-worlds:{seed}")
    main = genlib.scenario(rng, max_vectors=12)
    worlds = [genlib.successor(rng, main) for _ in range(6)]
    resources = tuple(replace(res, values=(res.values[0] + 1,)) for res in main.resources)
    worlds.append(replace(main, resources=resources))
    records = tuple(
        replace(
            _record(mechanisms=("threat",), actor_has_right=False, threat_scenario=world),
            id=f"i_{k}",
        )
        for k, world in enumerate(worlds)
    )
    return serialize_document(ScenarioDocument(1, main, records, ()))


@contextmanager
def _walks():
    """Every whole-scenario marshal, and the functioning and utilization walks."""
    marshalled, walks = [], Counter()

    def dumps(value, version):
        if type(value) is dict and type(value.get("functionings")) is list:
            marshalled.append(json.dumps(value, default=bytes.decode))
        return marshal.dumps(value, version)

    def counted(name, walk):
        def count(*args):
            walks[name] += 1
            return walk(*args)

        return count

    functioning, pattern = scenario_io._FUNCTIONING, scenario_io._UTILIZATION
    with patch.object(scenario_io, "marshal", SimpleNamespace(dumps=dumps)), patch.object(
        functioning, "walk", counted("functioning", functioning.walk)
    ), patch.object(pattern, "walk", counted("pattern", pattern.walk)):
        yield marshalled, walks


@pytest.mark.parametrize("seed", range(4))
def test_each_distinct_value_is_paid_once(seed, tmp_path, capsys):
    text = _many_worlds(seed)
    raw = scenario_io._decode(text)
    worlds = [raw["scenario"]] + [rec["threat_scenario"] for rec in raw["interactions"]]
    # The decoder shares verbatim copies; the rest are bucketed by fingerprint.
    distinct = list({id(world): world for world in worlds}.values())
    prints = Counter(marshal.dumps(scenario_io._shape(w), 2) for w in distinct)
    collided = [w for w in distinct if prints[marshal.dumps(scenario_io._shape(w), 2)] > 1]
    walked = list({marshal.dumps(w, 2): w for w in reversed(distinct)}.values())
    functionings = {
        (len(w["schemas"]["B"]), marshal.dumps(item, 2))
        for w in walked
        for item in w["functionings"]
    }
    patterns = {
        (frozenset(w["characteristics"]), frozenset(w["social"]), marshal.dumps(entry, 2))
        for w in walked
        for entry in w["utilization"]
    }

    with _walks() as (marshalled, walks):
        doc, _ = parse_document(text)
    # No scenario is marshalled whole unless its fingerprint collides.
    assert len(collided) >= 2
    assert sorted(marshalled) == sorted(json.dumps(w, default=bytes.decode) for w in collided)
    assert walks == Counter(functioning=len(functionings), pattern=len(patterns))
    assert len(functionings) < sum(len(w["functionings"]) for w in walked)

    path = tmp_path / "doc.json"
    path.write_text(text)
    dedupes = []
    real_dedupe = frontier.dedupe_by_value
    with _scaling() as (builds, _, per_call, rows), patch.object(
        frontier, "dedupe_by_value", lambda q: dedupes.append(1) or real_dedupe(q)
    ):
        assert cli.main(["judge", str(path)]) in (0, 1)
    capsys.readouterr()
    assert all(n == 1 for n in builds.values())
    assert rows and all(n == 1 for n in rows.values())
    assert dedupes == []


@PROPERTY
@given(two_worlds())
def test_maps_on_two_scales_meet_on_ints(worlds):
    """Condition 2, coercion, deception and the access profile between
    maps in halves and in thirds read both maps' tables: each is built
    once, and nothing is put on a scale per call."""
    main, copy = worlds
    threat = _record(mechanisms=("threat",), actor_has_right=False, threat_scenario=copy)
    believed = _record(mechanisms=("misrepresentation",), believed_scenario=main)
    with _scaling() as (builds, _, per_call, _rows):
        condition2(main, copy)
        detect_coercion(main, main, threat)
        detect_deception(copy, copy, believed)
        access_profile(main)
        access_profile(copy)
    assert len(builds) == 4 and all(n == 1 for n in builds.values())
    assert per_call == Counter()


def test_callable_is_applied_once_per_vector():
    calls = Counter()

    def counted(fv):
        calls[fv.id] += 1
        return fv.values

    catalog = tuple(FunctioningVector(f"b{i}", (F(i, 2), F(3 - i, 3))) for i in range(6))
    copies = tuple(FunctioningVector(f"c{i}", fv.values) for i, fv in enumerate(catalog))
    assert len(maximal_set(catalog + copies, counted)) == 6
    assert calls == Counter(fv.id for fv in catalog)
    calls.clear()
    assert [fv.id for fv in meeting(catalog, counted, (F(1), F(0)))] == ["b2", "b3"]
    assert calls == Counter(fv.id for fv in catalog)
