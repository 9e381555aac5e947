"""After-worlds that derive Q and M from their before-world.

Differential: along seeded chains of generated deltas, every derived set of
every world equals the oracle's, whichever sets were asked for first.
Counters: a chain walks its patterns from scratch only where no
before-world table exists, and long chains never recurse.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import weakref
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import genlib
import oracle
from capkit import cli
from capkit.judgments import improvement, records
from capkit.judgments.records import (
    InteractionDeltas,
    InteractionRecord,
    Trace,
    TraceStep,
    apply_interaction,
    materialize_trace,
)
from capkit.judgments.verdict import judge
from capkit.model import freedom
from capkit.model.types import ResourceVector, UtilizationEntry
from capkit.scenario_io import ScenarioDocument, deep_validate, parse_document

FIXTURES = Path(__file__).parent / "fixtures"


def _record(deltas: InteractionDeltas, rec_id: str = "i") -> InteractionRecord:
    return InteractionRecord(
        id=rec_id,
        actor_id="actor",
        target="agent",
        deltas=deltas,
        intent="unknown",
        mechanisms=("offer",),
        actor_has_right=True,
        communication_feasible=True,
        proportionality_ok=True,
    )


def _ids(vectors) -> list[str]:
    return sorted(fv.id for fv in vectors)


def _profile(profile) -> tuple:
    return [(e.max_value, e.satisfied) for e in profile.entries], profile.jointly_satisfiable


ENGINE = {
    "Q": lambda s: _ids(freedom.compute_freedom(s)),
    "values": lambda s: set(freedom.freedom_values(s)),
    "M": lambda s: _ids(freedom.maximal_plans(s)),
    "Q*": lambda s: _ids(freedom.compute_real_freedom(s)),
    "M under u": lambda s: _ids(freedom.maximal_transient(s)),
    "M(Q*) under r": lambda s: _ids(freedom.maximal_real_freedom(s)),
    "access profile": lambda s: _profile(freedom.access_profile(s)),
}


def _oracle(s) -> dict:
    q, q_star = oracle.freedom(s), oracle.real_freedom(s)
    theta = s.theta.values
    tops = [
        max((oracle._image(s, "r", fv)[k] for fv in q), default=None)
        for k in range(len(theta))
    ]
    return {
        "Q": _ids(q),
        "values": {fv.value_key for fv in q},
        "M": _ids(oracle.naive_maximal_set(q, s.v)),
        "Q*": _ids(q_star),
        "M under u": _ids(oracle.naive_maximal_set(q, s.u)),
        "M(Q*) under r": _ids(oracle.naive_maximal_set(q_star, s.r)),
        "access profile": (
            [(top, top is not None and top >= t) for top, t in zip(tops, theta)],
            bool(q_star),
        ),
    }


def _chain(seed: int, steps: int = 6) -> list:
    """A generated base world and the worlds its deltas chain to.

    Each world is asked for a random prefix of its sets as soon as it is
    made, so its successor finds some, all or none of them cached."""
    rng = random.Random(seed)
    world = genlib.scenario(rng, max_vectors=12, linear=rng.random() < 0.3)
    worlds = [world]
    for k in range(steps):
        names = list(ENGINE)
        rng.shuffle(names)
        for name in names[: rng.randrange(len(names) + 1)]:
            ENGINE[name](world)
        world = apply_interaction(world, _record(genlib.deltas(rng, world), f"i{k}"))
        worlds.append(world)
    return worlds


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_derived_sets_equal_the_oracle_at_every_step(seed):
    for index, world in enumerate(_chain(seed)):
        assert {name: fn(world) for name, fn in ENGINE.items()} == _oracle(world), index


def test_chains_reach_every_derivation_case():
    """The generated chains remove maximal values, add equal values under
    smaller ids, add and remove values, and leave Q alone."""
    seen = set()
    for seed in range(120):
        worlds = _chain(seed)
        for before, after in zip(worlds, worlds[1:]):
            q_before = {fv.values: fv.id for fv in oracle.freedom(before)}
            q_after = {fv.values: fv.id for fv in oracle.freedom(after)}
            m_before = oracle.naive_maximal_set(oracle.freedom(before), before.v)
            if any(fv.values not in q_after for fv in m_before):
                seen.add("maximal value removed")
            if any(q_after.get(values, fid) < fid for values, fid in q_before.items()):
                seen.add("smaller id for a value")
            if q_after.keys() - q_before.keys():
                seen.add("value added")
            if q_before.keys() - q_after.keys():
                seen.add("value removed")
            if q_before == q_after:
                seen.add("Q unchanged")
    assert seen == {
        "maximal value removed",
        "smaller id for a value",
        "value added",
        "value removed",
        "Q unchanged",
    }


def test_an_added_resource_revives_the_patterns_that_named_it():
    """A hand-built world may hold patterns on a resource it lacks; a delta
    that adds the resource, or removes and adds one back, is exact too."""
    rng = random.Random(5)
    base, unreached = None, []
    while not unreached:
        base = genlib.scenario(rng, max_vectors=12)
        reached = {fv.values for fv in oracle.freedom(base)}
        unreached = [fv.id for fv in base.functionings if fv.values not in reached]
    held = base.resources[0].id
    spare = UtilizationEntry("f_spare", "x_spare", (), unreached[0])
    base = replace(base, utilization=base.utilization + (spare,))
    for deltas in (
        InteractionDeltas(resources_added=(ResourceVector("x_spare", (Fraction(1),)),)),
        InteractionDeltas(
            resources_removed=(held,), resources_added=(ResourceVector(held, (Fraction(2),)),)
        ),
    ):
        freedom.maximal_plans(base)
        after = apply_interaction(base, _record(deltas))
        assert {name: fn(after) for name, fn in ENGINE.items()} == _oracle(after)


def test_freedom_finds_what_a_hand_built_delta_rechecks(monkeypatch):
    """An after-world made by ``replace``, with one context component
    shifted and one resource added, and noted with no dropped or added
    pattern: freedom finds the kept patterns to re-check from the two worlds
    alone, and derives Q, M and M under u equal to the oracle's."""
    rng = random.Random(13)
    while True:
        base = genlib.scenario(rng, max_vectors=12)
        reached = {fv.values for fv in oracle.freedom(base)}
        unreached = [fv for fv in base.functionings if fv.values not in reached]
        guards = [g for entry in base.utilization for g in entry.guards]
        if unreached and guards:
            g = guards[0]
            shifted = {g.context: {**getattr(base, g.context), g.component: Fraction(-10)}}
            if {fv.values for fv in oracle.freedom(replace(base, **shifted))} != reached:
                break
    spare = UtilizationEntry("f_spare", "x_spare", (), unreached[0].id)
    before = replace(base, utilization=base.utilization + (spare,))
    added = ResourceVector("x_spare", (Fraction(1),) * len(base.resource_schema))
    after = replace(before, resources=before.resources + (added,), **shifted)
    names = ("Q", "M", "M under u")
    for name in names:
        ENGINE[name](before)
    walks = _walks(monkeypatch)
    freedom.note_delta(after, before, (), ())
    assert {name: ENGINE[name](after) for name in names} == {
        name: _oracle(after)[name] for name in names
    }
    assert walks == []
    q_after = {fv.values for fv in oracle.freedom(after)}
    assert unreached[0].values in q_after and not reached <= q_after


def test_worlds_share_the_catalog_index_of_their_catalog():
    rng = random.Random(8)
    base = genlib.scenario(rng, max_vectors=12)
    after = apply_interaction(base, _record(genlib.deltas(rng, base)))
    assert after._fv_by_id is base._fv_by_id
    fewer = replace(base, functionings=base.functionings[1:])
    assert dict(fewer._fv_by_id) == {fv.id: fv for fv in base.functionings[1:]}


def _walks(monkeypatch) -> list:
    walks = []
    original = freedom.walk_producers
    monkeypatch.setattr(freedom, "walk_producers", lambda s: walks.append(1) or original(s))
    return walks


def test_a_chain_walks_its_patterns_from_scratch_at_most_twice(monkeypatch):
    rng = random.Random(60)
    base = genlib.scenario(rng, max_vectors=12)
    assert oracle.freedom(base)
    records, steps, world = {}, [], base
    for k in range(60):
        deltas = genlib.deltas(rng, world)
        after = apply_interaction(world, _record(deltas))
        if not oracle.freedom(after):
            deltas = InteractionDeltas()
            after = apply_interaction(world, _record(deltas))
        choice = rng.choice(oracle.freedom(after)).id
        records[f"i{k}"] = _record(deltas, f"i{k}")
        steps.append(TraceStep(f"i{k}", choice, choice))
        world = after
    walks = _walks(monkeypatch)
    chained = materialize_trace(base, records, Trace("t", tuple(steps)))
    assert len(chained) == 60
    assert len(walks) <= 2
    for step in chained:
        assert _ids(freedom.maximal_plans(step.after)) == _ids(
            oracle.naive_maximal_set(oracle.freedom(step.after), step.after.v)
        )
    assert len(walks) <= 2


def test_zero_offset_steps_share_the_before_world_sets(monkeypatch):
    rng = random.Random(3)
    worlds = [genlib.scenario(rng, max_vectors=12)]
    name = next(iter(worlds[0].characteristics))
    record = _record(InteractionDeltas(characteristics_delta={name: Fraction(0)}))
    q, m = freedom.compute_freedom(worlds[0]), freedom.maximal_plans(worlds[0])
    walks = _walks(monkeypatch)
    for _ in range(5):
        worlds.append(apply_interaction(worlds[-1], record))
        assert freedom.compute_freedom(worlds[-1]) is q
        assert freedom.maximal_plans(worlds[-1]) is m
    assert walks == []


def test_judging_a_delta_that_changes_nothing_scans_no_set_against_itself(monkeypatch):
    """Condition 2 and the benefit readings compare an after-world's sets
    with the before-world's; shared sets are answered without a scan."""
    doc = parse_document((FIXTURES / "grocery.scn").read_text())[0]
    name = next(iter(doc.scenario.characteristics))
    record = _record(InteractionDeltas(characteristics_delta={name: Fraction(0)}))
    before = doc.scenario
    after = apply_interaction(before, record)
    for fn in ENGINE.values():
        fn(before)
    scans = []
    original = improvement.covered
    monkeypatch.setattr(improvement, "covered", lambda *a: scans.append(1) or original(*a))
    verdict = judge(before, after, record)
    assert scans == []
    assert verdict.condition2.status == "pass"
    assert not any(vars(verdict.beneficence).values())


def test_a_stream_that_drops_each_before_world_walks_once(monkeypatch):
    """An after-world holds its before-world until its table is derived,
    and only weakly after that: a chain keeps no earlier world alive."""
    rng = random.Random(11)
    world = genlib.scenario(rng, max_vectors=12)
    walks = _walks(monkeypatch)
    for k in range(30):
        freedom.freedom_values(world)
        before = weakref.ref(world)
        world = apply_interaction(world, _record(genlib.deltas(rng, world)))
        assert before() is not None
        freedom.freedom_values(world)
        assert before() is None, k
        assert ENGINE["Q"](world) == _oracle(world)["Q"], k
        assert ENGINE["M"](world) == _oracle(world)["M"], k
    assert len(walks) == 1


def test_a_thousand_step_zero_offset_chain_validates_and_detects(tmp_path):
    obj = json.loads((FIXTURES / "grocery.scn").read_text())
    name = next(iter(obj["scenario"]["characteristics"]))
    obj["interactions"] = [
        {
            "id": "i_nudge",
            "actor_id": "actor",
            "target": obj["scenario"]["agent_id"],
            "deltas": {"characteristics_delta": {name: "0"}},
            "intent": "unknown",
            "mechanisms": ["persuasion"],
            "actor_has_right": True,
            "communication_feasible": True,
            "proportionality_ok": True,
        }
    ]
    step = {"interaction": "i_nudge", "target_choice": "b_takeout", "actor_desired": "b_takeout"}
    obj["traces"] = [{"id": "t_long", "steps": [step] * 1000}]
    path = tmp_path / "long.json"
    path.write_text(json.dumps(obj))
    for command in ("validate", "detect"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main([command, str(path)]) == 0, command
    assert len(json.loads(out.getvalue())["traces"][0]["steps"]) == 1000


def test_validating_a_long_chain_keeps_two_worlds_alive(monkeypatch):
    """``deep_validate`` drops each step as soon as it is chained: along a
    200-step chain whose steps change Q, at most two after-worlds are alive
    at once."""
    rng = random.Random(60)
    base = genlib.scenario(rng, max_vectors=12)
    assert oracle.freedom(base)
    chain, steps, world, changed = {}, [], base, 0
    for k in range(200):
        q = {fv.values for fv in oracle.freedom(world)}
        for _ in range(20):  # draw a delta that changes Q and leaves a choice
            deltas = genlib.deltas(rng, world)
            after = apply_interaction(world, _record(deltas))
            if q != {fv.values for fv in oracle.freedom(after)} != set():
                changed += 1
                break
        else:
            deltas = InteractionDeltas()
            after = apply_interaction(world, _record(deltas))
        choice = rng.choice(oracle.freedom(after)).id
        chain[f"i{k}"] = _record(deltas, f"i{k}")
        steps.append(TraceStep(f"i{k}", choice, choice))
        world = after
    assert changed >= 190
    worlds, alive = [], []
    original = records.apply_interaction

    def counted(s, rec):
        after = original(s, rec)
        worlds.append(weakref.ref(after))
        alive.append(sum(ref() is not None for ref in worlds))
        return after

    monkeypatch.setattr(records, "apply_interaction", counted)
    doc = ScenarioDocument(1, base, tuple(chain.values()), (Trace("t", tuple(steps)),))
    assert deep_validate(doc) == []
    assert len(alive) == 200
    assert max(alive) <= 2
