"""Seeded random generators shared by the property and acceptance suites.

Everything takes an explicit ``random.Random`` so that every test run is
reproducible from its seed.  Generated scenarios are deliberately small
(a handful of dimensions, at most a dozen or so vectors) but exercise the
awkward corners: duplicate vector values, guarded utilization patterns that
fail, resources nothing converts, thresholds nothing satisfies, and
transient valuations that disagree with the considered one.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from operator import attrgetter

from capkit.judgments.records import InteractionDeltas
from capkit.model.frontier import maximal_set
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

# Small exact rationals, including negatives and non-integers, so dominance
# comparisons hit every branch and nothing accidentally relies on ints.
RATIONAL_POOL: tuple[Fraction, ...] = tuple(
    sorted(
        {
            Fraction(p, q)
            for q in (1, 2, 3)
            for p in range(-2 * q, 3 * q + 1)
        }
    )
)

# Thresholds come from a middle band so that real freedom is neither almost
# always empty nor almost always everything.
THRESHOLD_POOL: tuple[Fraction, ...] = (
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(3, 2),
    Fraction(2),
)

LEVEL_POOL: tuple[Fraction, ...] = (Fraction(0), Fraction(1), Fraction(2))


def decimal_json(obj) -> str:
    """``json.dumps(obj)`` with every JSON integer written as the decimal
    ``n.0``, except ``format_version``, which must stay the integer 1."""

    def mark(value):
        if type(value) is int:
            return f"\0{value}.0\0"
        if isinstance(value, dict):
            return {
                k: v if k == "format_version" else mark(v) for k, v in value.items()
            }
        if isinstance(value, list):
            return [mark(v) for v in value]
        return value

    return re.sub(r'"\\u0000(-?\d+\.0)\\u0000"', r"\1", json.dumps(mark(obj)))


def rational(rng: random.Random) -> Fraction:
    return rng.choice(RATIONAL_POOL)


def vector(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(rng.choice(RATIONAL_POOL) for _ in range(n))


def functioning_vectors(
    rng: random.Random, count: int, n_dims: int, prefix: str = "b"
) -> tuple[FunctioningVector, ...]:
    """Distinct-id vectors; some deliberately share values to exercise dedup."""
    out: list[FunctioningVector] = []
    for i in range(count):
        if out and rng.random() < 0.15:
            values = rng.choice(out).values
        else:
            values = vector(rng, n_dims)
        out.append(FunctioningVector(id=f"{prefix}{i:03d}", values=values))
    return tuple(out)


def table_map(
    rng: random.Random,
    map_id: str,
    functionings,
    n_out: int,
) -> ValuationMap:
    """A total table map assigning equal images to equal-valued vectors."""
    by_value: dict[tuple, tuple] = {}
    entries: dict[str, tuple] = {}
    for fv in functionings:
        img = by_value.get(fv.values)
        if img is None:
            img = vector(rng, n_out)
            by_value[fv.values] = img
        entries[fv.id] = img
    return ValuationMap(map_id=map_id, form="table", entries=entries)


def tabulate(vectors, image=attrgetter("values"), map_id: str = "v") -> ValuationMap:
    """The table map that gives each vector of ``vectors`` the image
    ``image(fv)``, by default its own values."""
    return ValuationMap(map_id=map_id, form="table", entries={fv.id: image(fv) for fv in vectors})


def side(vectors, w: ValuationMap) -> tuple:
    """One side of an improvement judgment: a set, its frontier under w, and w."""
    return vectors, maximal_set(vectors, w), w


# Matrix entries of linear maps: small, signed, and sometimes fractional,
# so images tie, cross thresholds, and are not always integers.
MATRIX_POOL: tuple[Fraction, ...] = (
    Fraction(-1),
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
)


def linear_map(
    rng: random.Random, map_id: str, n_in: int, n_out: int
) -> ValuationMap:
    """A linear map: an n_out × n_in matrix applied to the B-vector."""
    matrix = tuple(
        tuple(rng.choice(MATRIX_POOL) for _ in range(n_in)) for _ in range(n_out)
    )
    return ValuationMap(map_id=map_id, form="linear", matrix=matrix)


def _valuation_map(
    rng: random.Random, map_id: str, functionings, n_b: int, n_out: int, linear: bool
) -> ValuationMap:
    """A table map, or with ``linear`` a coin flip between table and linear.

    Without ``linear`` no extra random draw is made, so seeded scenarios stay
    what they were before linear maps existed.
    """
    if linear and rng.random() < 0.5:
        return linear_map(rng, map_id, n_b, n_out)
    return table_map(rng, map_id, functionings, n_out)


def _extend_table_map(
    rng: random.Random,
    base_map: ValuationMap,
    old_functionings,
    kept_functionings,
    new_functionings,
    n_out: int,
) -> ValuationMap:
    """A table map over the kept and new vectors, preserving image
    consistency: the entries of dropped vectors are cut, as a document's
    table must be total over its catalog and nothing more.

    A linear map already covers every vector of its width and is kept.
    """
    if base_map.form == "linear":
        return base_map
    by_value = {fv.values: base_map.entries[fv.id] for fv in old_functionings}
    entries = {fv.id: base_map.entries[fv.id] for fv in kept_functionings}
    for fv in new_functionings:
        img = by_value.get(fv.values)
        if img is None:
            img = vector(rng, n_out)
            by_value[fv.values] = img
        entries[fv.id] = img
    return ValuationMap(map_id=base_map.map_id, form="table", entries=entries)


def _utilization_for(
    rng: random.Random,
    functionings,
    resources,
    start_index: int = 0,
    coverage: float = 0.9,
) -> list[UtilizationEntry]:
    entries = []
    i = start_index
    for fv in functionings:
        if rng.random() >= coverage:
            continue
        guards: tuple[Guard, ...] = ()
        if rng.random() < 0.3:
            context = rng.choice(("characteristics", "social"))
            component = "skill" if context == "characteristics" else "support"
            guards = (
                Guard(
                    context=context,
                    component=component,
                    min=rng.choice(LEVEL_POOL),
                ),
            )
        entries.append(
            UtilizationEntry(
                pattern_id=f"f{i:03d}",
                resource_id=rng.choice(resources).id,
                guards=guards,
                output=fv.id,
            )
        )
        i += 1
    return entries


def scenario(
    rng: random.Random,
    *,
    max_b: int = 4,
    max_e: int = 3,
    max_p: int = 3,
    max_vectors: int = 8,
    with_u: bool | None = None,
    linear: bool = False,
) -> Scenario:
    """One random, internally consistent scenario.

    With ``linear`` each valuation map is linear with probability 1/2.
    """
    n_b = rng.randint(1, max_b)
    n_e = rng.randint(1, max_e)
    n_p = rng.randint(1, max_p)
    schemas = {
        "B": DimensionSchema("B", tuple(Dimension(f"being_{k}") for k in range(n_b))),
        "E": DimensionSchema("E", tuple(Dimension(f"entitlement_{k}") for k in range(n_e))),
        "P": DimensionSchema("P", tuple(Dimension(f"plan_{k}") for k in range(n_p))),
    }
    functionings = functioning_vectors(rng, rng.randint(1, max_vectors), n_b)
    resources = tuple(
        ResourceVector(id=f"x{i}", values=vector(rng, 1))
        for i in range(rng.randint(1, 2))
    )
    characteristics = {"skill": rng.choice(LEVEL_POOL)}
    social = {"support": rng.choice(LEVEL_POOL)}
    utilization = tuple(_utilization_for(rng, functionings, resources))
    maps = {
        "v": _valuation_map(rng, "v", functionings, n_b, n_p, linear),
        "r": _valuation_map(rng, "r", functionings, n_b, n_e, linear),
    }
    use_u = (rng.random() < 0.4) if with_u is None else with_u
    if use_u:
        n_u = rng.randint(1, 3)
        schemas["U"] = DimensionSchema(
            "U", tuple(Dimension(f"transient_{k}") for k in range(n_u))
        )
        maps["u"] = _valuation_map(rng, "u", functionings, n_b, n_u, linear)
    theta = ThresholdVector(tuple(rng.choice(THRESHOLD_POOL) for _ in range(n_e)))
    theta_p = None
    if rng.random() < 0.3:
        theta_p = ThresholdVector(
            tuple(rng.choice(THRESHOLD_POOL) for _ in range(n_p))
        )
    return Scenario(
        agent_id="agent",
        schemas=schemas,
        resource_schema=(Dimension("goods"),),
        resources=resources,
        characteristics=characteristics,
        social=social,
        functionings=functionings,
        utilization=utilization,
        maps=maps,
        theta=theta,
        theta_p=theta_p,
    )


def successor(rng: random.Random, base: Scenario) -> Scenario:
    """A mutated after-scenario sharing the base's schemas and thresholds.

    Mutations cover every delta an interaction can make -- vector gain/loss
    via utilization churn, resource churn, and context shifts -- plus
    catalog growth, which traces cannot produce but the raw improvement
    formulas must still handle.  With some probability the base is returned
    unchanged, so differential tests see the no-change diagonal often.
    Table maps are extended over the new vectors and cut to the catalog;
    linear maps carry over.
    """
    if rng.random() < 0.15:
        return base

    n_b = len(base.schemas["B"])
    kept = tuple(fv for fv in base.functionings if rng.random() < 0.85)
    new: list[FunctioningVector] = []
    for i in range(rng.randint(0, 3)):
        if base.functionings and rng.random() < 0.2:
            values = rng.choice(base.functionings).values
        else:
            values = vector(rng, n_b)
        new.append(FunctioningVector(id=f"n{i:03d}", values=values))
    functionings = kept + tuple(new)

    resources = list(base.resources)
    if len(resources) > 1 and rng.random() < 0.2:
        resources.pop(rng.randrange(len(resources)))
    if rng.random() < 0.3:
        resources.append(ResourceVector(id="x_extra", values=vector(rng, 1)))
    resources = tuple(resources)

    characteristics = dict(base.characteristics)
    if rng.random() < 0.3:
        characteristics["skill"] = characteristics["skill"] + rng.choice(
            (Fraction(-1), Fraction(1))
        )
    social = dict(base.social)
    if rng.random() < 0.3:
        social["support"] = social["support"] + rng.choice(
            (Fraction(-1), Fraction(1))
        )

    surviving = {res.id for res in resources}
    utilization = [
        entry
        for entry in base.utilization
        if entry.output in {fv.id for fv in kept} and entry.resource_id in surviving
        and rng.random() < 0.9
    ]
    utilization.extend(
        _utilization_for(rng, new, resources, start_index=500)
    )

    maps = {
        "v": _extend_table_map(
            rng, base.maps["v"], base.functionings, kept, new, len(base.schemas["P"])
        ),
        "r": _extend_table_map(
            rng, base.maps["r"], base.functionings, kept, new, len(base.schemas["E"])
        ),
    }
    if "u" in base.maps:
        maps["u"] = _extend_table_map(
            rng, base.maps["u"], base.functionings, kept, new, len(base.schemas["U"])
        )

    return Scenario(
        agent_id=base.agent_id,
        schemas=base.schemas,
        resource_schema=base.resource_schema,
        resources=resources,
        characteristics=characteristics,
        social=social,
        functionings=functionings,
        utilization=tuple(utilization),
        maps=maps,
        theta=base.theta,
        theta_p=base.theta_p,
    )


OFFSET_POOL: tuple[Fraction, ...] = (
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
)


def _live_outputs(s: Scenario) -> dict[str, list[str]]:
    """Catalog id -> pattern ids that yield it live in s, by direct loop."""
    present = {res.id for res in s.resources}
    ctx = {"characteristics": s.characteristics, "social": s.social}
    out: dict[str, list[str]] = {}
    for entry in s.utilization:
        if entry.resource_id in present and all(
            ctx[g.context][g.component] >= g.min for g in entry.guards
        ):
            out.setdefault(entry.output, []).append(entry.pattern_id)
    return out


def deltas(rng: random.Random, s: Scenario) -> InteractionDeltas:
    """A random delta that applies to ``s``.

    It may remove patterns and resources, add resources (a removed id may
    come back), shift each context component by an offset from
    ``OFFSET_POOL`` (zero included), and add patterns, some guarded, under
    new or just-removed ids.  With some probability it also adds a pattern
    for a catalog id equal in value to, and smaller than, a live option's
    id, and removes every live producer of a v-maximal value.
    """
    live = _live_outputs(s)
    present = [res.id for res in s.resources]
    patterns = [entry.pattern_id for entry in s.utilization]
    removed_patterns = {pid for pid in patterns if rng.random() < 0.2}
    if live and rng.random() < 0.3:
        # The live option whose v-image has the largest sum is v-maximal.
        top = max(sorted(live), key=lambda fid: sum(s.v.apply(s.functioning(fid))))
        for fid, pids in live.items():
            if s.functioning(fid).values == s.functioning(top).values:
                removed_patterns.update(pids)

    removed_resources = [rid for rid in present if rng.random() < 0.15]
    surviving = [rid for rid in present if rid not in removed_resources]
    added_resources = []
    for k in range(rng.choice((0, 0, 1, 2))):
        rid = rng.choice(removed_resources) if removed_resources and k == 0 else f"xd{k}"
        if rid not in surviving:
            added_resources.append(
                ResourceVector(id=rid, values=vector(rng, len(s.resource_schema)))
            )
            surviving.append(rid)

    characteristics = {
        name: rng.choice(OFFSET_POOL) for name in s.characteristics if rng.random() < 0.4
    }
    social = {name: rng.choice(OFFSET_POOL) for name in s.social if rng.random() < 0.4}

    outputs = [rng.choice(s.functionings).id for _ in range(rng.randint(0, 3))]
    if live and rng.random() < 0.4:
        for fid in sorted(live):
            twins = [
                fv.id
                for fv in s.functionings
                if fv.values == s.functioning(fid).values and fv.id < fid
            ]
            if twins:
                outputs.append(twins[0])
                break
    taken = {pid for pid in patterns if pid not in removed_patterns}
    added_patterns = []
    for k, fid in enumerate(outputs):
        reused = sorted(removed_patterns - taken)
        pid = reused[0] if reused and rng.random() < 0.3 else f"gd{k}"
        if pid in taken or not surviving:
            continue
        guards: tuple[Guard, ...] = ()
        if rng.random() < 0.4:
            context = rng.choice(("characteristics", "social"))
            names = sorted(s.characteristics if context == "characteristics" else s.social)
            guards = (Guard(context, rng.choice(names), rng.choice(LEVEL_POOL)),)
        added_patterns.append(
            UtilizationEntry(pid, rng.choice(surviving), guards, fid)
        )
        taken.add(pid)

    return InteractionDeltas(
        resources_added=tuple(added_resources),
        resources_removed=tuple(removed_resources),
        characteristics_delta=characteristics,
        social_delta=social,
        utilization_added=tuple(added_patterns),
        utilization_removed=tuple(sorted(removed_patterns)),
    )
