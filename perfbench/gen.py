"""Seeded input generator for the capkit benchmark.

Documents are written with the stdlib ``json`` module, following
``docs/format.md``, and never with ``capkit.serialize_document``: a change
to capkit cannot change its own inputs.  Everything is drawn from a
``random.Random`` seeded with a string, so the same (kind, seed, index)
always gives the same bytes.

Two document kinds:

``judge``   one scenario plus four records, each built to fire one
            mechanism: a threat (coercion, and exploitation through it),
            a misrepresentation (deception), a restricting
            ``benefit_target`` record with a promoted outcome and a believed
            scenario (unjustified paternalism), and an additive offer
            (beneficence and assistance).
``detect``  one scenario plus two traces of eight chained steps that cycle
            through the same four record kinds.  Every record carries its
            own threat or believed scenario, and each step's choice is a
            low-valued option the actor desired, so domination fires.

The mechanisms are guaranteed by a few designated catalog entries whose
values lie outside the random pools:

* ``b_top*``  reachable only through resource ``x1``, each best in one
  P-dimension; the threat world keeps only ``x0``, so they are threatened.
* ``b_gift*`` unreachable until an offer adds a resource that yields one;
  its images dominate every other option of the true world.
* ``b_fab*``  exists only in believed worlds, where it dominates every
  option, so believed and true maximal sets are disjoint.
* ``b_anchor*`` always reachable, never maximal: the traces' choices.
* ``b_res*``  always reachable with a unique value: removing their
  patterns strictly restricts the freedom set.

Catalog entries that no pattern reaches are flagged ``"unreachable"`` in
every scenario, counterfactual ones included, so parsing draws no warnings.

Run ``python3 perfbench/gen.py --kind judge --seed 1 --catalog 200 OUT`` to
write one document.
"""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction

# B-space values lie in [-1, 3], images in [-2, 3]; thirds and halves make
# the exact-rational arithmetic non-trivial and keep duplicates common.
B_POOL = tuple(sorted({Fraction(p, q) for q in (1, 2, 3) for p in range(-q, 3 * q + 1)}))
IMAGE_POOL = tuple(
    sorted({Fraction(p, q) for q in (1, 2, 3) for p in range(-2 * q, 3 * q + 1)})
)
GUARD_MINS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))

DIMS = {"B": 4, "E": 3, "P": 3, "U": 2}
RESOURCES = ("x0", "x1", "x2", "x3")
AGENT = "agent"
THETA = (Fraction(0), Fraction(1, 2), Fraction(0))
THETA_P = (Fraction(1), Fraction(1), Fraction(1))
CHARACTERISTICS = {"skill": Fraction(1), "stamina": Fraction(1)}
SOCIAL = {"support": Fraction(1), "access": Fraction(1)}

COVERAGE = 0.9  # share of random entries some pattern reaches
GUARDED = 0.3  # share of patterns with a guard
COPIED = 0.1  # share of random entries that copy an earlier entry's values
RESTRICT_PER_RECORD = 5

KINDS = ("threat", "misrep", "restrict", "offer")


def rat(x: Fraction):
    """Wire form of an exact rational: a JSON int, or a "p/q" string."""
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def vec(values) -> list:
    return [rat(Fraction(x)) for x in values]


class World:
    """One agent's catalog, maps, resources and patterns, as plain data."""

    def __init__(self, rng: random.Random, catalog: int, n_gifts: int, n_anchors: int,
                 n_restrict: int):
        self.values: dict[str, tuple] = {}
        self.images: dict[str, dict[str, tuple]] = {"v": {}, "r": {}, "u": {}}
        self.patterns: list[dict] = []
        by_value: dict[tuple, dict[str, tuple]] = {}
        ids = [f"b{i:05d}" for i in range(catalog)]
        for fid in ids:
            if self.values and rng.random() < COPIED:
                values = self.values[rng.choice(list(self.values))]
            else:
                values = tuple(rng.choice(B_POOL) for _ in range(DIMS["B"]))
            self.values[fid] = values
            images = by_value.get(values)
            if images is None:
                images = {
                    m: tuple(rng.choice(IMAGE_POOL) for _ in range(DIMS[space]))
                    for m, space in (("v", "P"), ("r", "E"), ("u", "U"))
                }
                by_value[values] = images
            for m, img in images.items():
                self.images[m][fid] = img
            if rng.random() < COVERAGE:
                guards = []
                if rng.random() < GUARDED:
                    context = rng.choice(("characteristics", "social"))
                    names = CHARACTERISTICS if context == "characteristics" else SOCIAL
                    guards.append(
                        {"context": context, "component": rng.choice(sorted(names)),
                         "min": rng.choice(GUARD_MINS)}
                    )
                self.patterns.append(
                    {"pattern_id": "f" + fid[1:], "resource_id": rng.choice(RESOURCES),
                     "guards": guards, "output": fid}
                )
        self.random_patterns = [p["pattern_id"] for p in self.patterns]

        for k in range(3):
            v = [Fraction(-2)] * 3
            v[k] = Fraction(4)
            self.special(f"b_top{k}", (4, 4, 4, k), v, (1, 1, 1), (0, 0), "x1")
        self.gifts = [f"b_gift{k}" for k in range(n_gifts)]
        for k, fid in enumerate(self.gifts):
            self.special(fid, (5, 5, 5, k), (5, 5, 5), (5, 5, 5), (5, 5), None)
        self.anchors = [f"b_anchor{k:02d}" for k in range(n_anchors)]
        for k, fid in enumerate(self.anchors):
            self.special(fid, (-2, -2, -2, k), (-2, -2, -2), (-2, -2, -2), (-2, -2), "x0")
        self.restrictable = [f"b_res{k:02d}" for k in range(n_restrict)]
        for k, fid in enumerate(self.restrictable):
            img = {m: tuple(rng.choice(IMAGE_POOL) for _ in range(n)) for m, n in
                   (("v", 3), ("r", 3), ("u", 2))}
            self.special(fid, (Fraction(7, 2), Fraction(7, 2), k, 0), img["v"], img["r"],
                         img["u"], "x0")

    def special(self, fid, values, v, r, u, resource):
        self.values[fid] = tuple(Fraction(x) for x in values)
        for m, img in (("v", v), ("r", r), ("u", u)):
            self.images[m][fid] = tuple(Fraction(x) for x in img)
        if resource is not None:
            self.patterns.append(
                {"pattern_id": "f" + fid[1:], "resource_id": resource, "guards": [],
                 "output": fid}
            )

    def scenario(self, *, resources=RESOURCES, fabricated=0) -> dict:
        """A scenario object over this catalog.

        ``fabricated`` adds that many ``b_fab*`` options, reachable through
        ``x0`` and dominating everything: options only a believed world has.
        """
        values = dict(self.values)
        images = {m: dict(e) for m, e in self.images.items()}
        patterns = [p for p in self.patterns if p["resource_id"] in resources]
        for k in range(fabricated):
            fid = f"b_fab{k}"
            values[fid] = (6, 6, 6, k)
            for m, n in (("v", 3), ("r", 3), ("u", 2)):
                images[m][fid] = (6,) * n
            patterns.append(
                {"pattern_id": f"f_fab{k}", "resource_id": "x0", "guards": [], "output": fid}
            )
        reached = {p["output"] for p in patterns}
        functionings = []
        for fid, val in values.items():
            item = {"id": fid, "values": vec(val)}
            if fid not in reached:
                item["unreachable"] = True
            functionings.append(item)
        return {
            "agent_id": AGENT,
            "schemas": {s: [{"name": f"{s.lower()}{k}"} for k in range(n)]
                        for s, n in DIMS.items()},
            "resource_schema": [{"name": "goods"}],
            "resources": [{"id": rid, "values": [1]} for rid in resources],
            "characteristics": {k: rat(x) for k, x in CHARACTERISTICS.items()},
            "social": {k: rat(x) for k, x in SOCIAL.items()},
            "functionings": functionings,
            "utilization": [
                {"pattern_id": p["pattern_id"], "resource_id": p["resource_id"],
                 "guards": [dict(g, min=rat(g["min"])) for g in p["guards"]],
                 "output": p["output"]}
                for p in patterns
            ],
            "maps": {m: {"form": "table", "entries": {fid: vec(img) for fid, img in e.items()}}
                     for m, e in images.items()},
            "theta": vec(THETA),
            "theta_p": vec(THETA_P),
        }


def record(world: World, kind: str, rec_id: str, rng: random.Random, removable: list,
           gift: str, restrict: list, n_removed: int) -> dict:
    """One interaction record of the given kind.

    ``removable`` is consumed: the patterns a record removes are popped from
    it, so records chained in one trace never remove the same pattern.
    """
    removed = [removable.pop() for _ in range(min(n_removed, len(removable)))]
    base = {"id": rec_id, "actor_id": "actor", "target": AGENT,
            "communication_feasible": True, "proportionality_ok": True}
    if kind == "threat":
        return dict(
            base, intent="benefit_actor", mechanisms=["threat"], actor_has_right=False,
            deltas={"utilization_removed": removed,
                    "characteristics_delta": {"stamina": "-1/2"}},
            threat_scenario=world.scenario(resources=("x0",)),
        )
    if kind == "misrep":
        return dict(
            base, intent="mixed", mechanisms=["misrepresentation"], actor_has_right=True,
            deltas={"utilization_removed": removed, "social_delta": {"access": "1/2"}},
            believed_scenario=world.scenario(fabricated=2),
        )
    if kind == "restrict":
        promoted = world.anchors[rng.randrange(len(world.anchors))]
        return dict(
            base, intent="benefit_target", mechanisms=["persuasion"], actor_has_right=True,
            promoted_outcome=promoted,
            deltas={"utilization_removed": removed + ["f" + fid[1:] for fid in restrict]},
            believed_scenario=world.scenario(fabricated=1),
        )
    resource = "x_" + rec_id
    return dict(
        base, intent="benefit_target", mechanisms=["offer", "resource_transfer"],
        actor_has_right=True,
        deltas={"resources_added": [{"id": resource, "values": [1]}],
                "utilization_added": [{"pattern_id": "f_" + rec_id,
                                       "resource_id": resource, "output": gift}]},
        believed_scenario=world.scenario(),
    )


def judge_document(seed: int, index: int, catalog: int) -> dict:
    rng = random.Random(f"judge:{seed}:{index}")
    world = World(rng, catalog, n_gifts=1, n_anchors=4, n_restrict=RESTRICT_PER_RECORD)
    removable = list(world.random_patterns)
    rng.shuffle(removable)
    share = {"threat": 0.05, "misrep": 0.02, "restrict": 0.10, "offer": 0.0}
    records = [
        record(world, kind, f"i{k}_{kind}", rng, removable, world.gifts[0],
               world.restrictable, int(share[kind] * catalog))
        for k, kind in enumerate(KINDS)
    ]
    return {"format_version": 1, "scenario": world.scenario(), "interactions": records}


TRACES = 2
STEPS = 8


def detect_document(seed: int, index: int, catalog: int) -> dict:
    rng = random.Random(f"detect:{seed}:{index}")
    cycles = STEPS // len(KINDS)
    world = World(rng, catalog, n_gifts=TRACES * cycles,
                  n_anchors=TRACES * STEPS,
                  n_restrict=TRACES * cycles * RESTRICT_PER_RECORD)
    share = {"threat": 0.03, "misrep": 0.01, "restrict": 0.03, "offer": 0.0}
    records, traces = [], []
    for t in range(TRACES):
        removable = list(world.random_patterns)
        rng.shuffle(removable)
        steps = []
        for k in range(STEPS):
            kind = KINDS[k % len(KINDS)]
            cycle = t * cycles + k // len(KINDS)
            restrict = world.restrictable[cycle * RESTRICT_PER_RECORD:
                                          (cycle + 1) * RESTRICT_PER_RECORD]
            rec_id = f"t{t}s{k}_{kind}"
            records.append(record(world, kind, rec_id, rng, removable, world.gifts[cycle],
                                  restrict, int(share[kind] * catalog)))
            anchor = world.anchors[t * STEPS + k]
            steps.append({"interaction": rec_id, "target_choice": anchor,
                          "actor_desired": anchor})
        traces.append({"id": f"trace{t}", "steps": steps})
    return {"format_version": 1, "scenario": world.scenario(), "interactions": records,
            "traces": traces}


DOCUMENT_KINDS = {"judge": judge_document, "detect": detect_document}


def document_bytes(kind: str, seed: int, index: int, catalog: int) -> bytes:
    doc = DOCUMENT_KINDS[kind](seed, index, catalog)
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=sorted(DOCUMENT_KINDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--catalog", type=int, required=True)
    parser.add_argument("out")
    args = parser.parse_args(argv)
    with open(args.out, "wb") as fh:
        fh.write(document_bytes(args.kind, args.seed, args.index, args.catalog))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
