"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Every test here is seeded and deterministic.  The property tests draw
their instances from fixed RNG seeds so the printed result is the same on
every run; the timed suites assert their wall-clock budgets directly.
"""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import genlib
import capkit.cli as cli
import oracle
from capkit.judgments.improvement import (
    assistance_life_plans,
    assistance_real_freedom,
    classify_beneficence,
    condition1,
    condition2,
)
from capkit.judgments.records import (
    InteractionDeltas,
    InteractionRecord,
    apply_interaction,
)
from capkit.model.freedom import compute_freedom, compute_real_freedom
from capkit.model.frontier import maximal_set
from capkit.model.order import dominates, strictly_dominates, theta_prefers
from capkit.model.types import FunctioningVector, Guard, ResourceVector, UtilizationEntry
from capkit.scenario_io import ScenarioDocument, parse_document, serialize_document

F = Fraction

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
INVALID = FIXTURES / "invalid"

POOL = sorted({F(p, q) for q in (1, 2, 3) for p in range(-2 * q, 3 * q + 1)})


def _report(line: str) -> None:
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def criterion(num: int, label: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _report(f"criterion {num} ({label}): FAIL")
                raise
            _report(f"criterion {num} ({label}): PASS")

        return wrapper

    return decorate


def run_cli(*argv):
    env = dict(os.environ)
    env["CAPKIT_COLOR"] = "never"
    return subprocess.run(
        [sys.executable, "-m", "capkit", *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
    )


# ---------------------------------------------------------------------------
# 1. partial-order law suite
# ---------------------------------------------------------------------------


@criterion(1, "order laws, 10k+ vectors, <5s")
def test_criterion_1_order_laws():
    rng = random.Random(101)
    started = time.perf_counter()
    total_vectors = 0
    strict_antecedents = 0
    theta_antecedents = 0

    def vec(dim):
        return tuple(rng.choice(POOL) for _ in range(dim))

    def degrade(v):
        # weakly below v by construction, giving non-vacuous chains
        return tuple(x - rng.choice((F(0), F(1, 2), F(1))) for x in v)

    for dim in range(1, 9):
        pool = [vec(dim) for _ in range(1300)]
        total_vectors += len(pool)
        thetas = [vec(dim) for _ in range(3)]

        for v in pool:
            assert dominates(v, v)
            assert not strictly_dominates(v, v)
            for theta in thetas:
                assert not theta_prefers(v, v, theta)

        for _ in range(1500):
            a = rng.choice(pool)
            if rng.random() < 0.5:
                b, c = rng.choice(pool), rng.choice(pool)
            else:
                b = degrade(a)
                c = degrade(b)
            theta = thetas[rng.randrange(3)]

            if dominates(a, b) and dominates(b, a):
                assert a == b  # antisymmetry
            if dominates(a, b) and dominates(b, c):
                assert dominates(a, c)
            if strictly_dominates(a, b):
                strict_antecedents += 1
                assert not strictly_dominates(b, a)
            if strictly_dominates(a, b) and strictly_dominates(b, c):
                assert strictly_dominates(a, c)
            if theta_prefers(a, b, theta) and theta_prefers(b, c, theta):
                theta_antecedents += 1
                assert theta_prefers(a, c, theta)

    elapsed = time.perf_counter() - started
    assert total_vectors >= 10_000
    assert strict_antecedents > 0 and theta_antecedents > 0  # laws were exercised
    assert elapsed < 5.0, f"order-law suite took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. frontier oracle equivalence
# ---------------------------------------------------------------------------


def _frontier_case(rng, n, d):
    vectors, images, seen = [], {}, set()
    for i in range(n):
        while True:
            vals = tuple(rng.choice(POOL) for _ in range(3))
            if vals not in seen:
                seen.add(vals)
                break
        vectors.append(FunctioningVector(id=f"b{i:04d}", values=vals))
        images[vals] = tuple(rng.choice(POOL) for _ in range(d))
    return vectors, genlib.tabulate(vectors, lambda fv: images[fv.values])


@criterion(2, "skyline == naive frontier on 1000 scenarios, <30s")
def test_criterion_2_frontier_equivalence():
    rng = random.Random(202)
    sizes = (
        [1000]
        + [rng.randint(300, 600) for _ in range(4)]
        + [rng.randint(60, 200) for _ in range(45)]
        + [rng.randint(1, 50) for _ in range(950)]
    )
    assert len(sizes) == 1000 and max(sizes) == 1000
    started = time.perf_counter()
    for n in sizes:
        d = rng.randint(1, 6)
        q, w = _frontier_case(rng, n, d)
        assert maximal_set(q, w) == oracle.naive_maximal_set(q, w)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"frontier suite took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 3. quantifier oracle equivalence with enumerated guard disagreements
# ---------------------------------------------------------------------------


def _value_set(vectors):
    return frozenset(fv.values for fv in vectors)


# Table-map seeds first, then seeds whose valuation maps may be linear.
_CRITERION_3_CASES = [(30_000 + i, False) for i in range(1000)] + [
    (33_000 + i, True) for i in range(300)
]


@criterion(3, "engine == oracle except exactly on change-guard cases")
def test_criterion_3_quantifier_differential():
    observed = set()
    expected = set()
    linear_maps = 0
    for index, linear in _CRITERION_3_CASES:
        rng = random.Random(index)
        before = genlib.scenario(rng, linear=linear)
        after = genlib.successor(rng, before)
        linear_maps += any(m.form == "linear" for m in before.maps.values())

        q_eq = _value_set(compute_freedom(before)) == _value_set(
            compute_freedom(after)
        )
        qstar_eq = _value_set(compute_real_freedom(before)) == _value_set(
            compute_real_freedom(after)
        )
        m_eq = _value_set(maximal_set(compute_freedom(before), before.v)) == _value_set(
            maximal_set(compute_freedom(after), after.v)
        )

        flags = classify_beneficence(before, after)
        engine = {
            "condition1": condition1(before, after).status != "violated",
            "condition2": condition2(before, after).status != "violated",
            "benefit_weak": flags.weak,
            "benefit_real_freedom": flags.real_freedom,
            "benefit_life_plans": flags.life_plan,
            "assistance_real_freedom": assistance_real_freedom(before, after),
            "assistance_life_plans": assistance_life_plans(before, after),
        }
        guard_applies = {
            "condition1": False,
            "condition2": False,
            "benefit_weak": q_eq,
            "benefit_real_freedom": qstar_eq,
            "benefit_life_plans": m_eq,
            "assistance_real_freedom": qstar_eq,
            "assistance_life_plans": q_eq,
        }
        for formula in oracle.FORMULA_IDS:
            raw = oracle.eval_formula(formula, before, after)
            if engine[formula] != raw:
                observed.add((index, formula))
            if guard_applies[formula] and raw:
                expected.add((index, formula))

    assert observed == expected
    assert observed, "differential never exercised the change guard"
    assert linear_maps >= 200, "too few scenarios with linear maps"
    # the guard only ever suppresses a raw-true reading, never invents one
    assert {f for _, f in observed} <= {
        "benefit_weak",
        "benefit_real_freedom",
        "benefit_life_plans",
        "assistance_real_freedom",
        "assistance_life_plans",
    }


# ---------------------------------------------------------------------------
# 4. finite maximality
# ---------------------------------------------------------------------------


@criterion(4, "nonempty Q has nonempty M; exclusions strictly dominated")
def test_criterion_4_finite_maximality():
    rng = random.Random(404)
    for _ in range(1000):
        n = rng.randint(1, 30)
        d = rng.randint(1, 4)
        q, w = _frontier_case(rng, n, d)
        m = maximal_set(q, w)
        assert m, "maximal set empty on nonempty freedom set"
        members = set(m)
        for fv in q:
            if fv in members:
                continue
            assert any(
                strictly_dominates(w.apply(keep), w.apply(fv)) for keep in m
            ), f"excluded {fv.id} is not strictly dominated"


# ---------------------------------------------------------------------------
# 5. monotonicity under additive interactions
# ---------------------------------------------------------------------------


def _additive_record(rng, base) -> InteractionRecord:
    kwargs = {}
    resource_ids = [res.id for res in base.resources]
    width = len(base.resources[0].values)
    if rng.random() < 0.7:
        new_resource = ResourceVector(
            id="x_added",
            values=tuple(rng.choice(POOL) for _ in range(width)),
        )
        kwargs["resources_added"] = (new_resource,)
        resource_ids.append(new_resource.id)
    added_patterns = []
    for k in range(rng.randint(0, 2)):
        guards = ()
        if rng.random() < 0.3:
            guards = (
                Guard(
                    context="characteristics",
                    component="skill",
                    min=F(rng.choice((0, 1, 2))),
                ),
            )
        added_patterns.append(
            UtilizationEntry(
                pattern_id=f"f_add{k}",
                resource_id=rng.choice(resource_ids),
                guards=guards,
                output=rng.choice([fv.id for fv in base.functionings]),
            )
        )
    if added_patterns:
        kwargs["utilization_added"] = tuple(added_patterns)
    if rng.random() < 0.4:
        kwargs["characteristics_delta"] = {"skill": F(rng.choice((1, 2)), 2)}
    if rng.random() < 0.3:
        kwargs["social_delta"] = {"support": F(1)}
    return InteractionRecord(
        id="i_additive",
        actor_id="actor",
        target=base.agent_id,
        deltas=InteractionDeltas(**kwargs),
        intent="unknown",
        mechanisms=("offer",),
        actor_has_right=True,
        communication_feasible=True,
        proportionality_ok=True,
    )


@criterion(5, "additive deltas: condition2 passes, Q never shrinks")
def test_criterion_5_monotonicity():
    resource_additions = 0
    for index in range(1000):
        rng = random.Random(50_000 + index)
        before = genlib.scenario(rng)
        record = _additive_record(rng, before)
        resource_additions += bool(record.deltas.resources_added)
        after = apply_interaction(before, record)

        q_before = compute_freedom(before)
        q_after = compute_freedom(after)
        # Q is a set of B-space points; ids may swap when a same-valued
        # twin with a smaller id becomes reachable, so compare by value.
        assert _value_set(q_before) <= _value_set(q_after)
        assert condition2(before, after).status == "pass"
    assert resource_additions > 500  # the headline clause was actually exercised


# ---------------------------------------------------------------------------
# 6. narrative fixture suite against committed goldens
# ---------------------------------------------------------------------------


@criterion(6, "fixture verdicts byte-match committed goldens")
def test_criterion_6_fixture_verdicts():
    def judge_report(stem):
        proc = run_cli("judge", FIXTURES / f"{stem}.scn")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / f"{stem}.judge.json").read_text()
        return json.loads(proc.stdout)["verdicts"][0]

    subway = judge_report("subway")
    assert subway["paternalism"]["status"] == "justified"
    assert subway["paternalism"]["clauses"] == {
        "a": True,
        "b": True,
        "c": True,
        "d": True,
    }

    surveillance = judge_report("surveillance")
    assert surveillance["paternalism"]["status"] == "unjustified"
    assert surveillance["paternalism"]["failed_clauses"] == ["a"]

    ransomware = judge_report("ransomware")
    assert ransomware["condition1"]["status"] == "violated"
    kinds = {f["kind"]: f["severity"] for f in ransomware["findings"]}
    assert kinds["coercion"] == "serious"
    assert "exploitation" in kinds

    grocery = judge_report("grocery")
    assert grocery["assistance"]["life_plans"] is True
    assert grocery["findings"] == []
    assert grocery["paternalism"]["status"] == "not_paternalistic"

    disaster = judge_report("disaster")
    assert disaster["assistance"]["real_freedom"] is True

    full = run_cli("detect", FIXTURES / "domination.trc")
    assert full.returncode == 0
    assert full.stdout == (GOLDEN / "domination.detect.json").read_text()
    assert (
        json.loads(full.stdout)["traces"][0]["domination"]["status"] == "finding"
    )

    short = run_cli("detect", FIXTURES / "domination_short.trc")
    assert short.stdout == (GOLDEN / "domination_short.detect.json").read_text()
    assert (
        json.loads(short.stdout)["traces"][0]["domination"]["status"]
        == "insufficient_evidence"
    )


# ---------------------------------------------------------------------------
# 7. round-trip and determinism
# ---------------------------------------------------------------------------


@criterion(7, "500-doc round-trip identity; byte-identical CLI double run")
def test_criterion_7_round_trip_and_determinism():
    for seed in range(500):
        rng = random.Random(70_000 + seed)
        doc = ScenarioDocument(
            format_version=1,
            scenario=genlib.scenario(rng),
            interactions=(),
            traces=(),
        )
        text = serialize_document(doc)
        parsed, warnings = parse_document(text)
        assert parsed == doc
        assert serialize_document(parsed) == text

    invocations = []
    for scn in sorted(FIXTURES.glob("*.scn")):
        invocations.append(("validate", scn))
        invocations.append(("judge", scn))
        invocations.append(("frontier", scn, "--set", "M"))
    invocations.append(("judge", FIXTURES / "subway.scn", "--format", "human"))
    for trc in sorted(FIXTURES.glob("*.trc")):
        invocations.append(("validate", trc))
        if trc.stem != "broken_chain":
            invocations.append(("detect", trc))
    for argv in invocations:
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr


# ---------------------------------------------------------------------------
# 8. malformed-input robustness
# ---------------------------------------------------------------------------


@criterion(8, "30+ invalid documents: exit 2 with located diagnostic")
def test_criterion_8_malformed_inputs(capsys):
    manifest = json.loads((INVALID / "manifest.json").read_text())
    assert len(manifest) >= 30
    for name, expect in sorted(manifest.items()):
        code = cli.main(["validate", str(INVALID / name)])
        captured = capsys.readouterr()
        assert code == 2, f"{name}: exit {code}"
        assert captured.out == ""
        assert expect["path"] in captured.err, name
        assert expect["message"] in captured.err, name
