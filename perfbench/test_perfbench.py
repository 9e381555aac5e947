"""The benchmark's own checks, at reduced catalog sizes.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

The full-size workloads are too large for the independent oracle, whose
loops are deliberately quadratic (at a catalog of 5000,
``eval_formula("condition2")`` alone takes about a minute), so the verdicts
the generated documents are built to produce are checked against it here,
on the same generator at a small catalog.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402

import capkit.cli as cli  # noqa: E402
from capkit.judgments.records import apply_interaction  # noqa: E402
from capkit.scenario_io import parse_document  # noqa: E402

SMALL = 60
SEEDS = (0, 1, 2)


def _cli(tmp_path, command: str, data: bytes) -> tuple[int, str, str]:
    path = tmp_path / f"{command}.json"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([command, str(path)])
    return rc, out.getvalue(), err.getvalue()


def test_generation_is_seeded():
    first = gen.document_bytes("detect", 7, 0, SMALL)
    assert gen.document_bytes("detect", 7, 0, SMALL) == first
    assert gen.document_bytes("detect", 8, 0, SMALL) != first
    assert gen.document_bytes("detect", 7, 1, SMALL) != first


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", sorted(gen.DOCUMENT_KINDS))
def test_documents_fire_their_mechanisms(tmp_path, kind, seed):
    rc, out, err = _cli(tmp_path, kind, gen.document_bytes(kind, seed, 0, SMALL))
    assert (rc, err) == (0, "")
    assert run.mechanism_problems(kind, json.loads(out)) == []


def _oracle_value_set(members):
    return {fv.values for fv in members}


@pytest.mark.parametrize("seed", SEEDS)
def test_judge_verdicts_agree_with_oracle(tmp_path, seed):
    """The engine's verdicts on a generated document are the oracle's.

    The oracle evaluates the raw formulas; the engine adds a set-change
    guard, which can only turn a raw true into false when the compared sets
    are equal as value sets.  The offer must be a benefit and an assistance
    under the oracle too.
    """
    oracle = run.load_oracle()
    data = gen.document_bytes("judge", seed, 0, SMALL)
    doc = parse_document(data.decode("utf-8"))[0]
    rc, out, _ = _cli(tmp_path, "judge", data)
    assert rc == 0
    verdicts = {v["interaction"]: v for v in json.loads(out)["verdicts"]}
    before = doc.scenario
    for rec in doc.interactions:
        after = apply_interaction(before, rec)
        v = verdicts[rec.id]
        engine = {
            "condition1": v["condition1"]["status"] != "violated",
            "condition2": v["condition2"]["status"] != "violated",
            "benefit_weak": v["beneficence"]["weak"],
            "benefit_real_freedom": v["beneficence"]["real_freedom"],
            "benefit_life_plans": v["beneficence"]["life_plan"],
            "assistance_real_freedom": v["assistance"]["real_freedom"],
            "assistance_life_plans": v["assistance"]["life_plans"],
        }
        q = [_oracle_value_set(oracle.freedom(s)) for s in (before, after)]
        qstar = [_oracle_value_set(oracle.real_freedom(s)) for s in (before, after)]
        m = [_oracle_value_set(oracle.naive_maximal_set(oracle.freedom(s), s.v))
             for s in (before, after)]
        guarded = {
            "benefit_weak": q[0] == q[1],
            "benefit_real_freedom": qstar[0] == qstar[1],
            "benefit_life_plans": m[0] == m[1],
            "assistance_real_freedom": qstar[0] == qstar[1],
            "assistance_life_plans": q[0] == q[1],
        }
        for formula in oracle.FORMULA_IDS:
            raw = oracle.eval_formula(formula, before, after)
            expected = raw and not guarded.get(formula, False)
            assert engine[formula] == expected, (rec.id, formula)
        if rec.id.endswith("_offer"):
            assert all(engine.values()), engine


def _traced(tmp_path, kind: str) -> dict:
    doc = tmp_path / f"{kind}.json"
    doc.write_bytes(gen.document_bytes(kind, 3, 0, SMALL))
    out = tmp_path / "trace.json"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"mode": "traced", "ops": [[kind, str(doc)]], "passes": 2,
                                "out": str(out)}))
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(spec)],
                          cwd=ROOT, env=run.capkit_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def test_traced_counts_repeat_and_detect_skips_improvement(tmp_path):
    detect = _traced(tmp_path, "detect")
    assert detect["absent"] == []
    assert run.traced_run_problem(detect, "detect-trace") is None
    first = detect["layers"][0]
    assert first["model.freedom.compute_freedom"]["calls"] > 0
    assert first["judgments.records.materialize_trace"]["calls"] == gen.TRACES
    assert all(row["calls"] == 0 for name, row in first.items()
               if name.startswith("judgments.improvement."))

    judge = _traced(tmp_path, "judge")
    assert run.traced_run_problem(judge, "judge-large") is None
    assert all(row["calls"] == len(gen.KINDS) for name, row in judge["layers"][0].items()
               if name.startswith("judgments.improvement."))


def test_tracer_restores_every_binding():
    import capkit.judgments.verdict as verdict
    import capkit.model.freedom as freedom
    from tracer import Tracer

    originals = (freedom.compute_freedom, verdict.condition1, cli.judge)
    tracer = Tracer()
    tracer.install()
    try:
        assert freedom.compute_freedom is not originals[0]
        assert verdict.condition1 is not originals[1]
        assert cli.judge is not originals[2]
    finally:
        tracer.uninstall()
    assert (freedom.compute_freedom, verdict.condition1, cli.judge) == originals


def test_benchmark_json_names_every_workload_and_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
