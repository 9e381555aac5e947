"""Narrative fixtures: semantic assertions plus byte-exact golden reports.

Each fixture exists to pin one behavioral profile end to end:

    grocery       -- pure assistance; life plans improved, nobody judged
    disaster      -- aid that clears every bar: all beneficence flags up
    subway        -- physically stopping someone, yet justified paternalism
    surveillance  -- well-meant monitoring that destroys a maximal plan
    ransomware    -- coercion and exploitation, both serious
    threadbare    -- empty real freedom: vacuous condition 1, guarded flags
    domination    -- a two-step trace steered off the agent's own frontier

Golden files live in tests/golden/.  After an intended behavior change,
regenerate them with:

    CAPKIT_UPDATE_GOLDENS=1 python3 -m pytest tests/test_fixtures.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from capkit.judgments.records import apply_interaction
from capkit.scenario_io import parse_document, serialize_scenario

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def run(*argv):
    env = dict(os.environ)
    env["CAPKIT_COLOR"] = "never"
    proc = subprocess.run(
        [sys.executable, "-m", "capkit", *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def check_golden(name: str, actual: str) -> None:
    path = GOLDEN / name
    if os.environ.get("CAPKIT_UPDATE_GOLDENS"):
        path.write_text(actual)
    assert path.exists(), f"missing golden {name}; run with CAPKIT_UPDATE_GOLDENS=1"
    expected = path.read_text()
    assert actual == expected, (
        f"golden mismatch: {name} "
        f"(regenerate with CAPKIT_UPDATE_GOLDENS=1 if the change is intended)"
    )


def judge_fixture(stem: str) -> dict:
    out = run("judge", FIXTURES / f"{stem}.scn")
    check_golden(f"{stem}.judge.json", out)
    return json.loads(out)


class TestGrocery:
    def test_verdict(self):
        (verdict,) = judge_fixture("grocery")["verdicts"]
        assert verdict["condition1"]["status"] == "pass"
        assert verdict["condition2"]["status"] == "pass"
        assert verdict["beneficence"] == {
            "weak": True,
            "real_freedom": False,
            "life_plan": True,
            "weak_only": False,
        }
        assert verdict["assistance"] == {"real_freedom": False, "life_plans": True}
        assert verdict["paternalism"]["status"] == "not_paternalistic"
        assert verdict["findings"] == []

    def test_human_report_golden(self):
        check_golden(
            "grocery.judge.txt",
            run("judge", FIXTURES / "grocery.scn", "--format", "human"),
        )


class TestDisaster:
    def test_verdict(self):
        (verdict,) = judge_fixture("disaster")["verdicts"]
        assert verdict["condition1"]["status"] == "pass"
        assert verdict["condition2"]["status"] == "pass"
        assert verdict["beneficence"] == {
            "weak": True,
            "real_freedom": True,
            "life_plan": True,
            "weak_only": False,
        }
        assert verdict["assistance"] == {"real_freedom": True, "life_plans": True}
        assert verdict["paternalism"]["status"] == "not_paternalistic"
        assert verdict["findings"] == []


class TestSubway:
    def test_verdict(self):
        (verdict,) = judge_fixture("subway")["verdicts"]
        assert verdict["beneficence"]["weak"] is True
        assert verdict["beneficence"]["weak_only"] is True
        assert verdict["paternalism"]["status"] == "justified"
        assert verdict["paternalism"]["failed_clauses"] == []
        assert verdict["findings"] == []

    def test_justification_evidence_names_all_clauses(self):
        (verdict,) = json.loads(run("judge", FIXTURES / "subway.scn"))["verdicts"]
        assert verdict["paternalism"]["clauses"] == {
            "a": True,
            "b": True,
            "c": True,
            "d": True,
        }


class TestSurveillance:
    def test_verdict(self):
        (verdict,) = judge_fixture("surveillance")["verdicts"]
        assert verdict["condition1"]["status"] == "pass"
        assert verdict["condition2"]["status"] == "violated"
        lost = [
            e
            for e in verdict["condition2"]["evidence"]
            if e["kind"] == "unreplaced_maximal_plan"
        ]
        assert [e["functioning"] for e in lost] == ["b_alert_pendant"]
        assert verdict["paternalism"]["status"] == "unjustified"
        assert verdict["paternalism"]["failed_clauses"] == ["a"]
        assert verdict["findings"] == []

    def test_after_scenario_golden(self):
        doc, _ = parse_document((FIXTURES / "surveillance.scn").read_text())
        after = apply_interaction(doc.scenario, doc.interactions[0])
        assert [u.pattern_id for u in after.utilization] == ["f_live_monitored"]
        check_golden("surveillance.after.json", serialize_scenario(after))


class TestRansomware:
    def test_verdict(self):
        (verdict,) = judge_fixture("ransomware")["verdicts"]
        assert verdict["condition1"]["status"] == "violated"
        assert verdict["condition2"]["status"] == "violated"
        assert [f["kind"] for f in verdict["findings"]] == [
            "coercion",
            "exploitation",
        ]
        assert all(f["severity"] == "serious" for f in verdict["findings"])
        coercion = verdict["findings"][0]
        dropped = sorted(
            e["dimension"]
            for e in coercion["evidence"]
            if e["kind"] == "threshold_dimension_dropped"
        )
        assert dropped == ["material_security", "professional_capability"]

    def test_human_report_golden(self):
        check_golden(
            "ransomware.judge.txt",
            run("judge", FIXTURES / "ransomware.scn", "--format", "human"),
        )


class TestThreadbare:
    def test_verdict(self):
        (verdict,) = judge_fixture("threadbare")["verdicts"]
        assert verdict["condition1"]["status"] == "vacuous_initially_empty"
        assert verdict["beneficence"]["weak"] is False
        assert verdict["findings"] == []


class TestDominationTraces:
    def test_finding(self):
        out = run("detect", FIXTURES / "domination.trc")
        check_golden("domination.detect.json", out)
        (trace,) = json.loads(out)["traces"]
        assert trace["domination"]["status"] == "finding"
        kinds = sorted(e["kind"] for e in trace["domination"]["evidence"])
        assert kinds == [
            "choice_outside_maximal_set",
            "choice_outside_maximal_set",
            "followed_desire",
            "followed_desire",
        ]
        assert all(step["findings"] == [] for step in trace["steps"])

    def test_short_trace(self):
        out = run("detect", FIXTURES / "domination_short.trc")
        check_golden("domination_short.detect.json", out)
        (trace,) = json.loads(out)["traces"]
        assert trace["domination"]["status"] == "insufficient_evidence"
        assert trace["domination"]["evidence"] == [
            {
                "detail": "a single interaction cannot establish a pattern "
                "of desire-tracking",
                "kind": "trace_too_short",
            }
        ]


class TestCorpusHygiene:
    def test_fixtures_parse_without_warnings(self):
        for path in sorted(FIXTURES.glob("*.scn")) + sorted(FIXTURES.glob("*.trc")):
            _, warnings = parse_document(path.read_text())
            assert warnings == [], f"{path.name}: {[str(w) for w in warnings]}"

    def test_every_golden_belongs_to_a_fixture(self):
        stems = {p.stem.split(".")[0] for p in GOLDEN.iterdir()}
        fixture_stems = {p.stem for p in FIXTURES.glob("*.scn")} | {
            p.stem for p in FIXTURES.glob("*.trc")
        }
        corpora = {p.name for p in FIXTURES.iterdir() if p.is_dir()}  # invalid/
        assert stems <= fixture_stems | corpora
