"""The top-level package re-exports the supported library surface."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import capkit

FIXTURES = Path(__file__).parent / "fixtures"
TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


class TestPublicSurface:
    def test_every_advertised_name_resolves(self):
        for name in capkit.__all__:
            assert getattr(capkit, name) is not None, name

    def test_version_matches_cli_reports(self):
        assert capkit.__version__ == "0.1.0"

    def test_readme_workflow(self):
        doc, warnings = capkit.parse_document(
            (FIXTURES / "grocery.scn").read_text()
        )
        assert warnings == []
        scenario = doc.scenario
        frontier = capkit.maximal_set(
            capkit.compute_freedom(scenario), scenario.v
        )
        assert [fv.id for fv in frontier] == ["b_home_cooking", "b_simple_meals"]
        (record,) = doc.interactions
        verdict = capkit.judge(
            scenario, capkit.apply_interaction(scenario, record), record
        )
        report = verdict.to_dict()
        assert report["assistance"] == {"real_freedom": False, "life_plans": True}
        assert not verdict.has_violation


def test_every_traced_name_resolves(monkeypatch):
    """Each function the benchmark's tracer wraps exists in capkit, so a
    rename fails here, and not only as an absent layer in a traced run."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.TARGETS) >= 20
    for module_name, qualname, _ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        for part in qualname.split("."):
            assert hasattr(owner, part), f"{module_name}.{qualname}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{qualname}"
