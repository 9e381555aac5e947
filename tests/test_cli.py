"""End-to-end CLI behavior: exit codes, listings, reports, determinism.

Most tests drive the tool in a subprocess through ``python -m capkit``, so
they need no install.  ``TestEntryPoint`` generates the ``capkit`` console
script from the ``[project.scripts]`` entry in pyproject.toml and runs it.
Exit code 3 is exercised in-process because provoking a genuine
internal invariant failure from a file is (by design) not possible.
"""

from __future__ import annotations

import ast
import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import capkit
import capkit.cli as cli
import capkit.report
from capkit.errors import InternalInvariantError

FIXTURES = Path(__file__).parent / "fixtures"
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
# The directory holding the imported ``capkit`` package (``src`` in a checkout).
PACKAGE_ROOT = Path(capkit.__file__).resolve().parent.parent

GROCERY = FIXTURES / "grocery.scn"
DISASTER = FIXTURES / "disaster.scn"
SUBWAY = FIXTURES / "subway.scn"
SURVEILLANCE = FIXTURES / "surveillance.scn"
RANSOMWARE = FIXTURES / "ransomware.scn"
THREADBARE = FIXTURES / "threadbare.scn"
DOMINATION = FIXTURES / "domination.trc"
DOMINATION_SHORT = FIXTURES / "domination_short.trc"
BROKEN_CHAIN = FIXTURES / "broken_chain.trc"

ALL_SCENARIOS = [GROCERY, DISASTER, SUBWAY, SURVEILLANCE, RANSOMWARE, THREADBARE]


def run_cli(*argv, color=None):
    env = dict(os.environ)
    env.pop("CAPKIT_COLOR", None)
    if color is not None:
        env["CAPKIT_COLOR"] = color
    return subprocess.run(
        [sys.executable, "-m", "capkit", *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
    )


class TestValidate:
    @pytest.mark.parametrize("path", ALL_SCENARIOS, ids=lambda p: p.stem)
    def test_fixture_scenarios_are_valid(self, path):
        proc = run_cli("validate", path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"valid: {path}\n"
        assert proc.stderr == ""

    def test_fixture_traces_are_valid(self):
        for path in (DOMINATION, DOMINATION_SHORT):
            proc = run_cli("validate", path)
            assert proc.returncode == 0, proc.stderr

    def test_broken_chain_fails_validation(self):
        proc = run_cli("validate", BROKEN_CHAIN)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "does not chain at step 1" in proc.stderr
        assert "t_double_confiscation" in proc.stderr

    def test_not_json(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("{ not json")
        proc = run_cli("validate", bad)
        assert proc.returncode == 2
        assert "not valid JSON" in proc.stderr

    def test_missing_file(self, tmp_path):
        proc = run_cli("validate", tmp_path / "absent.scn")
        assert proc.returncode == 2
        assert "absent.scn" in proc.stderr

    def test_warnings_are_counted(self, tmp_path):
        obj = json.loads(GROCERY.read_text())
        obj["scenario"]["functionings"].append(
            {"id": "b_stray", "values": [0, 0, 0]}
        )
        obj["scenario"]["maps"]["v"]["entries"]["b_stray"] = [0, 0]
        obj["scenario"]["maps"]["r"]["entries"]["b_stray"] = [0, 0]
        path = tmp_path / "stray.scn"
        path.write_text(json.dumps(obj))
        proc = run_cli("validate", path)
        assert proc.returncode == 0
        assert proc.stdout == f"valid: {path} (1 warning)\n"
        assert "b_stray" in proc.stderr

    def test_lenient_downgrades_unknown_field(self, tmp_path):
        obj = json.loads(GROCERY.read_text())
        obj["scenario"]["mood"] = "hopeful"
        path = tmp_path / "extra.scn"
        path.write_text(json.dumps(obj))
        strict = run_cli("validate", path)
        assert strict.returncode == 2
        assert "unknown field 'mood'" in strict.stderr
        lenient = run_cli("validate", path, "--lenient")
        assert lenient.returncode == 0
        assert "(1 warning)" in lenient.stdout
        assert "unknown field 'mood'" in lenient.stderr

    def test_lenient_does_not_mask_other_errors(self, tmp_path):
        obj = json.loads(GROCERY.read_text())
        obj["scenario"]["mood"] = "hopeful"
        obj["scenario"]["theta"] = ["1/0", 1]
        path = tmp_path / "still_bad.scn"
        path.write_text(json.dumps(obj))
        proc = run_cli("validate", path, "--lenient")
        assert proc.returncode == 2
        assert "zero denominator" in proc.stderr


class TestFrontier:
    def test_freedom_listing(self):
        proc = run_cli("frontier", GROCERY, "--set", "Q")
        assert proc.returncode == 0
        assert proc.stdout == (
            "b_home_cooking values=[2, 1, 1]\n"
            "b_simple_meals values=[1, 0, 2]\n"
            "b_takeout values=[1, 0, 0]\n"
        )

    def test_real_freedom_listing_annotates_r(self):
        proc = run_cli("frontier", GROCERY, "--set", "Qstar")
        assert proc.returncode == 0
        assert proc.stdout == (
            "b_home_cooking values=[2, 1, 1] r=[1, 2]\n"
            "b_simple_meals values=[1, 0, 2] r=[2, 1]\n"
        )

    def test_maximal_listing_annotates_v(self):
        proc = run_cli("frontier", GROCERY, "--set", "M")
        assert proc.returncode == 0
        assert proc.stdout == (
            "b_home_cooking values=[2, 1, 1] v=[2, 2]\n"
            "b_simple_meals values=[1, 0, 2] v=[1, 3]\n"
        )

    def test_empty_real_freedom_listing(self):
        proc = run_cli("frontier", THREADBARE, "--set", "Qstar")
        assert proc.returncode == 0
        assert proc.stdout == ""

    def test_fractional_values_rendered_exactly(self):
        proc = run_cli("frontier", DISASTER, "--set", "Q")
        assert proc.returncode == 0
        assert "b_camp values=[1, 1, 0]" in proc.stdout

    def test_set_flag_required(self):
        proc = run_cli("frontier", GROCERY)
        assert proc.returncode == 2
        assert "--set" in proc.stderr


class TestJudge:
    def test_structured_report_shape(self):
        proc = run_cli("judge", GROCERY)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["format"] == "capkit.judge.v1"
        assert report["engine_version"] == "0.1.0"
        digest = hashlib.sha256(GROCERY.read_bytes()).hexdigest()
        assert report["input_digest"] == f"sha256:{digest}"
        (verdict,) = report["verdicts"]
        assert set(verdict) == {
            "interaction",
            "condition1",
            "condition2",
            "beneficence",
            "assistance",
            "paternalism",
            "findings",
        }

    def test_interaction_selection(self):
        proc = run_cli("judge", DISASTER, "--interaction", "i_relief_routing")
        report = json.loads(proc.stdout)
        assert [v["interaction"] for v in report["verdicts"]] == [
            "i_relief_routing"
        ]

    def test_unknown_interaction(self):
        proc = run_cli("judge", GROCERY, "--interaction", "i_nope")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "no interaction 'i_nope'" in proc.stderr

    def test_adverse_verdict_still_exits_zero(self):
        proc = run_cli("judge", RANSOMWARE)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["verdicts"][0]["condition1"]["status"] == "violated"

    def test_fail_on_violation(self):
        bad = run_cli("judge", RANSOMWARE, "--fail-on-violation")
        assert bad.returncode == 1
        clean = run_cli("judge", GROCERY, "--fail-on-violation")
        assert clean.returncode == 0
        # the flag changes only the exit code, not the report
        assert bad.stdout == run_cli("judge", RANSOMWARE).stdout

    def test_unjustified_paternalism_counts_as_violation(self):
        proc = run_cli("judge", SURVEILLANCE, "--fail-on-violation")
        assert proc.returncode == 1

    def test_strict_formula_lifts_change_guard(self):
        def flags(*argv):
            report = json.loads(run_cli(*argv).stdout)
            verdict = report["verdicts"][0]
            return verdict["beneficence"], verdict["assistance"]

        guarded_ben, guarded_assist = flags("judge", THREADBARE)
        raw_ben, raw_assist = flags("judge", THREADBARE, "--strict-formula")
        assert guarded_ben["weak"] is False
        assert raw_ben["weak"] is True
        assert raw_ben["weak_only"] is True
        # the life-plan guard is definitional, not an engine refinement,
        # so --strict-formula leaves assistance untouched
        assert guarded_assist == raw_assist == {
            "real_freedom": False,
            "life_plans": False,
        }

    def test_human_format(self):
        proc = run_cli("judge", RANSOMWARE, "--format", "human")
        assert proc.returncode == 0
        assert "capkit judgment report (engine 0.1.0)" in proc.stdout
        assert "condition 1: violated" in proc.stdout
        assert "coercion (serious)" in proc.stdout
        assert "exploitation (serious)" in proc.stdout

    def test_human_weak_only_marker(self):
        proc = run_cli("judge", SUBWAY, "--format", "human")
        assert "beneficence: weak=yes real_freedom=no life_plan=no  [weak only]" in proc.stdout
        assert "paternalism: justified" in proc.stdout


class TestColor:
    def test_piped_output_has_no_ansi_by_default(self):
        proc = run_cli("judge", RANSOMWARE, "--format", "human")
        assert "\x1b[" not in proc.stdout

    def test_color_never(self):
        proc = run_cli("judge", RANSOMWARE, "--format", "human", color="never")
        assert "\x1b[" not in proc.stdout

    def test_color_always(self):
        proc = run_cli("judge", RANSOMWARE, "--format", "human", color="always")
        assert "\x1b[31mviolated\x1b[0m" in proc.stdout
        assert "\x1b[32mnot_paternalistic\x1b[0m" in proc.stdout

    def test_structured_output_is_never_colored(self):
        proc = run_cli("judge", RANSOMWARE, color="always")
        assert "\x1b[" not in proc.stdout
        json.loads(proc.stdout)


class TestDetect:
    def test_domination_finding(self):
        proc = run_cli("detect", DOMINATION)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["format"] == "capkit.detect.v1"
        (trace,) = report["traces"]
        assert trace["trace"] == "t_feed_cycle"
        assert trace["domination"]["status"] == "finding"
        assert [s["findings"] for s in trace["steps"]] == [[], []]

    def test_short_trace_insufficient_evidence(self):
        proc = run_cli("detect", DOMINATION_SHORT)
        report = json.loads(proc.stdout)
        assert report["traces"][0]["domination"]["status"] == "insufficient_evidence"

    def test_fail_on_violation(self):
        assert run_cli("detect", DOMINATION, "--fail-on-violation").returncode == 1
        assert (
            run_cli("detect", DOMINATION_SHORT, "--fail-on-violation").returncode
            == 0
        )

    def test_trace_selection(self):
        proc = run_cli("detect", DOMINATION, "--trace", "t_feed_cycle")
        assert proc.returncode == 0
        proc = run_cli("detect", DOMINATION, "--trace", "t_nope")
        assert proc.returncode == 2
        assert "no trace 't_nope'" in proc.stderr

    def test_broken_chain(self):
        proc = run_cli("detect", BROKEN_CHAIN)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "does not chain at step 1" in proc.stderr

    def test_human_format(self):
        proc = run_cli("detect", DOMINATION, "--format", "human")
        assert "capkit failure-mode report" in proc.stdout
        assert "trace t_feed_cycle" in proc.stdout
        assert "domination: finding" in proc.stdout
        assert "findings: none" in proc.stdout


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("judge", RANSOMWARE),
            ("judge", SUBWAY, "--format", "human"),
            ("detect", DOMINATION),
            ("frontier", GROCERY, "--set", "M"),
        ],
        ids=("judge", "judge-human", "detect", "frontier"),
    )
    def test_double_run_byte_identical(self, argv):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr


class TestInternalFailures:
    def test_invariant_failure_exits_three(self, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise InternalInvariantError("deliberately broken for this test")

        monkeypatch.setattr(cli, "judge", boom)
        code = cli.main(["judge", str(GROCERY)])
        captured = capsys.readouterr()
        assert code == 3
        assert "internal invariant failure" in captured.err

    def test_unexpected_exception_exits_three(self, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli, "apply_interaction", boom)
        code = cli.main(["judge", str(GROCERY)])
        captured = capsys.readouterr()
        assert code == 3
        assert "RuntimeError" in captured.err

    def test_detect_refuses_an_unevidenced_finding(self, monkeypatch, capsys):
        import capkit.judgments.verdict as verdict
        from capkit.judgments.failures import DominationResult

        monkeypatch.setattr(
            verdict, "detect_domination", lambda steps: DominationResult("finding", ())
        )
        code = cli.main(["detect", str(DOMINATION)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "domination outcome produced no evidence for trace 't_feed_cycle'" in captured.err


class TestLayering:
    """The CLI and the report layer use the judgment layer's public names
    only, and the CLI runs no detector itself."""

    @staticmethod
    def _imports(module) -> list[tuple[str, str]]:
        """(source module without the package prefix, name) per imported name."""
        tree = ast.parse(Path(module.__file__).read_text())
        return [
            ((node.module or "").removeprefix("capkit."), alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        ]

    @pytest.mark.parametrize("module", [cli, capkit.report], ids=["cli", "report"])
    def test_no_private_judgment_names(self, module):
        private = [
            (source, name)
            for source, name in self._imports(module)
            if source.startswith("judgments") and name.startswith("_")
        ]
        assert private == []

    def test_cli_imports_no_detector(self):
        import capkit.judgments.failures as failures

        detectors = {name for name in vars(failures) if name.startswith("detect_")}
        detectors.add("paternalism_check")
        imported = self._imports(cli)
        assert [name for source, name in imported if source == "judgments.failures"] == []
        assert [name for _, name in imported if name in detectors] == []


class TestCollectorState:
    """``main`` pauses the cyclic collector for the command and leaves it
    as the caller had it, whatever the exit code."""

    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def caller_gc(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_exit_zero(self, caller_gc, capsys, monkeypatch):
        seen = []
        real = cli.judge

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "judge", spy)
        assert cli.main(["judge", str(GROCERY)]) == 0
        assert seen and not any(seen)
        assert gc.isenabled() == caller_gc

    def test_exit_two(self, caller_gc, capsys):
        assert cli.main(["judge", str(FIXTURES / "invalid" / "bad_json.json")]) == 2
        assert gc.isenabled() == caller_gc

    def test_exit_three(self, caller_gc, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli, "apply_interaction", boom)
        assert cli.main(["judge", str(GROCERY)]) == 3
        assert gc.isenabled() == caller_gc


class TestEntryPoint:
    def test_console_script_installed(self, tmp_path):
        """The ``capkit`` script declared in pyproject.toml runs the CLI.

        The script is generated here, as an installer would generate it, so
        the test checks the declaration rather than this machine's installs.
        """
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            spec = tomllib.load(fh)["project"]["scripts"]["capkit"]
        module, func = spec.split(":")
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        script = bin_dir / "capkit"
        # The wrapper an installer writes for a console-script entry point.
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {func}\n"
            f"sys.exit({func}())\n"
        )
        script.chmod(0o755)
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")])
        )
        exe = shutil.which("capkit", path=env["PATH"])
        assert exe, "console script 'capkit' not on PATH"
        proc = subprocess.run(
            [exe, "validate", str(GROCERY)], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("valid:")

    def test_main_returns_int_in_process(self, capsys):
        code = cli.main(["frontier", str(GROCERY), "--set", "Q"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("b_home_cooking")
