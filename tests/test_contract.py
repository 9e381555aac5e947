"""The exit-code contract over a fixed input corpus, in-process.

``validate`` exits 0 or 2 on every input, and a document it accepts can
always be evaluated: ``frontier``, ``judge`` and ``detect`` then exit 0 or 1,
never 2 (an unlocated input error) or 3.  The corpus is every shipped
fixture, the ``invalid/`` corpus, deterministic mutations of the
ransomware threat record that make its counterfactual scenario disagree
with the main one in a dimension schema or in the transient map ``u``, and
two size families: a chain of records that apply only inside a trace, and a
long id list.

Each shipped fixture is also rewritten with its JSON integers as decimals
(``n.0``): every command must then print what it prints for the original,
also under ``python -bb``.

A seeded property run mutates single fields of ``test_io._full_doc()``: it
drops a field, sets it to a value of each JSON kind, or renames it to an
unknown key.  ``validate`` then exits 0 or 2 with short diagnostic lines, and
an accepted mutant can be judged and detected.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capkit.cli as cli
import capkit.judgments.records as records
import genlib
from capkit.judgments import judge, materialize_trace
from capkit.scenario_io import parse_document
from test_io import _full_doc

FIXTURES = Path(__file__).parent / "fixtures"
RANSOMWARE = json.loads((FIXTURES / "ransomware.scn").read_text())

EVALUATIONS = [
    ["frontier", "--set", "Q"],
    ["frontier", "--set", "Qstar"],
    ["frontier", "--set", "M"],
    ["judge", "--fail-on-violation"],
    ["detect", "--fail-on-violation"],
]


def _declare_u(scenario, names):
    """Give ``scenario`` a U schema named ``names`` and a constant table ``u``."""
    scenario["schemas"]["U"] = [{"name": name} for name in names]
    scenario["maps"]["u"] = {
        "form": "table",
        "entries": {fv["id"]: [1] * len(names) for fv in scenario["functionings"]},
    }


def _widen(scenario, space):
    """Append one dimension to ``space`` and a 0 to every vector written in it."""
    scenario["schemas"][space].append({"name": "extra"})
    if space == "B":
        vectors = [fv["values"] for fv in scenario["functionings"]]
    else:
        map_id = {"E": "r", "P": "v", "U": "u"}[space]
        vectors = list(scenario["maps"][map_id]["entries"].values())
        if space == "E":
            vectors.append(scenario["theta"])
    for values in vectors:
        values.append(0)


def _rename(scenario, space):
    scenario["schemas"][space][-1]["name"] = "renamed"


def _mutations():
    """(name, document) for each threat-override mutation of ransomware.scn."""
    out = []
    for space in ("B", "E", "P", "U"):
        for label, mutate in (("width", _widen), ("names", _rename)):
            doc = copy.deepcopy(RANSOMWARE)
            threat = doc["interactions"][0]["threat_scenario"]
            if space == "U":
                _declare_u(doc["scenario"], ["relief", "calm"])
                _declare_u(threat, ["relief", "calm"])
            mutate(threat, space)
            out.append((f"threat_{space}_{label}", doc))
    for label in ("main_only", "threat_only"):
        doc = copy.deepcopy(RANSOMWARE)
        threat = doc["interactions"][0]["threat_scenario"]
        _declare_u(doc["scenario"] if label == "main_only" else threat, ["relief"])
        out.append((f"u_{label}", doc))
    doc = copy.deepcopy(RANSOMWARE)
    _declare_u(doc["scenario"], ["relief"])
    doc["interactions"][0]["threat_scenario"]["schemas"]["U"] = [{"name": "relief"}]
    out.append(("u_schema_without_map_in_threat", doc))
    return out


SHIPPED = sorted(p for p in FIXTURES.iterdir() if p.suffix in (".scn", ".trc"))
INVALID = sorted(
    p for p in (FIXTURES / "invalid").glob("*.json") if p.name != "manifest.json"
)
MUTATIONS = _mutations()


def _check_contract(path: Path, capsys) -> int:
    code = cli.main(["validate", str(path)])
    out = capsys.readouterr()
    assert code in (0, 2), f"validate exited {code}: {out.err}"
    if code == 0:
        for argv in EVALUATIONS:
            evaluated = cli.main([argv[0], str(path), *argv[1:]])
            err = capsys.readouterr().err
            assert evaluated in (0, 1), (
                f"validate accepted {path.name}, but {' '.join(argv)} "
                f"exited {evaluated}: {err}"
            )
    return code


@pytest.mark.parametrize("path", SHIPPED + INVALID, ids=lambda p: p.name)
def test_fixture_honours_exit_code_contract(path, capsys):
    _check_contract(path, capsys)


def _give_and_take() -> dict:
    """domination.trc with two records: ``i_give`` adds a resource and
    ``i_take`` removes it, so ``i_take`` applies only after ``i_give``, in
    the one trace."""
    doc = json.loads((FIXTURES / "domination.trc").read_text())
    template = doc["interactions"][0]
    give = {"resources_added": [{"id": "x_extra", "values": [1]}]}
    doc["interactions"] = [
        {**template, "id": "i_give", "deltas": give},
        {**template, "id": "i_take", "deltas": {"resources_removed": ["x_extra"]}},
    ]
    steps = [
        {"interaction": rec_id, "target_choice": "b_rally", "actor_desired": "b_rally"}
        for rec_id in ("i_give", "i_take")
    ]
    doc["traces"] = [{"id": "t_give_take", "steps": steps}]
    return doc


def _chain(k: int) -> dict:
    """domination.trc with ``k`` records in one trace: record ``i`` adds the
    resource ``x_c{i}`` and removes ``x_c{i-1}``, so every record after the
    first applies only at its own step of the trace."""
    doc = json.loads((FIXTURES / "domination.trc").read_text())
    template = doc["interactions"][0]
    recs = []
    for i in range(k):
        deltas = {"resources_added": [{"id": f"x_c{i}", "values": [1]}]}
        if i:
            deltas["resources_removed"] = [f"x_c{i - 1}"]
        recs.append({**template, "id": f"i_{i:03d}", "deltas": deltas})
    doc["interactions"] = recs
    steps = [
        {"interaction": rec["id"], "target_choice": "b_rally", "actor_desired": "b_rally"}
        for rec in recs
    ]
    doc["traces"] = [{"id": "t_chain", "steps": steps}]
    return doc


def _long_id_list(n: int) -> dict:
    """domination.trc with ``n`` more utilization patterns, all of which its
    first record removes, listed in one ``utilization_removed``."""
    doc = json.loads((FIXTURES / "domination.trc").read_text())
    extra = [f"f_extra_{i}" for i in range(n)]
    doc["scenario"]["utilization"] += [
        {"pattern_id": pid, "resource_id": "x_evening", "output": "b_rally"} for pid in extra
    ]
    doc["interactions"][0]["deltas"]["utilization_removed"] = extra
    return doc


def _judged_on_trace_steps(doc: dict, path: Path, capsys) -> None:
    """``doc`` passes the contract check, and judge gives each record the
    verdict of ``judge`` on its step of the document's one trace."""
    path.write_text(json.dumps(doc))
    assert _check_contract(path, capsys) == 0
    assert cli.main(["judge", str(path)]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    parsed, _ = parse_document(path.read_text())
    steps = materialize_trace(parsed.scenario, parsed.records_by_id(), parsed.traces[0])
    assert verdicts == [judge(s.before, s.after, s.record).to_dict() for s in steps]


def test_record_that_applies_only_in_a_trace_is_judged_on_its_step(tmp_path, capsys):
    _judged_on_trace_steps(_give_and_take(), tmp_path / "give_take.json", capsys)


def test_chain_of_trace_only_records_is_judged_on_its_steps(tmp_path, capsys):
    _judged_on_trace_steps(_chain(40), tmp_path / "chain.json", capsys)


def test_long_id_list_honours_exit_code_contract(tmp_path, capsys):
    path = tmp_path / "long_id_list.json"
    path.write_text(json.dumps(_long_id_list(2000)))
    assert _check_contract(path, capsys) == 0


def test_judge_chains_each_trace_once(tmp_path, capsys, monkeypatch):
    # Judging every trace-only record of a k-step chain applies each step's
    # deltas once, not once per later record (about k²/2).
    k = 60
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(_chain(k)))
    applied = []
    real = records.apply_interaction

    def counting(scenario, rec):
        applied.append(rec.id)
        return real(scenario, rec)

    monkeypatch.setattr(records, "apply_interaction", counting)
    assert cli.main(["judge", str(path)]) == 0
    assert len(applied) <= 2 * k + 2


@pytest.mark.parametrize("name,doc", MUTATIONS, ids=[name for name, _ in MUTATIONS])
def test_override_mutation_honours_exit_code_contract(name, doc, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    # Each mutation breaks one rule for overrides, so none is valid.
    assert _check_contract(path, capsys) == 2


def _outputs(path: Path, capsys) -> list:
    """(command, exit code, output lines) of validate and each evaluation,
    with the file name and the input digest left out."""
    out = []
    for argv in (["validate"], *EVALUATIONS):
        code = cli.main([argv[0], str(path), *argv[1:]])
        captured = capsys.readouterr()
        text = (captured.out + captured.err).replace(str(path), "<file>")
        lines = [line for line in text.splitlines() if "input_digest" not in line]
        out.append((argv[0], code, lines))
    return out


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_decimal_integers_read_like_integers(path, tmp_path, capsys):
    decimal = tmp_path / path.name
    decimal.write_text(genlib.decimal_json(json.loads(path.read_text())))
    assert ".0," in decimal.read_text()
    assert _outputs(decimal, capsys) == _outputs(path, capsys)


# Runs the ``cli.main`` argument lists read from stdin; prints each one's
# exit code and stderr as JSON.
_CHILD = """
import contextlib, io, json, sys
import capkit.cli as cli
results = []
for argv in json.loads(sys.stdin.read()):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        results.append([cli.main(argv), err.getvalue()])
print(json.dumps(results))
"""


def test_no_bytes_str_comparison_on_any_fixture(tmp_path, capsys):
    # Under ``python -bb`` comparing bytes with str raises, and cli.main
    # turns that into exit 3; every run must print what it prints without.
    runs = []
    for path in SHIPPED:
        doc = json.loads(path.read_text())
        decimal = tmp_path / path.name
        decimal.write_text(genlib.decimal_json(doc))
        commands = ["validate"]
        commands += ["judge"] * bool(doc.get("interactions"))
        commands += ["detect"] * bool(doc.get("traces"))
        runs += [[command, str(p)] for p in (path, decimal) for command in commands]
    expected = []
    for argv in runs:
        code = cli.main(argv)
        expected.append([code, capsys.readouterr().err])
    assert all(code in (0, 1, 2) for code, _ in expected)
    done = subprocess.run(
        [sys.executable, "-bb", "-c", _CHILD],
        input=json.dumps(runs),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout) == expected


# Every field of ``_full_doc()`` and every optional field it leaves out, as
# key paths.  They are written out here rather than read from the parser, so
# that the property does not share the parser's view of the format.
_SCENARIO_FIELDS = [
    ("agent_id",),
    ("schemas",),
    ("schemas", "B"),
    ("schemas", "E"),
    ("schemas", "P"),
    ("schemas", "U"),
    ("schemas", "B", 0, "name"),
    ("schemas", "B", 0, "description"),
    ("resource_schema",),
    ("resource_schema", 0, "name"),
    ("resources",),
    ("resources", 0, "id"),
    ("resources", 0, "values"),
    ("characteristics",),
    ("characteristics", "skill"),
    ("social",),
    ("social", "support"),
    ("functionings",),
    ("functionings", 0, "id"),
    ("functionings", 0, "values"),
    ("functionings", 0, "unreachable"),
    ("utilization",),
    ("utilization", 0, "pattern_id"),
    ("utilization", 0, "resource_id"),
    ("utilization", 0, "output"),
    ("utilization", 0, "guards"),
    ("utilization", 0, "guards", 0, "context"),
    ("utilization", 0, "guards", 0, "component"),
    ("utilization", 0, "guards", 0, "min"),
    ("maps",),
    ("maps", "v"),
    ("maps", "v", "form"),
    ("maps", "v", "entries"),
    ("maps", "v", "entries", "b_a"),
    ("maps", "v", "matrix"),
    ("maps", "r"),
    ("maps", "r", "form"),
    ("maps", "r", "matrix"),
    ("maps", "r", "entries"),
    ("maps", "u"),
    ("theta",),
    ("theta_p",),
]
_RECORD_FIELDS = [
    ("id",),
    ("actor_id",),
    ("target",),
    ("deltas",),
    ("deltas", "resources_added"),
    ("deltas", "resources_removed"),
    ("deltas", "characteristics_delta"),
    ("deltas", "social_delta"),
    ("deltas", "utilization_added"),
    ("deltas", "utilization_removed"),
    ("intent",),
    ("mechanisms",),
    ("mechanisms", 0),
    ("actor_has_right",),
    ("communication_feasible",),
    ("proportionality_ok",),
    ("unfair_terms",),
    ("promoted_outcome",),
    ("actor_estimate_of_target_values",),
    ("believed_scenario",),
    ("threat_scenario",),
]
FIELD_PATHS = (
    [("format_version",), ("scenario",), ("interactions",), ("traces",)]
    + [("scenario", *keys) for keys in _SCENARIO_FIELDS]
    + [("interactions", 0, *keys) for keys in _RECORD_FIELDS]
    + [
        ("traces", 0, "id"),
        ("traces", 0, "steps"),
        ("traces", 0, "steps", 0, "interaction"),
        ("traces", 0, "steps", 0, "target_choice"),
        ("traces", 0, "steps", 0, "actor_desired"),
    ]
)
# A value of each JSON kind.
JSON_VALUES = [None, True, 0, "x", [], {}]


def _mutant(keys, how) -> dict:
    """``_full_doc()`` with the field at ``keys`` dropped, renamed to an
    unknown key, or set to ``JSON_VALUES[how]``."""
    obj = _full_doc()
    parent = obj
    for key in keys[:-1]:
        parent = parent[key]
    field = keys[-1]
    if how == "drop":
        if isinstance(parent, list):
            del parent[field]
        else:
            parent.pop(field, None)
    elif how == "rename":
        if isinstance(parent, dict):
            parent["zz_" + field] = parent.pop(field, 1)
    else:
        parent[field] = copy.deepcopy(JSON_VALUES[how])
    return obj


def _run(argv) -> tuple[int, str]:
    """``cli.main(argv)`` with its output captured: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def mutant_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants") / "mutant.json"


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    keys=st.sampled_from(FIELD_PATHS),
    how=st.sampled_from(["drop", "rename", *range(len(JSON_VALUES))]),
)
def test_field_mutation_honours_exit_code_contract(mutant_path, keys, how):
    mutant_path.write_text(json.dumps(_mutant(keys, how)))
    code, err = _run(["validate", str(mutant_path)])
    assert code in (0, 2), err
    for line in err.splitlines():
        assert len(line) < 200, line
    if code == 0:
        for command in ("judge", "detect"):
            evaluated, err = _run([command, str(mutant_path)])
            assert evaluated in (0, 1), f"{command} exited {evaluated}: {err}"


@pytest.mark.parametrize(
    "keys", [("scenario",), ("interactions", 0), ("interactions", 0, "deltas")]
)
@pytest.mark.parametrize("lenient", [False, True])
def test_long_unknown_key_line_is_bounded(mutant_path, keys, lenient):
    obj = _full_doc()
    target = obj
    for key in keys:
        target = target[key]
    target["k" * 100_000] = 1
    mutant_path.write_text(json.dumps(obj))
    code, err = _run(["validate", *(["--lenient"] * lenient), str(mutant_path)])
    assert code == (0 if lenient else 2)
    assert "(100000 characters)" in err
    assert max(len(line) for line in err.splitlines()) < 200
