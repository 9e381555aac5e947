"""Document parsing, validation diagnostics, and canonical serialization."""

from __future__ import annotations

import copy
import json
import json.scanner
import marshal
import random
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genlib
from capkit.errors import DocumentError
from capkit.judgments.records import InteractionDeltas, InteractionRecord
from capkit import scenario_io
from capkit.rationals import (
    exceeds_digit_limit,
    format_rational,
    json_decimal,
    json_integer,
    parse_rational,
)
from capkit.scenario_io import (
    Diagnostic,
    ScenarioDocument,
    deep_validate,
    parse_document,
    serialize_document,
    serialize_scenario,
)

F = Fraction

FIXTURES = Path(__file__).parent / "fixtures"


def base_doc() -> dict:
    """A small valid document to mutate in targeted tests."""
    return {
        "format_version": 1,
        "scenario": {
            "agent_id": "ada",
            "schemas": {
                "B": [{"name": "doing"}],
                "E": [{"name": "owed"}],
                "P": [{"name": "valued"}],
            },
            "resource_schema": [{"name": "stuff"}],
            "resources": [{"id": "x0", "values": [1]}],
            "characteristics": {"skill": 1},
            "social": {"support": 1},
            "functionings": [
                {"id": "b_a", "values": [1]},
                {"id": "b_b", "values": [2]},
            ],
            "utilization": [
                {"pattern_id": "f_a", "resource_id": "x0", "output": "b_a"},
                {"pattern_id": "f_b", "resource_id": "x0", "output": "b_b"},
            ],
            "maps": {
                "v": {"form": "table", "entries": {"b_a": [1], "b_b": [2]}},
                "r": {"form": "table", "entries": {"b_a": [1], "b_b": [1]}},
            },
            "theta": [1],
        },
    }


def parse_obj(obj, **kwargs):
    return parse_document(json.dumps(obj), **kwargs)


def expect_error(obj, path_fragment, message_fragment):
    with pytest.raises(DocumentError) as excinfo:
        parse_obj(obj)
    diagnostics = excinfo.value.diagnostics
    matched = [
        d
        for d in diagnostics
        if path_fragment in d.path and message_fragment in d.message
    ]
    assert matched, (
        f"no diagnostic matching path~{path_fragment!r} "
        f"message~{message_fragment!r} in {[str(d) for d in diagnostics]}"
    )
    return matched[0]


class TestRationalLiterals:
    def test_parse_rational_forms(self):
        assert parse_rational(3) == F(3)
        assert parse_rational(b"1.25e1") == F(25, 2)
        assert parse_rational("-7") == F(-7)
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("2/4") == F(1, 2)
        assert parse_rational("1.25") == F(5, 4)
        assert parse_rational(" 1/3 ") == F(1, 3)

    def test_parse_rational_rejections(self):
        from capkit.errors import SchemaError

        with pytest.raises(SchemaError, match="zero denominator"):
            parse_rational("1/0")
        with pytest.raises(SchemaError, match="malformed rational"):
            parse_rational("one half")
        with pytest.raises(SchemaError, match="malformed rational"):
            parse_rational("nan")
        with pytest.raises(SchemaError, match="malformed rational"):
            parse_rational("inf")
        with pytest.raises(SchemaError, match="boolean"):
            parse_rational(True)
        with pytest.raises(SchemaError, match="float literal"):
            parse_rational(0.5)

    def test_format_rational(self):
        assert format_rational(F(4, 2)) == 2
        assert format_rational(F(-3)) == -3
        assert format_rational(F(1, 2)) == "1/2"
        assert format_rational(F(-5, 3)) == "-5/3"

    def test_decimal_number_parsed_exactly(self):
        # 0.1 must be exactly 1/10, not the nearest binary double.
        obj = base_doc()
        obj["scenario"]["resources"][0]["values"] = [0.1]
        doc, _ = parse_obj(obj)
        assert doc.scenario.resources[0].values == (F(1, 10),)

    def test_decimal_string_and_fraction_string(self):
        obj = base_doc()
        obj["scenario"]["resources"][0]["values"] = ["1.5"]
        doc, _ = parse_obj(obj)
        assert doc.scenario.resources[0].values == (F(3, 2),)

    def test_zero_denominator_in_document(self):
        obj = base_doc()
        obj["scenario"]["theta"] = ["1/0"]
        expect_error(obj, "$.scenario.theta", "zero denominator")

    def test_nan_string_in_document(self):
        obj = base_doc()
        obj["scenario"]["theta"] = ["nan"]
        expect_error(obj, "$.scenario.theta", "malformed rational")

    def test_nan_literal_rejected(self):
        text = json.dumps(base_doc()).replace('"theta": [1]', '"theta": [NaN]')
        with pytest.raises(DocumentError) as excinfo:
            parse_document(text)
        assert "not valid JSON" in excinfo.value.diagnostics[0].message

    def test_infinity_literal_rejected(self):
        text = json.dumps(base_doc()).replace(
            '"theta": [1]', '"theta": [Infinity]'
        )
        with pytest.raises(DocumentError):
            parse_document(text)

    def test_boolean_is_not_a_rational(self):
        obj = base_doc()
        obj["scenario"]["characteristics"]["skill"] = True
        expect_error(obj, "$.scenario.characteristics.skill", "boolean")

    def test_exponent_bounded_by_int_digit_limit(self):
        from capkit.errors import SchemaError

        limit = sys.get_int_max_str_digits()
        # 10^(limit-1) has limit digits; 10^-(limit-1) has a limit-digit
        # denominator.  Both print; one more power of ten does not.
        for text in (f"1e{limit - 1}", f"-1.5e{limit - 1}", f"1e-{limit - 1}", "0e5"):
            format_rational(parse_rational(text))
            str(parse_rational(text))
        for text in (f"1e{limit}", f"1e-{limit}", f"1{'0' * limit}e0", "0e99999"):
            with pytest.raises(SchemaError, match="too large"):
                parse_rational(text)

    @pytest.mark.parametrize("literal", ["1e10000000", "-1e-10000000", "0e10000000"])
    def test_huge_exponent_rejected_quickly(self, literal):
        bare = json.dumps(base_doc()).replace('"theta": [1]', f'"theta": [{literal}]')
        quoted = json.dumps(base_doc()).replace('"theta": [1]', f'"theta": ["{literal}"]')
        for text in (bare, quoted):
            started = time.perf_counter()
            with pytest.raises(DocumentError) as excinfo:
                parse_document(text)
            assert time.perf_counter() - started < 1.0
            (diagnostic,) = excinfo.value.diagnostics
            assert diagnostic.path == "$.scenario.theta[0]"
            assert "too large" in diagnostic.message

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_oversized_integer_literal_located(self, sign):
        limit = sys.get_int_max_str_digits()
        literal = sign + "1" + "0" * limit
        text = json.dumps(base_doc()).replace('"theta": [1]', f'"theta": [{literal}]')
        with pytest.raises(DocumentError) as excinfo:
            parse_document(text)
        (diagnostic,) = excinfo.value.diagnostics
        assert diagnostic.path == "$.scenario.theta[0]"
        assert "too large" in diagnostic.message
        # Elsewhere the literal is echoed by value, never as an object repr.
        text = '{"format_version": %s}' % literal
        messages = []
        for _ in range(2):
            with pytest.raises(DocumentError) as excinfo:
                parse_document(text)
            messages.append([str(d) for d in excinfo.value.diagnostics])
        assert messages[0] == messages[1]
        assert "unsupported format_version" in messages[0][0]
        assert "object at" not in messages[0][0]

    @pytest.mark.parametrize(
        "text, quoted, message",
        [
            ("1" + "0" * 4400, True, "too large"),
            ("1" + "0" * 4400, False, "too large"),
            ("x" * 4401, True, "malformed rational"),
            ("1/" + "0" * 99, True, "zero denominator"),
        ],
        ids=["quoted-integer", "bare-integer", "malformed", "zero-denominator"],
    )
    def test_echoed_literal_is_truncated(self, text, quoted, message, tmp_path, capsys):
        import capkit.cli as cli

        literal = json.dumps(text) if quoted else text
        path = tmp_path / "doc.json"
        path.write_text(
            json.dumps(base_doc()).replace('"theta": [1]', f'"theta": [{literal}]')
        )
        assert cli.main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert f"({len(text)} characters)" in err
        assert max(len(line) for line in err.splitlines()) < 250


class TestLinearImageBound:
    """Linear-map images are bounded by the int-to-string digit limit, since
    reports print them; the map is rejected at its matrix."""

    def test_exceeds_digit_limit_at_the_boundary(self):
        limit = sys.get_int_max_str_digits()
        top = 10**limit  # the smallest integer with limit + 1 digits
        assert not exceeds_digit_limit(F(top - 1))
        assert not exceeds_digit_limit(F(-(top - 1)))
        assert not exceeds_digit_limit(F(1, top - 1))
        assert not exceeds_digit_limit(F(2 ** (3 * limit)))
        assert exceeds_digit_limit(F(top))
        assert exceeds_digit_limit(F(-top, 3))
        assert exceeds_digit_limit(F(3, top))

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_main_map_image_at_the_limit(self, sign):
        limit = sys.get_int_max_str_digits()
        obj = base_doc()
        obj["scenario"]["functionings"][1]["values"] = ["1e2000"]
        obj["scenario"]["theta"] = [0]
        r = obj["scenario"]["maps"]["r"] = {"form": "linear", "matrix": [[f"{sign}1e{limit - 2001}"]]}
        doc, _ = parse_obj(obj)  # b_b's image has exactly `limit` digits
        assert len(str(abs(doc.scenario.r.apply(doc.scenario.functioning("b_b"))[0]))) == limit
        r["matrix"] = [[f"{sign}1e{limit - 2000}"]]
        with pytest.raises(DocumentError) as excinfo:
            parse_obj(obj)
        assert [str(d) for d in excinfo.value.diagnostics] == [
            "error: $.scenario.maps.r.matrix: map 'r' gives functioning 'b_b' an "
            f"image whose numerator or denominator would exceed {limit} digits"
        ]
        r["matrix"] = [[f"{sign}1e-{limit - 2000}"]]
        obj["scenario"]["functionings"][1]["values"] = ["1e-2000"]
        expect_error(obj, "$.scenario.maps.r.matrix", "would exceed")

    def test_override_and_estimate_maps_bounded(self):
        obj = base_doc()
        obj["scenario"]["functionings"][1]["values"] = ["1e4000"]
        huge = {"form": "linear", "matrix": [["1e4000"]]}
        threat = copy.deepcopy(obj["scenario"])
        threat["maps"]["v"] = huge
        obj["interactions"] = [
            _interaction_obj(
                mechanisms=["threat"],
                threat_scenario=threat,
                actor_estimate_of_target_values=huge,
            )
        ]
        with pytest.raises(DocumentError) as excinfo:
            parse_obj(obj)
        assert [d.path for d in excinfo.value.diagnostics] == [
            "$.interactions[0].actor_estimate_of_target_values.matrix",
            "$.interactions[0].threat_scenario.maps.v.matrix",
        ]


# JSON-decoded trees: what the decoder yields, with a JSON number that is
# not an int held as its text in bytes.
_TREES = st.recursive(
    st.booleans()
    | st.none()
    | st.integers()
    | st.text(max_size=4)
    | st.builds(lambda n, f: f"{n}.{f}".encode(), st.integers(-99, 99), st.integers(0, 99)),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=2), kids, max_size=3),
    max_leaves=10,
)


def _node_paths(tree, path=()):
    yield path
    if type(tree) in (list, dict):
        for key, item in (tree.items() if type(tree) is dict else enumerate(tree)):
            yield from _node_paths(item, (*path, key))


_RETYPED = {bool: int, int: bool, str: str.encode, bytes: bytes.decode, type(None): lambda _: 0}


def _rebuild(tree, path=None):
    """A fresh copy of ``tree``; with ``path``, a near-copy whose node there
    is changed: a leaf retyped (true/1, "1.5"/b"1.5", null/0), an object's
    keys or an array's items reversed."""
    if type(tree) not in (dict, list):
        return _RETYPED[type(tree)](tree) if path == () else tree
    items = list(tree.items() if type(tree) is dict else enumerate(tree))
    if path == ():
        items.reverse()
    out = [
        (key, _rebuild(item, path[1:] if path and path[0] == key else None))
        for key, item in items
    ]
    return dict(out) if type(tree) is dict else [item for _, item in out]


def _same(a, b) -> bool:
    """Equal trees with equal types at every node and keys in equal order."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return list(a) == list(b) and all(_same(a[key], b[key]) for key in a)
    if type(a) is list:
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


class TestParseCache:
    """Each distinct literal and vector is parsed once per document; the
    cache must never let a bad literal through or swallow a diagnostic."""

    def test_boolean_after_equal_int_still_rejected(self):
        obj = base_doc()
        obj["scenario"]["resource_schema"] = [{"name": "stuff"}, {"name": "time"}]
        obj["scenario"]["resources"] = [
            {"id": "x0", "values": [1, 1]},
            {"id": "x1", "values": [1, True]},
        ]
        obj["scenario"]["social"] = {"support": 1, "kin": True}
        with pytest.raises(DocumentError) as excinfo:
            parse_obj(obj)
        assert [(d.path, "boolean" in d.message) for d in excinfo.value.diagnostics] == [
            ("$.scenario.resources[1].values[1]", True),
            ("$.scenario.social.kin", True),
        ]

    def test_repeated_bad_literal_diagnosed_at_each_path(self):
        obj = base_doc()
        obj["scenario"]["resources"] = [
            {"id": "x0", "values": ["one"]},
            {"id": "x1", "values": ["one"]},
        ]
        obj["scenario"]["characteristics"] = {"skill": "one"}
        obj["scenario"]["social"] = {"support": "one"}
        with pytest.raises(DocumentError) as excinfo:
            parse_obj(obj)
        diagnostics = excinfo.value.diagnostics
        assert [d.path for d in diagnostics] == [
            "$.scenario.resources[0].values[0]",
            "$.scenario.resources[1].values[0]",
            "$.scenario.characteristics.skill",
            "$.scenario.social.support",
        ]
        assert all("malformed rational literal 'one'" in d.message for d in diagnostics)

    def _equal_spellings_doc(self, v_image_of_c):
        obj = base_doc()
        scenario = obj["scenario"]
        scenario["functionings"] = [
            {"id": "b_a", "values": ["1/2"]},
            {"id": "b_b", "values": ["0.5"]},
            {"id": "b_c", "values": ["2/4"]},
        ]
        scenario["utilization"] = [
            {"pattern_id": f"f_{fid}", "resource_id": "x0", "output": f"b_{fid}"}
            for fid in "abc"
        ]
        scenario["maps"]["v"]["entries"] = {"b_a": [1], "b_b": ["1"], "b_c": v_image_of_c}
        scenario["maps"]["r"]["entries"] = {"b_a": [1], "b_b": [1], "b_c": [1]}
        return obj

    def test_equal_spellings_parse_equal_and_dedupe(self):
        from capkit.model.types import dedupe_by_value

        doc, _ = parse_obj(self._equal_spellings_doc([1]))
        functionings = doc.scenario.functionings
        assert {fv.values for fv in functionings} == {(F(1, 2),)}
        assert [fv.id for fv in dedupe_by_value(functionings).values()] == ["b_a"]

    def test_equal_spellings_share_one_value_key(self):
        doc, _ = parse_obj(self._equal_spellings_doc([1]))
        keys = {fv.id: fv.value_key for fv in doc.scenario.functionings}
        assert keys == {"b_a": (1, 2), "b_b": (1, 2), "b_c": (1, 2)}

    def test_number_and_string_vectors_are_never_compared(self, tmp_path):
        # Equal text hashes alike as bytes and as str, and comparing the two
        # raises under ``python -bb``; the caches must key them apart.
        import subprocess

        obj = base_doc()
        obj["scenario"]["resources"][0]["values"] = ["@@"]
        obj["scenario"]["characteristics"]["skill"] = "@@"
        obj["scenario"]["theta"] = ["1.5"]
        obj["scenario"]["social"]["support"] = "1.5"
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(obj).replace('"@@"', "1.5"))
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-bb", "-m", "capkit", "validate", str(path)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src)},
            timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, "")

    def test_equal_spellings_trip_image_check(self):
        with pytest.raises(DocumentError) as excinfo:
            parse_obj(self._equal_spellings_doc([2]))
        assert [str(d) for d in excinfo.value.diagnostics] == [
            "error: $.scenario.maps.v.entries: functionings 'b_a' and 'b_c' have "
            "equal values but different 'v' images"
        ]

    def test_repeated_bad_vector_diagnosed_at_each_path(self):
        obj = base_doc()
        obj["scenario"]["resource_schema"] = [{"name": "stuff"}, {"name": "time"}]
        obj["scenario"]["resources"] = [{"id": "x0", "values": [1, 1]}]
        believed = copy.deepcopy(obj["scenario"])
        believed["resources"] = [{"id": f"x{i}", "values": ["1/0", 1]} for i in range(2)]
        added = {"resources_added": [{"id": "x9", "values": ["1/0", 1]}]}
        obj["interactions"] = [
            _interaction_obj(id="i_0", believed_scenario=believed),
            _interaction_obj(id="i_1", deltas=added),
        ]
        with pytest.raises(DocumentError) as excinfo:
            parse_obj(obj)
        assert [(d.path, d.message) for d in excinfo.value.diagnostics] == [
            (path, "zero denominator in rational literal '1/0'")
            for path in (
                "$.interactions[0].believed_scenario.resources[0].values[0]",
                "$.interactions[0].believed_scenario.resources[1].values[0]",
                "$.interactions[1].deltas.resources_added[0].values[0]",
            )
        ]

    def test_literal_nested_past_the_marshal_bound_is_a_json_error(self, tmp_path, capsys):
        import capkit.cli as cli

        obj = base_doc()
        obj["interactions"] = [
            _interaction_obj(deltas={"characteristics_delta": {"skill": "@@"}})
        ]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(obj).replace('"@@"', "[" * 2100 + "]" * 2100))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10_000)  # lets the decoder build the literal
        try:
            code = cli.main(["validate", str(path)])
        finally:
            sys.setrecursionlimit(limit)
        assert (code, capsys.readouterr().err) == (
            2,
            "error: document: not valid JSON: nesting too deep\n",
        )

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_TREES, _TREES, st.data())
    def test_marshal_key_is_type_strict_equality(self, tree, other, data):
        # The parser's memo keys on these bytes: equal keys must mean equal
        # types, values and key order, down to every leaf.
        near = _rebuild(tree, data.draw(st.sampled_from(list(_node_paths(tree)))))
        for b in (_rebuild(tree), near, other):
            keys_equal = marshal.dumps(tree, 2) == marshal.dumps(b, 2)
            assert keys_equal == _same(tree, b)


def _with_copies(obj, field, copies, mechanisms=("information_filtering",)):
    """``obj`` with one record per scenario copy, carried under ``field``."""
    obj["interactions"] = [
        _interaction_obj(
            id=f"i_{i}",
            mechanisms=list(mechanisms),
            actor_has_right=False,
            **{field: copy.deepcopy(copy_obj)},
        )
        for i, copy_obj in enumerate(copies)
    ]
    return obj


class TestScenarioMemo:
    """Equal scenario subtrees parse to one shared Scenario, and each copy
    gets the first walk's diagnostics at its own path; a copy that differs
    only in a literal's JSON type is walked again."""

    def test_believed_equal_to_main_is_shared(self, monkeypatch):
        import capkit.model.freedom as freedom

        obj = base_doc()
        main = obj["scenario"]
        threat = copy.deepcopy(main)
        threat["characteristics"] = {"skill": 0}
        obj["interactions"] = [
            _interaction_obj(
                id=f"i_{i}",
                mechanisms=["information_filtering", "threat"],
                actor_has_right=False,
                believed_scenario=copy.deepcopy(main),
                threat_scenario=copy.deepcopy(threat),
            )
            for i in range(2)
        ]
        doc, warnings = parse_obj(obj)
        assert warnings == []
        recs = doc.records_by_id()
        assert recs["i_0"].believed_scenario is doc.scenario
        assert recs["i_1"].believed_scenario is doc.scenario
        assert recs["i_0"].threat_scenario is recs["i_1"].threat_scenario
        assert recs["i_0"].threat_scenario is not doc.scenario

        walks = []
        original = freedom.dedupe_by_value
        monkeypatch.setattr(
            freedom, "dedupe_by_value", lambda q: walks.append(1) or original(q)
        )
        q = freedom.compute_freedom(doc.scenario)
        assert freedom.compute_freedom(recs["i_0"].believed_scenario) is q
        assert len(walks) == 1

    def _diagnostics(self, obj, **kwargs):
        with pytest.raises(DocumentError) as excinfo:
            parse_obj(obj, **kwargs)
        return [(d.path, d.message) for d in excinfo.value.diagnostics]

    def test_boolean_copy_of_integer_is_diagnosed(self):
        obj = base_doc()
        flipped = copy.deepcopy(obj["scenario"])
        flipped["resources"][0]["values"] = [True]
        _with_copies(obj, "believed_scenario", [obj["scenario"], flipped])
        assert self._diagnostics(obj) == [
            (
                "$.interactions[1].believed_scenario.resources[0].values[0]",
                "expected a rational literal, got boolean True",
            )
        ]

    def test_integer_copy_of_string_is_diagnosed(self):
        obj = base_doc()
        obj["scenario"]["resources"][0]["id"] = "1"
        for entry in obj["scenario"]["utilization"]:
            entry["resource_id"] = "1"
        retyped = copy.deepcopy(obj["scenario"])
        retyped["resources"][0]["id"] = 1
        _with_copies(obj, "believed_scenario", [obj["scenario"], retyped])
        assert self._diagnostics(obj) == [
            (
                "$.interactions[1].believed_scenario.resources[0].id",
                "expected a non-empty string",
            )
        ]

    def test_integer_unreachable_flag_is_diagnosed_at_each_copy(self):
        obj = base_doc()
        obj["scenario"]["functionings"][0]["unreachable"] = True
        flagged = copy.deepcopy(obj["scenario"])
        flagged["functionings"][0]["unreachable"] = 1
        _with_copies(obj, "believed_scenario", [flagged, flagged])
        assert self._diagnostics(obj) == [
            (
                f"$.interactions[{i}].believed_scenario.functionings[0].unreachable",
                "expected true or false, got number",
            )
            for i in (0, 1)
        ]

    def test_orphan_warning_repeats_at_each_copy(self):
        obj = base_doc()
        obj["scenario"]["functionings"].append({"id": "b_dream", "values": [5]})
        obj["scenario"]["maps"]["v"]["entries"]["b_dream"] = [1]
        obj["scenario"]["maps"]["r"]["entries"]["b_dream"] = [1]
        _with_copies(obj, "believed_scenario", [obj["scenario"], obj["scenario"]])
        _, warnings = parse_obj(obj)
        assert [w.path for w in warnings] == [
            "$.scenario.functionings",
            "$.interactions[0].believed_scenario.functionings",
            "$.interactions[1].believed_scenario.functionings",
        ]
        assert all("'b_dream'" in w.message for w in warnings)

    def test_lenient_unknown_field_warning_repeats_at_each_copy(self):
        obj = base_doc()
        obj["scenario"]["mood"] = "sunny"
        _with_copies(obj, "believed_scenario", [obj["scenario"], obj["scenario"]])
        _, warnings = parse_obj(obj, lenient=True)
        assert [w.path for w in warnings] == [
            "$.scenario",
            "$.interactions[0].believed_scenario",
            "$.interactions[1].believed_scenario",
        ]
        assert all("unknown field 'mood'" in w.message for w in warnings)

    def test_override_checks_run_for_every_shared_copy(self):
        obj = base_doc()
        obj["scenario"]["schemas"]["U"] = [{"name": "relief"}]
        obj["scenario"]["maps"]["u"] = {
            "form": "table",
            "entries": {"b_a": [1], "b_b": [1]},
        }
        threat = copy.deepcopy(obj["scenario"])
        threat["theta"] = [2]
        threat["agent_id"] = "imposter"
        del threat["maps"]["u"]
        _with_copies(obj, "threat_scenario", [threat, threat], ["threat"])
        with pytest.raises(DocumentError) as excinfo:
            parse_obj(obj)
        assert [(d.severity, d.path) for d in excinfo.value.diagnostics] == [
            (severity, f"$.interactions[{i}].threat_scenario{suffix}")
            for i in (0, 1)
            for severity, suffix in (
                ("error", ".theta"),
                ("warning", ".agent_id"),
                ("error", ".maps"),
            )
        ]

    def test_decimal_literal_parses_equal_to_its_fraction_string(self):
        obj = base_doc()
        obj["scenario"]["resources"][0]["values"] = ["3/2"]
        decimal = copy.deepcopy(obj["scenario"])
        decimal["resources"][0]["values"] = [F(3, 2)]
        _with_copies(obj, "believed_scenario", [decimal, decimal])
        # json.dumps cannot write a Fraction; splice the decimal literal in.
        text = json.dumps(obj, default=lambda _: "@1.5@").replace('"@1.5@"', "1.5")
        doc, _ = parse_document(text)
        believed = [rec.believed_scenario for rec in doc.interactions]
        assert believed[0] is believed[1]
        assert believed[0] == doc.scenario
        assert believed[0].resources[0].values == (F(3, 2),)
        assert serialize_scenario(believed[0]) == serialize_scenario(doc.scenario)

    def test_decimal_copies_share_the_main_scenario(self, monkeypatch):
        import capkit.model.freedom as freedom

        obj = base_doc()
        _with_copies(obj, "believed_scenario", [obj["scenario"], obj["scenario"]])
        text = genlib.decimal_json(obj)
        assert '"values": [1.0]' in text and '"format_version": 1,' in text
        doc, warnings = parse_document(text)
        assert warnings == []
        believed = [rec.believed_scenario for rec in doc.interactions]
        assert believed[0] is doc.scenario
        assert believed[1] is doc.scenario

        walks = []
        original = freedom.dedupe_by_value
        monkeypatch.setattr(
            freedom, "dedupe_by_value", lambda q: walks.append(1) or original(q)
        )
        q = freedom.compute_freedom(doc.scenario)
        assert all(freedom.compute_freedom(b) is q for b in believed)
        assert len(walks) == 1

    def test_lenient_oversized_unknown_field_is_shared(self):
        obj = base_doc()
        copy_obj = copy.deepcopy(obj["scenario"])
        copy_obj["mood"] = "@@"
        _with_copies(obj, "believed_scenario", [copy_obj, copy_obj])
        text = json.dumps(obj).replace('"@@"', "1e99999")
        doc, warnings = parse_document(text, lenient=True)
        assert [(w.path, "unknown field 'mood'" in w.message) for w in warnings] == [
            ("$.interactions[0].believed_scenario", True),
            ("$.interactions[1].believed_scenario", True),
        ]
        believed = [rec.believed_scenario for rec in doc.interactions]
        assert believed[0] is believed[1]
        assert believed[0] == doc.scenario

    def test_error_copies_are_diagnosed_at_each_path(self):
        obj = base_doc()
        broken = copy.deepcopy(obj["scenario"])
        broken["theta"] = ["1/0"]
        del broken["agent_id"]
        _with_copies(obj, "believed_scenario", [broken, broken])
        assert self._diagnostics(obj) == [
            (f"$.interactions[{i}].believed_scenario{suffix}", message)
            for i in (0, 1)
            for suffix, message in (
                ("", "missing required field 'agent_id'"),
                (".theta[0]", "zero denominator in rational literal '1/0'"),
            )
        ]

    @staticmethod
    def _walked(monkeypatch) -> list:
        """The path of every scenario walk while the test runs."""
        paths = []
        walk = scenario_io._SCENARIO.walk

        def counted(p, raw, path, ctx=None, outer=None):
            paths.append(path)
            return walk(p, raw, path, ctx, outer)

        monkeypatch.setattr(scenario_io._SCENARIO, "walk", counted)
        return paths

    def test_serialized_copies_share_the_main_scenario(self, monkeypatch):
        # serialize_document indents a record's copy deeper than the main
        # scenario, so the decoder cannot share it: only the marshal key can.
        obj = base_doc()
        _with_copies(obj, "believed_scenario", [obj["scenario"], obj["scenario"]])
        doc, _ = parse_obj(obj)
        text = serialize_document(doc)
        raw = scenario_io._decode(text)
        assert raw["interactions"][0]["believed_scenario"] is not raw["scenario"]
        walked = self._walked(monkeypatch)
        doc, _ = parse_document(text)
        assert [rec.believed_scenario is doc.scenario for rec in doc.interactions] == [True] * 2
        assert walked == ["$.scenario"]

    def test_reordered_copy_is_walked_separately(self, monkeypatch):
        obj = base_doc()
        reordered = dict(reversed(list(obj["scenario"].items())))
        _with_copies(obj, "believed_scenario", [reordered])
        walked = self._walked(monkeypatch)
        doc, _ = parse_obj(obj)
        believed = doc.interactions[0].believed_scenario
        assert believed == doc.scenario and believed is not doc.scenario
        assert walked == ["$.scenario", "$.interactions[0].believed_scenario"]

    def test_integer_for_boolean_copy_is_walked_and_diagnosed_at_its_path(self, monkeypatch):
        obj = base_doc()
        obj["scenario"]["functionings"][0]["unreachable"] = True
        retyped = copy.deepcopy(obj["scenario"])
        retyped["functionings"][0]["unreachable"] = 1
        _with_copies(obj, "believed_scenario", [obj["scenario"], retyped])
        walked = self._walked(monkeypatch)
        assert self._diagnostics(obj) == [
            (
                "$.interactions[1].believed_scenario.functionings[0].unreachable",
                "expected true or false, got number",
            )
        ]
        assert walked == ["$.scenario", "$.interactions[1].believed_scenario"]

    def test_nesting_past_the_marshal_bound_is_a_json_error(self):
        obj = base_doc()
        obj["scenario"]["theta"] = "@@"
        text = json.dumps(obj).replace('"@@"', "[" * 2100 + "]" * 2100)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10_000)  # lets the decoder build the subtree
        try:
            with pytest.raises(DocumentError) as excinfo:
                parse_document(text)
        finally:
            sys.setrecursionlimit(limit)
        assert [str(d) for d in excinfo.value.diagnostics] == [
            "error: document: not valid JSON: nesting too deep"
        ]


class TestDocumentShape:
    def test_not_json(self):
        with pytest.raises(DocumentError) as excinfo:
            parse_document("{ not json")
        diag = excinfo.value.diagnostics[0]
        assert "not valid JSON" in diag.message
        assert "line" in diag.path

    def test_root_not_object(self):
        with pytest.raises(DocumentError) as excinfo:
            parse_document("[]")
        assert "expected an object" in excinfo.value.diagnostics[0].message

    def test_duplicate_key(self):
        text = '{"format_version": 1, "format_version": 1}'
        with pytest.raises(DocumentError) as excinfo:
            parse_document(text)
        assert [str(d) for d in excinfo.value.diagnostics] == [
            "error: $: duplicate object key 'format_version'"
        ]

    def test_duplicate_key_nested_two_objects_deep(self):
        obj = base_doc()
        text = json.dumps(obj).replace('"r": {', '"r": {"form": "linear", ', 1)
        with pytest.raises(DocumentError) as excinfo:
            parse_document(text)
        assert [str(d) for d in excinfo.value.diagnostics] == [
            "error: $: duplicate object key 'form'"
        ]

    @pytest.mark.parametrize(
        "literal, message",
        [
            ("true", "format_version must be the integer 1, not a boolean"),
            ("1.0", "format_version must be the integer 1, not a decimal"),
            ("1e0", "format_version must be the integer 1, not a decimal"),
            ("2", "unsupported format_version 2; this build reads version 1"),
            ('"1"', "unsupported format_version '1'; this build reads version 1"),
            (
                "-" + "1" * 5000,
                f"unsupported format_version '-{'1' * 39}'... (5001 characters); "
                "this build reads version 1",
            ),
            ("null", "format_version must be the integer 1, not null"),
            ('{"a": true}', "format_version must be the integer 1, not an object"),
            ("[true]", "format_version must be the integer 1, not an array"),
            (json.dumps([1] * 20_000), "format_version must be the integer 1, not an array"),
            (
                json.dumps("x" * 100_000),
                f"unsupported format_version '{'x' * 40}'... (100000 characters); "
                "this build reads version 1",
            ),
            (
                "9" * 60,
                f"unsupported format_version '{'9' * 40}'... (60 characters); "
                "this build reads version 1",
            ),
        ],
        ids=[
            "boolean", "decimal", "exponent", "two", "string", "oversized", "null",
            "object", "array", "long-array", "long-string", "long-integer",
        ],
    )
    def test_format_version_kinds(self, literal, message):
        text = json.dumps(base_doc()).replace(
            '"format_version": 1', f'"format_version": {literal}'
        )
        with pytest.raises(DocumentError) as excinfo:
            parse_document(text)
        diagnostics = excinfo.value.diagnostics
        assert [(d.path, d.message) for d in diagnostics] == [("$.format_version", message)]
        assert len(str(diagnostics[0])) < 200

    def test_missing_format_version(self):
        obj = base_doc()
        del obj["format_version"]
        expect_error(obj, "$", "missing required field 'format_version'")

    def test_unsupported_format_version(self):
        obj = base_doc()
        obj["format_version"] = 2
        expect_error(obj, "$.format_version", "unsupported format_version")

    def test_unknown_root_field(self):
        obj = base_doc()
        obj["extras"] = {}
        diag = expect_error(obj, "$", "unknown field 'extras'")
        assert "valid fields" in diag.message

    def test_unknown_field_of_a_long_kind_names_the_closest(self):
        # A scenario's or a record's list of fields is too long to print.
        obj = base_doc()
        obj["scenario"]["agent"] = "ada"
        obj["scenario"]["mood"] = "sunny"
        obj["interactions"] = [_interaction_obj(zz_actor_id="beau")]
        with pytest.raises(DocumentError) as excinfo:
            parse_obj(obj)
        assert [str(d) for d in excinfo.value.diagnostics] == [
            "error: $.scenario: unknown field 'agent'; did you mean 'agent_id'?",
            "error: $.scenario: unknown field 'mood'",
            "error: $.interactions[0]: unknown field 'zz_actor_id'; did you mean 'actor_id'?",
        ]

    def test_lenient_downgrades_unknown_fields_only(self):
        obj = base_doc()
        obj["scenario"]["novelty"] = 1
        doc, warnings = parse_obj(obj, lenient=True)
        assert doc is not None
        assert any("unknown field 'novelty'" in w.message for w in warnings)
        # other errors stay errors under lenient parsing
        obj2 = base_doc()
        obj2["scenario"]["novelty"] = 1
        obj2["scenario"]["theta"] = ["1/0"]
        with pytest.raises(DocumentError):
            parse_obj(obj2, lenient=True)

    def test_diagnostic_rendering(self):
        d = Diagnostic("error", "$.scenario.theta", "zero denominator")
        assert str(d) == "error: $.scenario.theta: zero denominator"

    def test_multiple_errors_all_reported(self):
        obj = base_doc()
        obj["scenario"]["functionings"][0]["values"] = [1, 2]
        obj["scenario"]["functionings"][1]["values"] = [2, 3]
        with pytest.raises(DocumentError) as excinfo:
            parse_obj(obj)
        paths = [d.path for d in excinfo.value.diagnostics]
        assert "$.scenario.functionings[0].values" in paths
        assert "$.scenario.functionings[1].values" in paths


def _full_doc() -> dict:
    """``base_doc`` with every kind of object that has required fields: a
    guard, a linear map, an interaction record and a trace."""
    obj = base_doc()
    obj["scenario"]["utilization"][0]["guards"] = [
        {"context": "characteristics", "component": "skill", "min": 1}
    ]
    obj["scenario"]["maps"]["r"] = {"form": "linear", "matrix": [[1]]}
    obj["interactions"] = [_interaction_obj()]
    obj["traces"] = [
        {
            "id": "t0",
            "steps": [
                {"interaction": "i_x", "target_choice": "b_a", "actor_desired": "b_b"}
            ],
        }
    ]
    return obj


# (path of the parent object, its keys in _full_doc(), its required fields)
REQUIRED_FIELDS = [
    ("$", (), ["format_version", "scenario"]),
    (
        "$.scenario",
        ("scenario",),
        ["agent_id", "schemas", "resource_schema", "maps", "theta"],
    ),
    ("$.scenario.schemas.B[0]", ("scenario", "schemas", "B", 0), ["name"]),
    ("$.scenario.resources[0]", ("scenario", "resources", 0), ["id", "values"]),
    ("$.scenario.functionings[0]", ("scenario", "functionings", 0), ["id", "values"]),
    (
        "$.scenario.utilization[0]",
        ("scenario", "utilization", 0),
        ["pattern_id", "resource_id", "output"],
    ),
    (
        "$.scenario.utilization[0].guards[0]",
        ("scenario", "utilization", 0, "guards", 0),
        ["context", "component", "min"],
    ),
    ("$.scenario.maps.v", ("scenario", "maps", "v"), ["form", "entries"]),
    ("$.scenario.maps.r", ("scenario", "maps", "r"), ["form", "matrix"]),
    (
        "$.interactions[0]",
        ("interactions", 0),
        [
            "id",
            "actor_id",
            "target",
            "deltas",
            "intent",
            "mechanisms",
            "actor_has_right",
            "communication_feasible",
            "proportionality_ok",
        ],
    ),
    ("$.traces[0]", ("traces", 0), ["id", "steps"]),
    (
        "$.traces[0].steps[0]",
        ("traces", 0, "steps", 0),
        ["interaction", "target_choice", "actor_desired"],
    ),
]


class TestMissingFields:
    """A missing required field is diagnosed once, at its parent; ``null``
    in its place is a type error at the field."""

    def test_full_doc_is_valid(self):
        parse_obj(_full_doc())

    @pytest.mark.parametrize(
        "parent, keys, field",
        [(p, k, f) for p, k, fields in REQUIRED_FIELDS for f in fields],
        ids=[f"{p}.{f}" for p, _, fields in REQUIRED_FIELDS for f in fields],
    )
    def test_missing_field_is_diagnosed_only_as_missing(self, parent, keys, field):
        obj = _full_doc()
        target = obj
        for key in keys:
            target = target[key]
        del target[field]
        with pytest.raises(DocumentError) as excinfo:
            parse_obj(obj)
        diagnostics = [(d.path, d.message) for d in excinfo.value.diagnostics]
        assert (parent, f"missing required field {field!r}") in diagnostics
        at_field = f"{parent}.{field}"
        assert [
            (path, message)
            for path, message in diagnostics
            if path == at_field or path.startswith((at_field + ".", at_field + "["))
        ] == []

    def test_null_is_still_a_type_error(self):
        obj = base_doc()
        obj["scenario"]["agent_id"] = None
        obj["scenario"]["theta"] = None
        with pytest.raises(DocumentError) as excinfo:
            parse_obj(obj)
        assert [(d.path, d.message) for d in excinfo.value.diagnostics] == [
            ("$.scenario.agent_id", "expected a non-empty string"),
            ("$.scenario.theta", "expected an array, got null"),
        ]


# Raw JSON of each kind, and the kind a diagnostic names it by.
JSON_KINDS = [
    ("{}", "object"),
    ("[]", "array"),
    ('"x"', "string"),
    ("1", "number"),
    ("1.5", "number"),
    ("1e99999", "number"),
    ("1" * 5000, "number"),
    ("true", "boolean"),
    ("null", "null"),
]


class TestJsonKindDiagnostics:
    """Misplaced values are named by their JSON kind, never by the Python
    type the decoder gave them."""

    POSITIONS = {
        "object": ("$.scenario.maps", ("scenario", "maps"), "an object"),
        "array": ("$.scenario.theta", ("scenario", "theta"), "an array"),
        "boolean": (
            "$.scenario.functionings[0].unreachable",
            ("scenario", "functionings", 0, "unreachable"),
            "true or false",
        ),
        "rational": (
            "$.scenario.characteristics.skill",
            ("scenario", "characteristics", "skill"),
            "a rational literal",
        ),
    }
    # What the rational position says of each kind it does not reject by kind.
    RATIONAL = {
        '"x"': "malformed rational literal 'x'",
        "1": None,
        "1.5": None,
        "1e99999": "rational literal '1e99999' is too large",
        "1" * 5000: "is too large",
        "true": "expected a rational literal, got boolean True",
    }

    @pytest.mark.parametrize("position", sorted(POSITIONS))
    @pytest.mark.parametrize(
        "raw, kind", JSON_KINDS, ids=[kind + ":" + raw[:8] for raw, kind in JSON_KINDS]
    )
    def test_kind_is_named(self, position, raw, kind):
        path, keys, expected = self.POSITIONS[position]
        obj = base_doc()
        target = obj
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = "@@"
        text = json.dumps(obj).replace('"@@"', raw)
        try:
            parse_document(text)
            diagnostics = []
        except DocumentError as exc:
            diagnostics = [(d.path, d.message) for d in exc.diagnostics]
        for _, message in diagnostics:
            for word in ("bytes", "Fraction", "OversizedLiteral", "NoneType"):
                assert word not in message
        if position == "rational" and raw in self.RATIONAL:
            want = self.RATIONAL[raw]
        elif position == kind or (position, kind) == ("rational", "number"):
            want = None
        else:
            want = f"expected {expected}, got {kind}"
        at_path = [message for p, message in diagnostics if p == path]
        if want is None:  # the kind fits; the value may still be wrong
            assert not any(f"expected {expected}" in m for m in at_path)
        else:
            assert len(at_path) == 1 and want in at_path[0], diagnostics


class TestScenarioValidation:
    def test_functioning_arity(self):
        obj = base_doc()
        obj["scenario"]["functionings"][0]["values"] = [1, 2]
        expect_error(obj, "functionings[0].values", "expected 1 components")

    def test_duplicate_functioning_id(self):
        obj = base_doc()
        obj["scenario"]["functionings"].append({"id": "b_a", "values": [3]})
        expect_error(obj, "functionings[2]", "duplicate functioning id")

    def test_duplicate_resource_id(self):
        obj = base_doc()
        obj["scenario"]["resources"].append({"id": "x0", "values": [2]})
        expect_error(obj, "resources[1]", "duplicate resource id 'x0'")

    def test_duplicate_pattern_id(self):
        obj = base_doc()
        obj["scenario"]["utilization"].append(
            {"pattern_id": "f_a", "resource_id": "x0", "output": "b_b"}
        )
        expect_error(obj, "utilization[2]", "duplicate pattern id 'f_a'")

    def test_empty_schema(self):
        obj = base_doc()
        obj["scenario"]["schemas"]["B"] = []
        expect_error(obj, "$.scenario.schemas.B", "at least one dimension")

    def test_missing_schema(self):
        obj = base_doc()
        del obj["scenario"]["schemas"]["E"]
        expect_error(obj, "$.scenario.schemas", "missing required schema 'E'")

    def test_duplicate_dimension_name(self):
        obj = base_doc()
        obj["scenario"]["schemas"]["B"] = [{"name": "doing"}, {"name": "doing"}]
        expect_error(obj, "schemas.B[1]", "duplicate dimension name")

    def test_utilization_unknown_resource(self):
        obj = base_doc()
        obj["scenario"]["utilization"][0]["resource_id"] = "x_ghost"
        expect_error(obj, "utilization[0].resource_id", "unknown resource id")

    def test_utilization_unknown_output(self):
        obj = base_doc()
        obj["scenario"]["utilization"][0]["output"] = "b_ghost"
        expect_error(obj, "utilization[0].output", "unknown functioning id")

    def test_guard_bad_context(self):
        obj = base_doc()
        obj["scenario"]["utilization"][0]["guards"] = [
            {"context": "environment", "component": "skill", "min": 1}
        ]
        expect_error(obj, "guards[0].context", "guard context must be one of")

    def test_guard_unknown_component(self):
        obj = base_doc()
        obj["scenario"]["utilization"][0]["guards"] = [
            {"context": "social", "component": "nope", "min": 1}
        ]
        expect_error(obj, "guards[0].component", "unknown social component")

    def test_map_missing(self):
        obj = base_doc()
        del obj["scenario"]["maps"]["r"]
        expect_error(obj, "$.scenario.maps", "missing required valuation map 'r'")

    def test_map_not_total(self):
        obj = base_doc()
        del obj["scenario"]["maps"]["v"]["entries"]["b_b"]
        expect_error(obj, "$.scenario.maps.v.entries", "not total")

    def test_map_entry_for_unknown_functioning(self):
        obj = base_doc()
        obj["scenario"]["maps"]["v"]["entries"]["b_ghost"] = [1]
        expect_error(obj, "maps.v.entries.b_ghost", "unknown functioning")

    def test_map_image_consistency(self):
        obj = base_doc()
        obj["scenario"]["functionings"][1]["values"] = [1]  # same as b_a
        obj["scenario"]["maps"]["v"]["entries"]["b_b"] = [9]
        obj["scenario"]["maps"]["r"]["entries"]["b_b"] = [1]
        expect_error(obj, "maps.v.entries", "equal values but different")

    def test_u_map_needs_schema(self):
        obj = base_doc()
        obj["scenario"]["maps"]["u"] = {
            "form": "table",
            "entries": {"b_a": [1], "b_b": [1]},
        }
        expect_error(obj, "$.scenario.maps.u", "needs schema 'U'")

    def test_linear_map_row_count(self):
        obj = base_doc()
        obj["scenario"]["maps"]["v"] = {"form": "linear", "matrix": [[1], [2]]}
        expect_error(obj, "maps.v.matrix", "expected 1 rows")

    def test_linear_map_row_width(self):
        obj = base_doc()
        obj["scenario"]["maps"]["v"] = {"form": "linear", "matrix": [[1, 2]]}
        expect_error(obj, "maps.v.matrix[0]", "expected 1 components")

    def test_linear_map_accepted(self):
        obj = base_doc()
        obj["scenario"]["maps"]["v"] = {"form": "linear", "matrix": [["1/2"]]}
        doc, _ = parse_obj(obj)
        fv = doc.scenario.functioning("b_b")
        assert doc.scenario.v.apply(fv) == (F(1),)

    def test_bad_map_form(self):
        obj = base_doc()
        obj["scenario"]["maps"]["v"]["form"] = "spline"
        expect_error(obj, "maps.v.form", "must be 'table' or 'linear'")

    def test_other_form_field_is_a_lenient_warning(self):
        obj = base_doc()
        obj["scenario"]["maps"]["v"]["matrix"] = [["garbage"]]
        obj["scenario"]["maps"]["r"] = {"form": "linear", "matrix": [[1]], "entries": "nonsense"}
        doc, warnings = parse_obj(obj, lenient=True)
        assert [str(w) for w in warnings] == [
            "warning: $.scenario.maps.v: unknown field 'matrix'; valid fields: entries, form",
            "warning: $.scenario.maps.r: unknown field 'entries'; valid fields: form, matrix",
        ]
        assert "matrix" not in json.loads(serialize_document(doc))["scenario"]["maps"]["v"]

    def test_theta_arity(self):
        obj = base_doc()
        obj["scenario"]["theta"] = [1, 1]
        expect_error(obj, "$.scenario.theta", "expected 1 components")

    def test_theta_p_arity(self):
        obj = base_doc()
        obj["scenario"]["theta_p"] = [1, 1]
        expect_error(obj, "$.scenario.theta_p", "expected 1 components")

    def test_orphan_functioning_warning(self):
        obj = base_doc()
        obj["scenario"]["functionings"].append({"id": "b_dream", "values": [5]})
        obj["scenario"]["maps"]["v"]["entries"]["b_dream"] = [1]
        obj["scenario"]["maps"]["r"]["entries"]["b_dream"] = [1]
        doc, warnings = parse_obj(obj)
        assert any("b_dream" in w.message for w in warnings)

    def test_unreachable_flag_suppresses_orphan_warning(self):
        obj = base_doc()
        obj["scenario"]["functionings"].append(
            {"id": "b_dream", "values": [5], "unreachable": True}
        )
        obj["scenario"]["maps"]["v"]["entries"]["b_dream"] = [1]
        obj["scenario"]["maps"]["r"]["entries"]["b_dream"] = [1]
        _, warnings = parse_obj(obj)
        assert not warnings


def _interaction_obj(**overrides):
    rec = {
        "id": "i_x",
        "actor_id": "beau",
        "target": "ada",
        "deltas": {},
        "intent": "unknown",
        "mechanisms": ["offer"],
        "actor_has_right": True,
        "communication_feasible": True,
        "proportionality_ok": True,
    }
    rec.update(overrides)
    return rec


class TestInteractionValidation:
    def test_minimal_interaction(self):
        obj = base_doc()
        obj["interactions"] = [_interaction_obj()]
        doc, _ = parse_obj(obj)
        assert doc.interactions[0].id == "i_x"
        assert doc.interactions[0].deltas == InteractionDeltas()

    def test_target_must_match_agent(self):
        obj = base_doc()
        obj["interactions"] = [_interaction_obj(target="someone_else")]
        expect_error(obj, "interactions[0].target", "scenario describes agent 'ada'")

    def test_unknown_intent_lists_valid_ones(self):
        obj = base_doc()
        obj["interactions"] = [_interaction_obj(intent="spite")]
        diag = expect_error(obj, "interactions[0].intent", "unknown intent")
        assert "benefit_target" in diag.message

    def test_unknown_mechanism_lists_valid_ones(self):
        obj = base_doc()
        obj["interactions"] = [_interaction_obj(mechanisms=["hypnosis"])]
        diag = expect_error(obj, "mechanisms[0]", "unknown mechanism")
        assert "persuasion" in diag.message

    def test_duplicate_interaction_id(self):
        obj = base_doc()
        obj["interactions"] = [_interaction_obj(), _interaction_obj()]
        expect_error(obj, "interactions[1].id", "duplicate interaction id")

    def test_threat_mechanism_requires_threat_scenario(self):
        obj = base_doc()
        obj["interactions"] = [_interaction_obj(mechanisms=["threat"])]
        expect_error(obj, "interactions[0]", "no threat_scenario")

    def test_info_mechanism_requires_believed_scenario(self):
        obj = base_doc()
        obj["interactions"] = [
            _interaction_obj(mechanisms=["misrepresentation"])
        ]
        expect_error(obj, "interactions[0]", "no believed_scenario")

    def test_promoted_outcome_must_exist(self):
        obj = base_doc()
        obj["interactions"] = [_interaction_obj(promoted_outcome="b_ghost")]
        expect_error(obj, "promoted_outcome", "unknown functioning id")

    def test_delta_unknown_field(self):
        obj = base_doc()
        obj["interactions"] = [_interaction_obj(deltas={"resources_set": []})]
        expect_error(obj, "interactions[0].deltas", "unknown field 'resources_set'")

    def test_delta_unknown_context_component(self):
        obj = base_doc()
        obj["interactions"] = [
            _interaction_obj(deltas={"characteristics_delta": {"nope": 1}})
        ]
        expect_error(obj, "characteristics_delta.nope", "unknown characteristic")

    def test_delta_added_pattern_unknown_output(self):
        obj = base_doc()
        obj["interactions"] = [
            _interaction_obj(
                deltas={
                    "utilization_added": [
                        {
                            "pattern_id": "f_new",
                            "resource_id": "x0",
                            "output": "b_ghost",
                        }
                    ]
                }
            )
        ]
        expect_error(obj, "utilization_added[0].output", "unknown functioning id")

    def test_delta_added_patterns_each_diagnosed(self):
        obj = base_doc()
        obj["interactions"] = [
            _interaction_obj(
                deltas={
                    "utilization_added": [
                        {"pattern_id": "f_1", "resource_id": "x0", "output": "b_ghost"},
                        {"pattern_id": "f_2", "resource_id": "x0", "output": "b_a"},
                        {"pattern_id": "f_2", "resource_id": "x0", "output": "b_b"},
                        {"pattern_id": "f_3", "resource_id": "x0", "output": "b_gone"},
                    ]
                }
            )
        ]
        with pytest.raises(DocumentError) as excinfo:
            parse_obj(obj)
        added = "$.interactions[0].deltas.utilization_added"
        assert [d.path for d in excinfo.value.diagnostics] == [
            f"{added}[0].output",
            f"{added}[2]",
            f"{added}[3].output",
        ]

    def test_estimate_image_consistency(self):
        obj = base_doc()
        obj["scenario"]["functionings"][1]["values"] = [1]  # same as b_a
        obj["scenario"]["maps"]["v"]["entries"]["b_b"] = [1]
        obj["interactions"] = [
            _interaction_obj(
                actor_estimate_of_target_values={
                    "form": "table",
                    "entries": {"b_a": [1], "b_b": [5]},
                }
            )
        ]
        with pytest.raises(DocumentError) as excinfo:
            parse_obj(obj)
        assert [str(d) for d in excinfo.value.diagnostics] == [
            "error: $.interactions[0].actor_estimate_of_target_values.entries: "
            "functionings 'b_a' and 'b_b' have equal values but different 'v' images"
        ]
        obj["interactions"][0]["actor_estimate_of_target_values"]["entries"]["b_b"] = [1]
        doc, _ = parse_obj(obj)
        assert doc.interactions[0].actor_estimate_of_target_values.entries["b_b"] == (F(1),)

    def test_delta_added_resource_reference_deferred(self):
        # The added pattern's resource may come from an earlier trace step,
        # so its presence is checked at application time, not parse time.
        obj = base_doc()
        obj["interactions"] = [
            _interaction_obj(
                deltas={
                    "utilization_added": [
                        {
                            "pattern_id": "f_new",
                            "resource_id": "x_future",
                            "output": "b_a",
                        }
                    ]
                }
            )
        ]
        doc, _ = parse_obj(obj)
        assert doc.interactions[0].deltas.utilization_added[0].resource_id == "x_future"

    def test_override_schema_mismatch(self):
        obj = base_doc()
        believed = copy.deepcopy(obj["scenario"])
        believed["schemas"]["P"] = [{"name": "other"}]
        obj["interactions"] = [
            _interaction_obj(
                mechanisms=["information_filtering"], believed_scenario=believed
            )
        ]
        expect_error(
            obj, "believed_scenario.schemas.P", "same P dimensions"
        )

    def test_override_theta_mismatch(self):
        obj = base_doc()
        threat = copy.deepcopy(obj["scenario"])
        threat["theta"] = [2]
        obj["interactions"] = [
            _interaction_obj(
                mechanisms=["threat"],
                actor_has_right=False,
                threat_scenario=threat,
            )
        ]
        expect_error(obj, "threat_scenario.theta", "same entitlement thresholds")

    def test_override_agent_mismatch_is_a_warning(self):
        obj = base_doc()
        believed = copy.deepcopy(obj["scenario"])
        believed["agent_id"] = "imposter"
        obj["interactions"] = [
            _interaction_obj(
                mechanisms=["information_filtering"], believed_scenario=believed
            )
        ]
        doc, warnings = parse_obj(obj)
        assert any("imposter" in w.message for w in warnings)

    def test_threat_u_parity(self):
        obj = base_doc()
        obj["scenario"]["schemas"]["U"] = [{"name": "mood"}]
        obj["scenario"]["maps"]["u"] = {
            "form": "table",
            "entries": {"b_a": [1], "b_b": [1]},
        }
        threat = copy.deepcopy(base_doc()["scenario"])  # no u map
        obj["interactions"] = [
            _interaction_obj(
                mechanisms=["threat"],
                actor_has_right=False,
                threat_scenario=threat,
            )
        ]
        expect_error(obj, "threat_scenario.maps", "exactly when the main scenario")

    def test_duplicate_mechanism_warning(self):
        obj = base_doc()
        obj["interactions"] = [_interaction_obj(mechanisms=["offer", "offer"])]
        doc, warnings = parse_obj(obj)
        assert doc.interactions[0].mechanisms == ("offer",)
        assert any("duplicate mechanism" in w.message for w in warnings)


class TestTraceValidation:
    def _doc_with_trace(self, steps):
        obj = base_doc()
        obj["interactions"] = [_interaction_obj()]
        obj["traces"] = [{"id": "t0", "steps": steps}]
        return obj

    def test_valid_trace(self):
        obj = self._doc_with_trace(
            [{"interaction": "i_x", "target_choice": "b_a", "actor_desired": "b_b"}]
        )
        doc, _ = parse_obj(obj)
        assert doc.traces[0].steps[0].interaction == "i_x"

    def test_empty_steps(self):
        obj = self._doc_with_trace([])
        expect_error(obj, "traces[0].steps", "at least one step")

    def test_unknown_interaction(self):
        obj = self._doc_with_trace(
            [{"interaction": "i_ghost", "target_choice": "b_a", "actor_desired": "b_a"}]
        )
        expect_error(obj, "steps[0].interaction", "unknown interaction id")

    def test_unknown_choice(self):
        obj = self._doc_with_trace(
            [{"interaction": "i_x", "target_choice": "b_ghost", "actor_desired": "b_a"}]
        )
        expect_error(obj, "steps[0].target_choice", "unknown functioning id")

    def test_duplicate_trace_id(self):
        obj = self._doc_with_trace(
            [{"interaction": "i_x", "target_choice": "b_a", "actor_desired": "b_a"}]
        )
        obj["traces"].append(copy.deepcopy(obj["traces"][0]))
        expect_error(obj, "traces[1].id", "duplicate trace id")


def _two_bad_dimensions(obj):
    obj["scenario"]["resource_schema"] = [{"name": ""}, {"name": "stuff"}, {"name": "stuff"}]
    return ["$.scenario.resource_schema[0].name", "$.scenario.resource_schema[2]"]


def _two_bad_ids(obj):
    obj["interactions"] = [_interaction_obj(deltas={"resources_removed": [1, "x0", "x0"]})]
    removed = "$.interactions[0].deltas.resources_removed"
    return [f"{removed}[0]", f"{removed}[2]"]


def _two_bad_rows(obj):
    obj["scenario"]["schemas"]["P"].append({"name": "also_valued"})
    obj["scenario"]["maps"]["v"] = {"form": "linear", "matrix": [[1, 2], ["x"]]}
    return ["$.scenario.maps.v.matrix[0]", "$.scenario.maps.v.matrix[1][0]"]


def _two_bad_steps(obj):
    obj["interactions"] = [_interaction_obj()]
    steps = [
        {"interaction": "i_ghost", "target_choice": "b_a", "actor_desired": "b_a"},
        {"interaction": "i_x", "target_choice": "b_a", "actor_desired": "b_a"},
        {"interaction": "i_x", "target_choice": "b_ghost", "actor_desired": "b_a"},
    ]
    obj["traces"] = [{"id": "t0", "steps": steps}]
    return ["$.traces[0].steps[0].interaction", "$.traces[0].steps[2].target_choice"]


def _two_bad_components(obj):
    obj["scenario"]["theta"] = ["x", 1, "1/0"]
    return ["$.scenario.theta[0]", "$.scenario.theta[2]"]


def _two_bad_mechanisms(obj):
    obj["interactions"] = [_interaction_obj(mechanisms=["bogus", 3, "offer"])]
    return ["$.interactions[0].mechanisms[0]", "$.interactions[0].mechanisms[1]"]


class TestEveryBadItem:
    """Every item of a list is walked: a list with two bad items reports both,
    each at its own path."""

    @pytest.mark.parametrize(
        "mutate",
        [
            _two_bad_dimensions,
            _two_bad_ids,
            _two_bad_rows,
            _two_bad_steps,
            _two_bad_components,
            _two_bad_mechanisms,
        ],
        ids=["dimensions", "ids", "matrix", "steps", "vector", "mechanisms"],
    )
    def test_both_bad_items_are_diagnosed(self, mutate):
        obj = base_doc()
        paths = mutate(obj)
        with pytest.raises(DocumentError) as excinfo:
            parse_obj(obj)
        assert [d.path for d in excinfo.value.diagnostics] == paths

    def test_long_id_list_parses_in_linear_time(self):
        # 100k ids parse in ~0.1 s on a 2-core machine; a list scan per id
        # would take about a minute.
        ids = [f"f_{i}" for i in range(100_000)]
        obj = base_doc()
        obj["interactions"] = [_interaction_obj(deltas={"utilization_removed": ids})]
        text = json.dumps(obj)
        started = time.perf_counter()
        doc, _ = parse_document(text)
        assert time.perf_counter() - started < 10.0
        assert doc.interactions[0].deltas.utilization_removed == tuple(sorted(ids))


class TestDeepValidation:
    def test_standalone_delta_failure_is_reported(self):
        obj = base_doc()
        obj["interactions"] = [
            _interaction_obj(deltas={"resources_removed": ["x_ghost"]})
        ]
        doc, _ = parse_obj(obj)
        problems = deep_validate(doc)
        assert problems and "x_ghost" in problems[0].message

    def test_unchained_trace_is_reported(self):
        obj = base_doc()
        obj["interactions"] = [
            _interaction_obj(deltas={"resources_removed": ["x0"]})
        ]
        obj["traces"] = [
            {
                "id": "t0",
                "steps": [
                    {
                        "interaction": "i_x",
                        "target_choice": "b_a",
                        "actor_desired": "b_a",
                    }
                ],
            }
        ]
        doc, _ = parse_obj(obj)
        problems = deep_validate(doc)
        assert problems
        assert any("not realizable" in p.message for p in problems)

    def test_clean_document_has_no_problems(self):
        doc, _ = parse_document((FIXTURES / "domination.trc").read_text())
        assert deep_validate(doc) == []


class TestRoundTrip:
    def test_fixture_round_trips(self):
        for name in sorted(FIXTURES.glob("*.scn")) + sorted(FIXTURES.glob("*.trc")):
            text = name.read_text()
            doc, _ = parse_document(text)
            out = serialize_document(doc)
            doc2, _ = parse_document(out)
            assert doc2 == doc, name
            assert serialize_document(doc2) == out, name

    def test_canonical_form_normalizes_literals(self):
        obj = base_doc()
        obj["scenario"]["theta"] = ["2/4"]
        obj["scenario"]["resources"][0]["values"] = ["6/3"]
        doc, _ = parse_obj(obj)
        out = serialize_document(doc)
        assert out.endswith("\n")
        raw = json.loads(out)
        assert raw["scenario"]["theta"] == ["1/2"]
        assert raw["scenario"]["resources"][0]["values"] == [2]
        round2, _ = parse_document(out)
        assert round2.scenario.resources[0].values == (F(2),)

    def test_collections_are_sorted_on_parse(self):
        obj = base_doc()
        obj["scenario"]["functionings"] = list(
            reversed(obj["scenario"]["functionings"])
        )
        obj["scenario"]["utilization"] = list(
            reversed(obj["scenario"]["utilization"])
        )
        doc, _ = parse_obj(obj)
        assert [fv.id for fv in doc.scenario.functionings] == ["b_a", "b_b"]
        assert [u.pattern_id for u in doc.scenario.utilization] == ["f_a", "f_b"]

    def test_serialize_scenario_alone(self):
        doc, _ = parse_document((FIXTURES / "grocery.scn").read_text())
        text = serialize_scenario(doc.scenario)
        assert text.startswith("{")
        assert '"agent_id": "rosa"' in text

    # (keys of the parent object in _full_doc(), optional field, a value other
    # than its default, its default): a default of None is not written at all.
    OPTIONAL = [
        (("scenario", "schemas", "B", 0), "description", "prose", ""),
        (("scenario", "schemas"), "U", [{"name": "comfort"}], None),
        (("scenario", "functionings", 1), "unreachable", True, False),
        (("scenario", "maps"), "u", {"form": "table", "entries": {"b_a": [0], "b_b": [1]}}, None),
        (("scenario",), "theta_p", [1], None),
        (("interactions", 0, "deltas"), "resources_added", [{"id": "x1", "values": [2]}], []),
        (("interactions", 0, "deltas"), "resources_removed", ["x0"], []),
        (("interactions", 0, "deltas"), "characteristics_delta", {"skill": 1}, {}),
        (("interactions", 0, "deltas"), "social_delta", {"support": "-1/2"}, {}),
        (
            ("interactions", 0, "deltas"),
            "utilization_added",
            [{"pattern_id": "f_c", "resource_id": "x1", "output": "b_a"}],
            [],
        ),
        (("interactions", 0, "deltas"), "utilization_removed", ["f_a"], []),
        (("interactions", 0), "unfair_terms", True, False),
        (("interactions", 0), "promoted_outcome", "b_b", None),
        (
            ("interactions", 0),
            "actor_estimate_of_target_values",
            {"form": "table", "entries": {"b_a": [2], "b_b": [1]}},
            None,
        ),
        (("interactions", 0), "believed_scenario", "<scenario>", None),
        (("interactions", 0), "threat_scenario", "<scenario>", None),
    ]

    def _with_optional(self, pick) -> str:
        """``_full_doc()`` with each optional field set to ``pick(value, default)``
        (left out where that is None), serialized canonically."""
        obj = _full_doc()
        for keys, field, value, default in self.OPTIONAL:
            target = obj
            for key in keys:
                target = target[key]
            chosen = pick(value, default)
            if chosen == "<scenario>":
                chosen = copy.deepcopy(obj["scenario"])
            if chosen is not None:
                target[field] = chosen
        doc, _ = parse_obj(obj)
        return serialize_document(doc)

    def _present(self, text) -> list[bool]:
        out = json.loads(text)
        present = []
        for keys, field, _, _ in self.OPTIONAL:
            target = out
            for key in keys:
                target = target[key]
            present.append(field in target)
        return present

    def test_every_optional_field_round_trips(self):
        text = self._with_optional(lambda value, default: value)
        doc, _ = parse_document(text)
        assert serialize_document(doc) == text
        assert self._present(text) == [True] * len(self.OPTIONAL)
        record = json.loads(text)["interactions"][0]
        assert record["believed_scenario"] == json.loads(text)["scenario"]
        assert record["believed_scenario"]["maps"]["r"] == {"form": "linear", "matrix": [[1]]}

        bare = self._with_optional(lambda value, default: default)
        assert self._present(bare) == [False] * len(self.OPTIONAL)
        doc, _ = parse_document(bare)
        assert serialize_document(doc) == bare

    @given(st.integers(min_value=0, max_value=10_000))
    def test_generated_documents_round_trip(self, seed):
        rng = random.Random(seed)
        scenario = genlib.scenario(rng)
        doc = ScenarioDocument(
            format_version=1,
            scenario=scenario,
            interactions=(),
            traces=(),
        )
        text = serialize_document(doc)
        parsed, _ = parse_document(text)
        assert parsed == doc
        assert serialize_document(parsed) == text


# ---------------------------------------------------------------------------
# Verbatim copies at the JSON layer
# ---------------------------------------------------------------------------


# The hooks the parser decodes with, for the plain ``json.loads`` reference.
_HOOKS = dict(
    parse_float=json_decimal,
    parse_int=json_integer,
    parse_constant=scenario_io._reject_constant,
    object_pairs_hook=scenario_io._pairs_hook,
)

_FIXTURE_SCENARIOS = [
    json.loads(path.read_text())["scenario"]
    for path in sorted(FIXTURES.glob("*.scn")) + sorted(FIXTURES.glob("*.trc"))
]

_COPY_KINDS = ("verbatim", "near-end", "reindented", "reordered", "int", "bool", "str")


def _copy_text(scenario: dict, kind: str) -> str:
    """The text of a copy of ``scenario``: verbatim, with its last digit
    changed (a near-copy), written differently, or with one more field
    whose value is ``1``, ``true`` or ``"1"``."""
    text = json.dumps(scenario)
    if kind == "verbatim":
        return text
    if kind == "near-end":
        i = max(i for i, c in enumerate(text) if c.isdigit())
        return text[:i] + ("2" if text[i] == "1" else "1") + text[i + 1 :]
    if kind == "reindented":
        return json.dumps(scenario, indent=1)
    if kind == "reordered":
        return json.dumps(dict(reversed(scenario.items())))
    return json.dumps(dict(scenario, note={"int": 1, "bool": True, "str": "1"}[kind]))


@pytest.fixture
def scanned(monkeypatch):
    """Every value the C scanner decodes while the test runs."""
    make_scanner = json.scanner.make_scanner
    out = []

    def make(context):
        scan = make_scanner(context)

        def counted(s, idx):
            value, end = scan(s, idx)
            out.append(value)
            return value, end

        return counted

    monkeypatch.setattr(json.scanner, "make_scanner", make)
    return out


class _ComparedText(str):
    """A document text that counts the object texts compared against it."""

    compared = 0

    def startswith(self, prefix, *args):
        self.compared += len(prefix) > 1  # one-character prefixes test a kind
        return str.startswith(self, prefix, *args)


class TestVerbatimCopies:
    """An object value of the document or of a record that repeats earlier
    text verbatim is decoded once, as the object first decoded from it; a
    copy written differently is decoded again and shares through the
    scenario memo's marshal key."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        st.sampled_from(_FIXTURE_SCENARIOS),
        st.lists(
            st.tuples(
                st.sampled_from(_COPY_KINDS),
                st.sampled_from(("believed_scenario", "threat_scenario")),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_decode_equals_json_loads_and_shares_only_verbatim_copies(self, scenario, plan):
        texts = [json.dumps(scenario)] + [_copy_text(scenario, kind) for kind, _ in plan]
        records = ", ".join(
            f'{{"id": "i_{k}", "{field}": {texts[k + 1]}}}' for k, (_, field) in enumerate(plan)
        )
        text = (
            f'{{"format_version": 1, "scenario": {texts[0]}, "interactions": [{records}], '
            '"traces": [{"id": "t", "steps": []}]}'
        )
        decoded = scenario_io._decode(text)
        assert _same(decoded, json.loads(text, **_HOOKS))
        objects = [decoded["scenario"]] + [
            rec[field] for rec, (_, field) in zip(decoded["interactions"], plan)
        ]
        for i in range(len(texts)):
            for j in range(i):
                assert (objects[i] is objects[j]) == (texts[i] == texts[j]), (plan, i, j)

    def test_copies_are_neither_decoded_nor_marshalled(self, scanned, monkeypatch):
        obj = json.loads((FIXTURES / "domination.trc").read_text())
        main = obj["scenario"]
        worlds = [main] + [dict(main, characteristics={"energy": k}) for k in (2, 3, 4)]
        record = obj["interactions"][0]
        obj["interactions"] = [
            dict(record, id=f"i_{k}", believed_scenario=worlds[k % 4]) for k in range(16)
        ]
        obj["traces"] = [
            {
                "id": "t",
                "steps": [
                    {"interaction": f"i_{k}", "target_choice": "b_rally", "actor_desired": "b_rally"}
                    for k in range(16)
                ],
            }
        ]
        keyed = []

        def dumps(value, version):
            if type(value) is dict and "agent_id" in value:
                keyed.append(value)
            return marshal.dumps(value, version)

        monkeypatch.setattr(scenario_io, "marshal", types.SimpleNamespace(dumps=dumps))
        doc, _ = parse_document(json.dumps(obj))
        decoded = [v for v in scanned if type(v) is dict and "agent_id" in v]
        assert decoded == worlds
        # The four fingerprints differ, so each world is keyed by its
        # fingerprint alone and none is marshalled whole.
        assert keyed == [scenario_io._shape(world) for world in worlds]
        recs = doc.records_by_id()
        assert recs["i_0"].believed_scenario is doc.scenario
        for k in range(4, 16):
            assert recs[f"i_{k}"].believed_scenario is recs[f"i_{k % 4}"].believed_scenario

    def test_lookup_is_bounded_on_shared_prefixes(self, scanned):
        # 4,000 distinct threat worlds share a 2,000-character prefix.  Each
        # object value is compared with at most _RECENT_SPANS earlier texts,
        # and a failed comparison stops within the new text, so the decode
        # is linear; comparing with every earlier text would be quadratic.
        prefix = "x" * 2000
        records = [
            {"id": f"i_{k}", "deltas": {}, "threat_scenario": {"agent_id": f"{prefix}{k}"}}
            for k in range(4000)
        ]
        text = _ComparedText(json.dumps({"format_version": 1, "interactions": records}))
        decoded = scenario_io._decode(text)
        assert text.compared <= scenario_io._RECENT_SPANS * 2 * 4000
        assert sum(type(v) is dict for v in scanned) == 4001  # one `{}` deltas
        assert _same(decoded, json.loads(text, **_HOOKS))


_DOC = json.dumps(dict(base_doc(), interactions=[_interaction_obj()]))
_REC = json.dumps(_interaction_obj())

# Each input's diagnostics, as ``json.loads`` gave them before verbatim
# copies were shared; the parser must print them byte for byte.  A decode
# error keeps json's whole message, colons included (``missing-colon``).
_JSON_DIAGNOSTICS = {
    "empty": ("", "line 1, column 1: not valid JSON: Expecting value"),
    "whitespace": (" \n\t ", "line 2, column 3: not valid JSON: Expecting value"),
    "extra-data": (_DOC + " {}", "line 1, column 868: not valid JSON: Extra data"),
    "truncated": (
        _DOC[: _DOC.index('"mechanisms"')],
        "line 1, column 756: not valid JSON: Expecting property name enclosed in double quotes",
    ),
    "duplicate-top": (
        _DOC.replace('"format_version": 1', '"format_version": 1, "format_version": 1'),
        "$: duplicate object key 'format_version'",
    ),
    "duplicate-record": (
        _DOC.replace('"id": "i_x"', '"id": "i_x", "id": "i_y"'),
        "$: duplicate object key 'id'",
    ),
    "trailing-comma-object": (
        _DOC.replace('"proportionality_ok": true}', '"proportionality_ok": true, }'),
        "line 1, column 866: not valid JSON: Expecting property name enclosed in double quotes",
    ),
    "trailing-comma-array": (
        _DOC.replace('"proportionality_ok": true}]', '"proportionality_ok": true}, ]'),
        "line 1, column 867: not valid JSON: Expecting value",
    ),
    "nan": (
        _DOC.replace('"deltas": {}', '"deltas": NaN'),
        "document: not valid JSON: non-finite literal NaN",
    ),
    "deep-scenario": (
        _DOC.replace('"theta": [1]', '"theta": ' + "[" * 5000 + "]" * 5000),
        "document: not valid JSON: nesting too deep",
    ),
    "deep-record": (
        _DOC.replace('"deltas": {}', '"deltas": ' + "[" * 5000 + "]" * 5000),
        "document: not valid JSON: nesting too deep",
    ),
    "bad-escape": (
        _DOC.replace('"beau"', '"be\\qau"'),
        "line 1, column 699: not valid JSON: Invalid \\escape",
    ),
    "control-character": (
        _DOC.replace('"beau"', '"be\x01au"'),
        "line 1, column 699: not valid JSON: Invalid control character at",
    ),
    "missing-colon": (
        _DOC.replace('"intent": "unknown"', '"intent" "unknown"'),
        "line 1, column 744: not valid JSON: Expecting ':' delimiter",
    ),
    "missing-comma-record": (
        _DOC.replace('"intent": "unknown",', '"intent": "unknown"'),
        "line 1, column 755: not valid JSON: Expecting ',' delimiter",
    ),
    "missing-comma-array": (
        _DOC.replace(_REC, _REC + " " + _REC.replace("i_x", "i_y")),
        "line 1, column 866: not valid JSON: Expecting ',' delimiter",
    ),
    "long-version": (
        _DOC.replace('"format_version": 1', '"format_version": ' + "7" * 5000),
        f"$.format_version: unsupported format_version '{'7' * 40}'... (5000 characters); "
        "this build reads version 1",
    ),
}


class TestJsonDiagnostics:
    @pytest.mark.parametrize("name", list(_JSON_DIAGNOSTICS))
    def test_diagnostic_is_unchanged_and_bounded(self, name):
        text, expected = _JSON_DIAGNOSTICS[name]
        with pytest.raises(DocumentError) as excinfo:
            parse_document(text)
        lines = [str(d) for d in excinfo.value.diagnostics]
        assert lines == [f"error: {expected}"]
        assert all(len(line) < 200 for line in lines)
