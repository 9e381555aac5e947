"""Scenario document parsing, validation, and canonical serialization.

The wire format is a single JSON document with a versioned schema
(``format_version: 1``) describing one agent's scenario plus any
interaction records and traces over it.  Rational literals are JSON
numbers or strings in integer, decimal, or ``p/q`` form; a decimal number
is read from its text like a decimal string, never as a binary float.
Non-finite literals are rejected outright.

Parsing is strict: unknown fields, dangling references, non-total valuation
tables, and malformed literals are all located errors.  ``lenient=True``
downgrades exactly one class of error -- unknown fields -- to warnings, for
forward compatibility with documents written against newer minor revisions.

Serialization is canonical: collections are id-sorted, object keys are
sorted, rationals are emitted in lowest terms, and the text ends with a
newline, so equal documents serialize to identical bytes and
``parse(serialize(doc)) == doc``.
"""

from __future__ import annotations

import json
import marshal
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .errors import DocumentError, SchemaError
from .judgments.records import (
    InteractionDeltas,
    InteractionRecord,
    Trace,
    TraceStep,
    apply_interaction,
    materialize_trace,
)
from .errors import DeltaError, TraceError
from .model.types import (
    GUARD_CONTEXTS,
    INTENTS,
    MECHANISMS,
    Dimension,
    DimensionSchema,
    FunctioningVector,
    Guard,
    ResourceVector,
    Scenario,
    ThresholdVector,
    UtilizationEntry,
    ValuationMap,
    value_key_of,
)
from .rationals import (
    _ECHO_CHARS,
    _echo,
    exceeds_digit_limit,
    format_rational,
    json_decimal,
    json_integer,
    json_kind,
    parse_rational,
)

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Diagnostic:
    """One located problem with a document."""

    severity: str  # "error" | "warning"
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.path}: {self.message}"


@dataclass(frozen=True)
class ScenarioDocument:
    """A parsed document: the scenario plus its interactions and traces."""

    format_version: int
    scenario: Scenario
    interactions: tuple[InteractionRecord, ...]
    traces: tuple[Trace, ...]

    def interaction(self, rec_id: str) -> InteractionRecord:
        for rec in self.interactions:
            if rec.id == rec_id:
                return rec
        raise SchemaError(f"document has no interaction {rec_id!r}")

    def trace(self, trace_id: str) -> Trace:
        for trace in self.traces:
            if trace.id == trace_id:
                return trace
        raise SchemaError(f"document has no trace {trace_id!r}")

    def records_by_id(self) -> dict[str, InteractionRecord]:
        return {rec.id: rec for rec in self.interactions}


class _DuplicateKey(Exception):
    def __init__(self, key):
        self.key = key


def _pairs_hook(pairs):
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise _DuplicateKey(key)
            seen.add(key)
    return obj


def _reject_constant(name):
    raise ValueError(f"non-finite literal {name}")


# What ``require`` returns for a missing field.  The field is diagnosed
# there, so the shape helpers return None for it without a second message.
_MISSING = object()

_TOO_DEEP = Diagnostic("error", "document", "not valid JSON: nesting too deep")

# Decoded kinds that are never a version, named as the diagnostic names them.
_NOT_A_VERSION = {bool: "a boolean", dict: "an object", list: "an array", type(None): "null"}


def _equal_value_pairs(functionings) -> list[tuple[str, str]]:
    """(first id, later id) for each functioning whose values equal those
    of an earlier one in the list."""
    first: dict[tuple[int, ...], str] = {}
    pairs = []
    for fv in functionings:
        prior = first.setdefault(fv.value_key, fv.id)
        if prior != fv.id:
            pairs.append((prior, fv.id))
    return pairs


class _Parser:
    """Accumulates located diagnostics while walking the document tree.

    A document repeats a few distinct literals and vectors many times, and
    its interaction records repeat whole scenarios (a believed world equal
    to the true one, one threat world per record).  Each of these is walked
    once per distinct raw value (:meth:`memo`): equal copies share one
    result, so equal scenario subtrees parse to one :class:`Scenario` whose
    derived sets are then computed once.
    """

    def __init__(self, lenient: bool):
        self.lenient = lenient
        self.diagnostics: list[Diagnostic] = []
        self._rationals: dict[bytes, tuple] = {}
        self._vectors: dict[bytes, tuple] = {}
        self._scenarios: dict[bytes, tuple] = {}
        self._value_keys: dict[int, tuple] = {}

    # -- diagnostics -------------------------------------------------------

    def error(self, path: str, message: str) -> None:
        self.diagnostics.append(Diagnostic("error", path, message))

    def warning(self, path: str, message: str) -> None:
        self.diagnostics.append(Diagnostic("warning", path, message))

    @property
    def failed(self) -> bool:
        return any(d.severity == "error" for d in self.diagnostics)

    # -- generic shape helpers --------------------------------------------

    def mistyped(self, value, path, expected: str) -> None:
        """Diagnose a value of the wrong JSON kind (``_MISSING`` already was)."""
        if value is not _MISSING:
            self.error(path, f"expected {expected}, got {json_kind(value)}")

    def obj(self, value, path) -> Optional[dict]:
        return value if isinstance(value, dict) else self.mistyped(value, path, "an object")

    def array(self, value, path) -> Optional[list]:
        return value if isinstance(value, list) else self.mistyped(value, path, "an array")

    def string(self, value, path) -> Optional[str]:
        if not isinstance(value, str) or not value:
            if value is not _MISSING:
                self.error(path, "expected a non-empty string")
            return None
        return value

    def boolean(self, value, path) -> Optional[bool]:
        return value if isinstance(value, bool) else self.mistyped(value, path, "true or false")

    def memo(self, cache: dict, walk, raw, path: str):
        """``walk(raw, path)``, run once per distinct ``raw`` in ``cache``.

        Raw values are keyed by ``marshal.dumps(raw, 2)``, not compared by
        ``==``: ``True == 1``, yet only the integer is a valid rational and
        only the boolean a valid flag.  Marshal writes a distinct type code
        for each (and for ``bytes``, the raw form of a non-int number, apart
        from ``str``), so equal bytes mean the same types and values in the
        same key order, hence the same walk; version 2 writes no interning
        marks, so the bytes depend on the value alone.  A walk depends on
        ``raw`` and ``lenient`` alone and each of its diagnostics lies under
        ``path``, so a hit re-emits the first walk's diagnostics under its
        own path: exactly what a fresh walk would.  Results are immutable,
        so copies may share them.
        """
        try:
            key = marshal.dumps(raw, 2)
        except ValueError:  # nested past marshal's bound (a raised recursion limit)
            raise DocumentError([_TOO_DEEP]) from None
        hit = cache.get(key)
        if hit is None:
            before = len(self.diagnostics)
            result = walk(raw, path)
            found = tuple(replace(d, path=d.path[len(path):]) for d in self.diagnostics[before:])
            hit = cache[key] = (result, found)
        elif hit[1]:
            self.diagnostics += [replace(d, path=path + d.path) for d in hit[1]]
        return hit[0]

    def rational(self, value, path) -> Optional[Fraction]:
        if value is _MISSING:
            return None
        return self.memo(self._rationals, self._walk_rational, value, path)

    def _walk_rational(self, value, path) -> Optional[Fraction]:
        try:
            return parse_rational(value)
        except SchemaError as exc:
            self.error(path, str(exc))
            return None

    def require(self, obj: dict, key: str, path: str):
        if key not in obj:
            self.error(path, f"missing required field {key!r}")
            return _MISSING
        return obj[key]

    def check_fields(self, obj: dict, allowed, path: str) -> None:
        for key in obj:
            if key not in allowed:
                message = (
                    f"unknown field {key!r}; valid fields: "
                    + ", ".join(sorted(allowed))
                )
                if self.lenient:
                    self.warning(path, message)
                else:
                    self.error(path, message)

    def rational_vector(self, value, path, length=None) -> Optional[tuple]:
        arr = self.array(value, path)
        if arr is None:
            return None
        out = self.memo(self._vectors, self._walk_vector, arr, path)
        if out is not None and length is not None and len(out) != length:
            self.error(path, f"expected {length} components, got {len(out)}")
            return None
        return out

    def _walk_vector(self, arr: list, path) -> Optional[tuple]:
        items = []
        for i, item in enumerate(arr):
            rat = self.rational(item, f"{path}[{i}]")
            if rat is None:
                return None
            items.append(rat)
        return tuple(items)

    def value_key(self, values: tuple) -> tuple[int, ...]:
        """``value_key_of(values)``, built once per distinct parsed vector.

        :meth:`rational_vector` returns one tuple per distinct literal
        vector, so the tuple's identity is the cache key; each entry holds
        its tuple, so no identity is reused while the parser lives.
        """
        hit = self._value_keys.get(id(values))
        if hit is None:
            hit = self._value_keys[id(values)] = (values, value_key_of(values))
        return hit[1]

    def named_rationals(self, value, path) -> Optional[dict]:
        obj = self.obj(value, path)
        if obj is None:
            return None
        out = {}
        ok = True
        for name, raw in obj.items():
            rat = self.rational(raw, f"{path}.{name}")
            if rat is None:
                ok = False
            else:
                out[name] = rat
        return out if ok else None

    # -- schemas -----------------------------------------------------------

    def dimension_list(self, value, path) -> Optional[tuple[Dimension, ...]]:
        arr = self.array(value, path)
        if arr is None:
            return None
        dims = []
        seen = set()
        for i, item in enumerate(arr):
            dpath = f"{path}[{i}]"
            obj = self.obj(item, dpath)
            if obj is None:
                return None
            self.check_fields(obj, {"name", "description"}, dpath)
            name = self.string(self.require(obj, "name", dpath), f"{dpath}.name")
            if name is None:
                return None
            if name in seen:
                self.error(dpath, f"duplicate dimension name {name!r}")
                return None
            seen.add(name)
            description = obj.get("description", "")
            if not isinstance(description, str):
                self.error(f"{dpath}.description", "expected a string")
                description = ""
            dims.append(Dimension(name=name, description=description))
        if not dims:
            self.error(path, "a dimension schema needs at least one dimension")
            return None
        return tuple(dims)

    # -- scenario ----------------------------------------------------------

    SCENARIO_FIELDS = {
        "agent_id",
        "schemas",
        "resource_schema",
        "resources",
        "characteristics",
        "social",
        "functionings",
        "utilization",
        "maps",
        "theta",
        "theta_p",
    }

    def scenario(self, value, path) -> Optional[Scenario]:
        obj = self.obj(value, path)
        if obj is None:
            return None
        return self.memo(self._scenarios, self._walk_scenario, obj, path)

    def _walk_scenario(self, obj: dict, path) -> Optional[Scenario]:
        self.check_fields(obj, self.SCENARIO_FIELDS, path)

        agent_id = self.string(
            self.require(obj, "agent_id", path), f"{path}.agent_id"
        )

        schemas_obj = self.obj(self.require(obj, "schemas", path), f"{path}.schemas")
        schemas: dict[str, DimensionSchema] = {}
        if schemas_obj is not None:
            self.check_fields(schemas_obj, {"B", "E", "P", "U"}, f"{path}.schemas")
            for space in ("B", "E", "P"):
                if space not in schemas_obj:
                    self.error(f"{path}.schemas", f"missing required schema {space!r}")
                    continue
                dims = self.dimension_list(schemas_obj[space], f"{path}.schemas.{space}")
                if dims is not None:
                    schemas[space] = DimensionSchema(space_id=space, dims=dims)
            if "U" in schemas_obj:
                dims = self.dimension_list(schemas_obj["U"], f"{path}.schemas.U")
                if dims is not None:
                    schemas["U"] = DimensionSchema(space_id="U", dims=dims)
        if not all(space in schemas for space in ("B", "E", "P")):
            return None

        resource_schema = self.dimension_list(
            self.require(obj, "resource_schema", path), f"{path}.resource_schema"
        )
        if resource_schema is None:
            return None

        resources = self.resource_list(
        obj.get("resources", []), f"{path}.resources", len(resource_schema)
        )

        characteristics = self.named_rationals(
            obj.get("characteristics", {}), f"{path}.characteristics"
        )
        social = self.named_rationals(obj.get("social", {}), f"{path}.social")

        functionings = self.functioning_list(
            obj.get("functionings", []), f"{path}.functionings", len(schemas["B"])
        )
        if functionings is None or resources is None:
            return None
        fv_ids = {fv.id for fv in functionings}

        utilization = self.utilization_list(
            obj.get("utilization", []),
            f"{path}.utilization",
            {res.id for res in resources},
            fv_ids,
            characteristics or {},
            social or {},
        )

        maps = self.maps_obj(
            self.require(obj, "maps", path), f"{path}.maps", schemas, functionings
        )

        theta = self.rational_vector(
            self.require(obj, "theta", path), f"{path}.theta", len(schemas["E"])
        )
        theta_p = None
        if "theta_p" in obj:
            theta_p = self.rational_vector(
                obj["theta_p"], f"{path}.theta_p", len(schemas["P"])
            )

        if (
            agent_id is None
            or characteristics is None
            or social is None
            or utilization is None
            or maps is None
            or theta is None
        ):
            return None

        # Orphan warning: catalog entries no pattern outputs, unless flagged.
        outputs = {entry.output for entry in utilization}
        for fv in functionings:
            if fv.id not in outputs and not fv.unreachable:
                self.warning(
                    f"{path}.functionings",
                    f"functioning {fv.id!r} is not the output of any utilization "
                    "pattern; flag it \"unreachable\" if that is intended",
                )

        return Scenario(
            agent_id=agent_id,
            schemas=schemas,
            resource_schema=resource_schema,
            resources=tuple(sorted(resources, key=lambda r: r.id)),
            characteristics=characteristics,
            social=social,
            functionings=tuple(sorted(functionings, key=lambda f: f.id)),
            utilization=tuple(sorted(utilization, key=lambda u: u.pattern_id)),
            maps=maps,
            theta=ThresholdVector(values=theta),
            theta_p=ThresholdVector(values=theta_p) if theta_p is not None else None,
        )

    def resource_list(self, value, path, width) -> Optional[list[ResourceVector]]:
        arr = self.array(value, path)
        if arr is None:
            return None
        out = []
        seen = set()
        ok = True
        for i, item in enumerate(arr):
            rpath = f"{path}[{i}]"
            obj = self.obj(item, rpath)
            if obj is None:
                ok = False
                continue
            self.check_fields(obj, {"id", "values"}, rpath)
            rid = self.string(self.require(obj, "id", rpath), f"{rpath}.id")
            values = self.rational_vector(
                self.require(obj, "values", rpath), f"{rpath}.values", width
            )
            if rid is None or values is None:
                ok = False
                continue
            if rid in seen:
                self.error(rpath, f"duplicate resource id {rid!r}")
                ok = False
                continue
            seen.add(rid)
            out.append(ResourceVector(id=rid, values=values))
        return out if ok else None

    def functioning_list(self, value, path, width) -> Optional[list[FunctioningVector]]:
        arr = self.array(value, path)
        if arr is None:
            return None
        out = []
        seen = set()
        ok = True
        for i, item in enumerate(arr):
            fpath = f"{path}[{i}]"
            obj = self.obj(item, fpath)
            if obj is None:
                ok = False
                continue
            self.check_fields(obj, {"id", "values", "unreachable"}, fpath)
            fid = self.string(self.require(obj, "id", fpath), f"{fpath}.id")
            values = self.rational_vector(
                self.require(obj, "values", fpath), f"{fpath}.values", width
            )
            unreachable = False
            if "unreachable" in obj:
                flag = self.boolean(obj["unreachable"], f"{fpath}.unreachable")
                unreachable = bool(flag)
            if fid is None or values is None:
                ok = False
                continue
            if fid in seen:
                self.error(fpath, f"duplicate functioning id {fid!r}")
                ok = False
                continue
            seen.add(fid)
            out.append(
                FunctioningVector(
                    id=fid,
                    values=values,
                    unreachable=unreachable,
                    value_key=self.value_key(values),
                )
            )
        return out if ok else None

    def guard_list(self, value, path, characteristics, social) -> Optional[tuple]:
        arr = self.array(value, path)
        if arr is None:
            return None
        out = []
        ok = True
        for i, item in enumerate(arr):
            gpath = f"{path}[{i}]"
            obj = self.obj(item, gpath)
            if obj is None:
                ok = False
                continue
            self.check_fields(obj, {"context", "component", "min"}, gpath)
            context = self.string(
                self.require(obj, "context", gpath), f"{gpath}.context"
            )
            component = self.string(
                self.require(obj, "component", gpath), f"{gpath}.component"
            )
            minimum = self.rational(self.require(obj, "min", gpath), f"{gpath}.min")
            if context is None or component is None or minimum is None:
                ok = False
                continue
            if context not in GUARD_CONTEXTS:
                self.error(
                    f"{gpath}.context",
                    f"guard context must be one of {', '.join(GUARD_CONTEXTS)}",
                )
                ok = False
                continue
            vector = characteristics if context == "characteristics" else social
            if component not in vector:
                self.error(
                    f"{gpath}.component",
                    f"unknown {context} component {component!r}",
                )
                ok = False
                continue
            out.append(Guard(context=context, component=component, min=minimum))
        if not ok:
            return None
        return tuple(sorted(out, key=lambda g: (g.context, g.component, g.min)))

    def utilization_entry(
        self, item, path, resource_ids, fv_ids, characteristics, social
    ) -> Optional[UtilizationEntry]:
        """One pattern; ``resource_ids`` None skips the resource check."""
        obj = self.obj(item, path)
        if obj is None:
            return None
        self.check_fields(
            obj, {"pattern_id", "resource_id", "guards", "output"}, path
        )
        pid = self.string(self.require(obj, "pattern_id", path), f"{path}.pattern_id")
        rid = self.string(self.require(obj, "resource_id", path), f"{path}.resource_id")
        output = self.string(self.require(obj, "output", path), f"{path}.output")
        guards = self.guard_list(
            obj.get("guards", []), f"{path}.guards", characteristics, social
        )
        if pid is None or rid is None or output is None or guards is None:
            return None
        if resource_ids is not None and rid not in resource_ids:
            self.error(f"{path}.resource_id", f"unknown resource id {rid!r}")
            return None
        if output not in fv_ids:
            self.error(f"{path}.output", f"unknown functioning id {output!r}")
            return None
        return UtilizationEntry(
            pattern_id=pid, resource_id=rid, guards=guards, output=output
        )

    def utilization_list(
        self, value, path, resource_ids, fv_ids, characteristics, social
    ) -> Optional[list[UtilizationEntry]]:
        arr = self.array(value, path)
        if arr is None:
            return None
        out = []
        seen = set()
        ok = True
        for i, item in enumerate(arr):
            entry = self.utilization_entry(
                item, f"{path}[{i}]", resource_ids, fv_ids, characteristics, social
            )
            if entry is None:
                ok = False
                continue
            if entry.pattern_id in seen:
                self.error(f"{path}[{i}]", f"duplicate pattern id {entry.pattern_id!r}")
                ok = False
                continue
            seen.add(entry.pattern_id)
            out.append(entry)
        return out if ok else None

    # -- valuation maps ----------------------------------------------------

    def maps_obj(self, value, path, schemas, functionings) -> Optional[dict]:
        obj = self.obj(value, path)
        if obj is None:
            return None
        self.check_fields(obj, {"v", "r", "u"}, path)
        out = {}
        ok = True
        codomains = {"v": "P", "r": "E", "u": "U"}
        same_values = _equal_value_pairs(functionings)
        for map_id in ("v", "r", "u"):
            if map_id not in obj:
                if map_id == "u":
                    continue  # optional; falls back to v
                self.error(path, f"missing required valuation map {map_id!r}")
                ok = False
                continue
            space = codomains[map_id]
            if space not in schemas:
                self.error(
                    f"{path}.{map_id}",
                    f"map {map_id!r} needs schema {space!r}, which is not declared",
                )
                ok = False
                continue
            parsed = self.valuation_map(
                obj[map_id],
                f"{path}.{map_id}",
                map_id,
                len(schemas[space]),
                len(schemas["B"]),
                functionings,
                same_values,
            )
            if parsed is None:
                ok = False
            else:
                out[map_id] = parsed
        return out if ok else None

    def valuation_map(
        self, value, path, map_id, codomain_len, domain_len, functionings, same_values
    ) -> Optional[ValuationMap]:
        """``same_values`` is ``_equal_value_pairs(functionings)``: a table
        must give each such pair equal images, or the map is not a function
        of the functioning itself."""
        obj = self.obj(value, path)
        if obj is None:
            return None
        self.check_fields(obj, {"form", "entries", "matrix"}, path)
        form = self.string(self.require(obj, "form", path), f"{path}.form")
        if form is None:
            return None
        if form == "table":
            entries_obj = self.obj(
                self.require(obj, "entries", path), f"{path}.entries"
            )
            if entries_obj is None:
                return None
            fv_by_id = {fv.id: fv for fv in functionings}
            entries = {}
            ok = True
            for fid, raw in entries_obj.items():
                epath = f"{path}.entries.{fid}"
                if fid not in fv_by_id:
                    self.error(epath, f"entry for unknown functioning {fid!r}")
                    ok = False
                    continue
                vec = self.rational_vector(raw, epath, codomain_len)
                if vec is None:
                    ok = False
                    continue
                entries[fid] = vec
            for fv in functionings:
                if fv.id not in entries_obj:
                    self.error(
                        f"{path}.entries",
                        f"map {map_id!r} is not total: no entry for "
                        f"functioning {fv.id!r}",
                    )
                    ok = False
            if not ok:
                return None
            for prior, fid in same_values:
                if entries[prior] != entries[fid]:
                    self.error(
                        f"{path}.entries",
                        f"functionings {prior!r} and {fid!r} have equal values "
                        f"but different {map_id!r} images",
                    )
                    ok = False
            if not ok:
                return None
            return ValuationMap(map_id=map_id, form="table", entries=entries)
        if form == "linear":
            matrix_arr = self.array(
                self.require(obj, "matrix", path), f"{path}.matrix"
            )
            if matrix_arr is None:
                return None
            if len(matrix_arr) != codomain_len:
                self.error(
                    f"{path}.matrix",
                    f"expected {codomain_len} rows, got {len(matrix_arr)}",
                )
                return None
            rows = []
            for i, raw_row in enumerate(matrix_arr):
                row = self.rational_vector(raw_row, f"{path}.matrix[{i}]", domain_len)
                if row is None:
                    return None
                rows.append(row)
            linear = ValuationMap(map_id=map_id, form="linear", matrix=tuple(rows))
            # Reports print images, so each must print within the digit limit;
            # the map keeps them, so no image is computed twice.
            images = {}
            for fv in functionings:
                image = images[fv.value_key] = linear.apply(fv)
                if any(exceeds_digit_limit(x) for x in image):
                    self.error(
                        f"{path}.matrix",
                        f"map {map_id!r} gives functioning {fv.id!r} an image whose "
                        "numerator or denominator would exceed "
                        f"{sys.get_int_max_str_digits()} digits",
                    )
                    return None
            return replace(linear, images=images)
        self.error(f"{path}.form", "valuation map form must be 'table' or 'linear'")
        return None

    # -- interactions ------------------------------------------------------

    RECORD_FIELDS = {
        "id",
        "actor_id",
        "target",
        "deltas",
        "intent",
        "mechanisms",
        "actor_has_right",
        "communication_feasible",
        "proportionality_ok",
        "unfair_terms",
        "promoted_outcome",
        "actor_estimate_of_target_values",
        "believed_scenario",
        "threat_scenario",
    }

    def interaction(self, item, path, scenario: Scenario) -> Optional[InteractionRecord]:
        obj = self.obj(item, path)
        if obj is None:
            return None
        self.check_fields(obj, self.RECORD_FIELDS, path)
        rec_id = self.string(self.require(obj, "id", path), f"{path}.id")
        actor_id = self.string(self.require(obj, "actor_id", path), f"{path}.actor_id")
        target = self.string(self.require(obj, "target", path), f"{path}.target")
        if target is not None and target != scenario.agent_id:
            self.error(
                f"{path}.target",
                f"interaction targets {target!r} but the scenario describes "
                f"agent {scenario.agent_id!r}",
            )
            target = None

        intent = self.string(self.require(obj, "intent", path), f"{path}.intent")
        if intent is not None and intent not in INTENTS:
            self.error(
                f"{path}.intent",
                f"unknown intent {intent!r}; valid intents: {', '.join(INTENTS)}",
            )
            intent = None

        mechanisms = None
        mech_arr = self.array(self.require(obj, "mechanisms", path), f"{path}.mechanisms")
        if mech_arr is not None:
            mechanisms = []
            for i, mech in enumerate(mech_arr):
                name = self.string(mech, f"{path}.mechanisms[{i}]")
                if name is None:
                    mechanisms = None
                    break
                if name not in MECHANISMS:
                    self.error(
                        f"{path}.mechanisms[{i}]",
                        f"unknown mechanism {name!r}; valid mechanisms: "
                        + ", ".join(MECHANISMS),
                    )
                    mechanisms = None
                    break
                if name in mechanisms:
                    self.warning(
                        f"{path}.mechanisms[{i}]", f"duplicate mechanism {name!r}"
                    )
                    continue
                mechanisms.append(name)

        actor_has_right = self.boolean(
            self.require(obj, "actor_has_right", path), f"{path}.actor_has_right"
        )
        communication_feasible = self.boolean(
            self.require(obj, "communication_feasible", path),
            f"{path}.communication_feasible",
        )
        proportionality_ok = self.boolean(
            self.require(obj, "proportionality_ok", path),
            f"{path}.proportionality_ok",
        )
        unfair_terms = False
        if "unfair_terms" in obj:
            flag = self.boolean(obj["unfair_terms"], f"{path}.unfair_terms")
            unfair_terms = bool(flag)

        promoted_outcome = None
        if "promoted_outcome" in obj:
            promoted_outcome = self.string(
                obj["promoted_outcome"], f"{path}.promoted_outcome"
            )
            if promoted_outcome is not None and not scenario.has_functioning(
                promoted_outcome
            ):
                self.error(
                    f"{path}.promoted_outcome",
                    f"unknown functioning id {promoted_outcome!r}",
                )
                promoted_outcome = None

        deltas = self.deltas(
            self.require(obj, "deltas", path), f"{path}.deltas", scenario
        )

        estimate = None
        if "actor_estimate_of_target_values" in obj:
            estimate = self.valuation_map(
                obj["actor_estimate_of_target_values"],
                f"{path}.actor_estimate_of_target_values",
                "v",
                len(scenario.schemas["P"]),
                len(scenario.schemas["B"]),
                scenario.functionings,
                _equal_value_pairs(scenario.functionings),
            )

        believed = None
        if "believed_scenario" in obj:
            believed = self.scenario(
                obj["believed_scenario"], f"{path}.believed_scenario"
            )
            if believed is not None:
                self.check_override(believed, scenario, f"{path}.believed_scenario")
        threat = None
        if "threat_scenario" in obj:
            threat = self.scenario(obj["threat_scenario"], f"{path}.threat_scenario")
            if threat is not None:
                self.check_override(threat, scenario, f"{path}.threat_scenario")
                if ("u" in scenario.maps) != ("u" in threat.maps):
                    self.error(
                        f"{path}.threat_scenario.maps",
                        "threat scenario must declare the transient valuation "
                        "'u' exactly when the main scenario does",
                    )

        if "threat" in (mechanisms or ()) and threat is None and "threat_scenario" not in obj:
            self.error(
                path,
                "record declares a 'threat' mechanism but no threat_scenario",
            )
        declared_info = {"information_filtering", "misrepresentation"}.intersection(
            mechanisms or ()
        )
        if declared_info and believed is None and "believed_scenario" not in obj:
            self.error(
                path,
                f"record declares {sorted(declared_info)} but no believed_scenario",
            )

        if (
            rec_id is None
            or actor_id is None
            or target is None
            or intent is None
            or mechanisms is None
            or actor_has_right is None
            or communication_feasible is None
            or proportionality_ok is None
            or deltas is None
        ):
            return None
        return InteractionRecord(
            id=rec_id,
            actor_id=actor_id,
            target=target,
            deltas=deltas,
            intent=intent,
            mechanisms=tuple(mechanisms),
            actor_has_right=actor_has_right,
            communication_feasible=communication_feasible,
            proportionality_ok=proportionality_ok,
            unfair_terms=unfair_terms,
            promoted_outcome=promoted_outcome,
            actor_estimate_of_target_values=estimate,
            believed_scenario=believed,
            threat_scenario=threat,
        )

    def check_override(self, override: Scenario, main: Scenario, path: str) -> None:
        """Counterfactual scenarios must stay comparable with the main one."""
        for space in ("B", "E", "P", "U"):
            if space not in override.schemas or space not in main.schemas:
                continue  # U is optional
            if override.schemas[space].names != main.schemas[space].names:
                self.error(
                    f"{path}.schemas.{space}",
                    f"override scenario must use the same {space} dimensions "
                    "as the main scenario",
                )
        if override.theta != main.theta:
            self.error(
                f"{path}.theta",
                "override scenario must use the same entitlement thresholds "
                "as the main scenario",
            )
        if override.agent_id != main.agent_id:
            self.warning(
                f"{path}.agent_id",
                f"override describes agent {override.agent_id!r}, main scenario "
                f"describes {main.agent_id!r}",
            )

    DELTA_FIELDS = {
        "resources_added",
        "resources_removed",
        "characteristics_delta",
        "social_delta",
        "utilization_added",
        "utilization_removed",
    }

    def deltas(self, value, path, scenario: Scenario) -> Optional[InteractionDeltas]:
        obj = self.obj(value, path)
        if obj is None:
            return None
        self.check_fields(obj, self.DELTA_FIELDS, path)

        resources_added = self.resource_list(
            obj.get("resources_added", []),
            f"{path}.resources_added",
            len(scenario.resource_schema),
        )

        resources_removed = self.id_list(
            obj.get("resources_removed", []), f"{path}.resources_removed"
        )
        utilization_removed = self.id_list(
            obj.get("utilization_removed", []), f"{path}.utilization_removed"
        )

        characteristics_delta = self.context_delta(
            obj.get("characteristics_delta", {}),
            f"{path}.characteristics_delta",
            scenario.characteristics,
            "characteristic",
        )
        social_delta = self.context_delta(
            obj.get("social_delta", {}),
            f"{path}.social_delta",
            scenario.social,
            "social component",
        )

        # Resource presence for added entries depends on the evolving state
        # (earlier trace steps may add the resource), so it is checked at
        # application time; outputs and guard components are static.
        added_entries = self.utilization_list(
            obj.get("utilization_added", []),
            f"{path}.utilization_added",
            None,
            {fv.id for fv in scenario.functionings},
            scenario.characteristics,
            scenario.social,
        )

        if (
            resources_added is None
            or resources_removed is None
            or utilization_removed is None
            or characteristics_delta is None
            or social_delta is None
            or added_entries is None
        ):
            return None
        return InteractionDeltas(
            resources_added=tuple(sorted(resources_added, key=lambda r: r.id)),
            resources_removed=tuple(sorted(resources_removed)),
            characteristics_delta=characteristics_delta,
            social_delta=social_delta,
            utilization_added=tuple(
                sorted(added_entries, key=lambda u: u.pattern_id)
            ),
            utilization_removed=tuple(sorted(utilization_removed)),
        )

    def id_list(self, value, path) -> Optional[tuple[str, ...]]:
        arr = self.array(value, path)
        if arr is None:
            return None
        out = []
        for i, item in enumerate(arr):
            name = self.string(item, f"{path}[{i}]")
            if name is None:
                return None
            if name in out:
                self.error(f"{path}[{i}]", f"duplicate id {name!r}")
                return None
            out.append(name)
        return tuple(out)

    def context_delta(self, value, path, base, label) -> Optional[dict]:
        offsets = self.named_rationals(value, path)
        if offsets is None:
            return None
        ok = True
        for name in offsets:
            if name not in base:
                self.error(f"{path}.{name}", f"unknown {label} {name!r}")
                ok = False
        return offsets if ok else None

    # -- traces ------------------------------------------------------------

    def trace(self, item, path, record_ids, scenario: Scenario) -> Optional[Trace]:
        obj = self.obj(item, path)
        if obj is None:
            return None
        self.check_fields(obj, {"id", "steps"}, path)
        trace_id = self.string(self.require(obj, "id", path), f"{path}.id")
        arr = self.array(self.require(obj, "steps", path), f"{path}.steps")
        if trace_id is None or arr is None:
            return None
        if not arr:
            self.error(f"{path}.steps", "a trace needs at least one step")
            return None
        steps = []
        for i, raw in enumerate(arr):
            spath = f"{path}.steps[{i}]"
            sobj = self.obj(raw, spath)
            if sobj is None:
                return None
            self.check_fields(
                sobj, {"interaction", "target_choice", "actor_desired"}, spath
            )
            rec_id = self.string(
                self.require(sobj, "interaction", spath), f"{spath}.interaction"
            )
            choice = self.string(
                self.require(sobj, "target_choice", spath), f"{spath}.target_choice"
            )
            desired = self.string(
                self.require(sobj, "actor_desired", spath), f"{spath}.actor_desired"
            )
            if rec_id is None or choice is None or desired is None:
                return None
            if rec_id not in record_ids:
                self.error(
                    f"{spath}.interaction", f"unknown interaction id {rec_id!r}"
                )
                return None
            for label, fid in (("target_choice", choice), ("actor_desired", desired)):
                if not scenario.has_functioning(fid):
                    self.error(
                        f"{spath}.{label}", f"unknown functioning id {fid!r}"
                    )
                    return None
            steps.append(
                TraceStep(interaction=rec_id, target_choice=choice, actor_desired=desired)
            )
        return Trace(id=trace_id, steps=tuple(steps))


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def parse_document(
    text: str, *, lenient: bool = False
) -> tuple[ScenarioDocument, list[Diagnostic]]:
    """Parse and validate a scenario document.

    Returns the document plus any warnings.  Raises :class:`DocumentError`
    carrying every located diagnostic when the document has errors.
    """
    try:
        raw = json.loads(
            text,
            parse_float=json_decimal,
            parse_int=json_integer,
            parse_constant=_reject_constant,
            object_pairs_hook=_pairs_hook,
        )
    except _DuplicateKey as exc:
        raise DocumentError(
            [Diagnostic("error", "$", f"duplicate object key {exc.key!r}")]
        ) from None
    except RecursionError:
        raise DocumentError([_TOO_DEEP]) from None
    except ValueError as exc:
        # json.JSONDecodeError subclasses ValueError and carries position info.
        lineno = getattr(exc, "lineno", None)
        where = f"line {lineno}, column {exc.colno}" if lineno else "document"
        raise DocumentError(
            [Diagnostic("error", where, f"not valid JSON: {exc.args[0].split(':')[0]}")]
        ) from None

    p = _Parser(lenient=lenient)
    obj = p.obj(raw, "$")
    document = None
    if obj is not None:
        p.check_fields(
            obj, {"format_version", "scenario", "interactions", "traces"}, "$"
        )
        version = p.require(obj, "format_version", "$")
        # True == 1 and 1.0 means 1, so the kind comes first: the version is
        # the JSON integer 1.  Bytes hold a decimal or an over-long integer.
        kind = _NOT_A_VERSION.get(type(version))
        if type(version) is bytes and not version.lstrip(b"-").isdigit():
            kind = "a decimal"
        if kind is not None:
            p.error(
                "$.format_version",
                f"format_version must be the integer {FORMAT_VERSION}, not {kind}",
            )
        elif version is not _MISSING and version != FORMAT_VERSION:
            if type(version) is str:
                shown = _echo(version)
            else:  # an int, or the bytes of one past the digit limit
                shown = version.decode() if type(version) is bytes else str(version)
                if len(shown) > _ECHO_CHARS:
                    shown = _echo(shown)
            p.error(
                "$.format_version",
                f"unsupported format_version {shown}; this build reads "
                f"version {FORMAT_VERSION}",
            )
        scenario = p.scenario(p.require(obj, "scenario", "$"), "$.scenario")
        interactions: list[InteractionRecord] = []
        if scenario is not None:
            recs = p.array(obj.get("interactions", []), "$.interactions")
            if recs is not None:
                seen = set()
                for i, item in enumerate(recs):
                    rec = p.interaction(item, f"$.interactions[{i}]", scenario)
                    if rec is None:
                        continue
                    if rec.id in seen:
                        p.error(
                            f"$.interactions[{i}].id",
                            f"duplicate interaction id {rec.id!r}",
                        )
                        continue
                    seen.add(rec.id)
                    interactions.append(rec)
            traces: list[Trace] = []
            raw_traces = p.array(obj.get("traces", []), "$.traces")
            if raw_traces is not None:
                record_ids = {rec.id for rec in interactions}
                seen_traces = set()
                for i, item in enumerate(raw_traces):
                    trace = p.trace(item, f"$.traces[{i}]", record_ids, scenario)
                    if trace is None:
                        continue
                    if trace.id in seen_traces:
                        p.error(f"$.traces[{i}].id", f"duplicate trace id {trace.id!r}")
                        continue
                    seen_traces.add(trace.id)
                    traces.append(trace)
            if not p.failed and version == FORMAT_VERSION:
                document = ScenarioDocument(
                    format_version=FORMAT_VERSION,
                    scenario=scenario,
                    interactions=tuple(sorted(interactions, key=lambda r: r.id)),
                    traces=tuple(sorted(traces, key=lambda t: t.id)),
                )

    if p.failed or document is None:
        if not p.failed:
            p.error("$", "document could not be assembled")
        raise DocumentError(p.diagnostics)
    return document, [d for d in p.diagnostics if d.severity == "warning"]


def deep_validate(doc: ScenarioDocument) -> list[Diagnostic]:
    """Dry-run checks beyond the static ones: deltas apply, traces chain.

    Interactions referenced by traces are validated through the trace chain
    (their deltas may rely on earlier steps); standalone interactions are
    applied to the base scenario.
    """
    diagnostics: list[Diagnostic] = []
    in_traces = {step.interaction for t in doc.traces for step in t.steps}
    for i, rec in enumerate(doc.interactions):
        if rec.id in in_traces:
            continue
        try:
            apply_interaction(doc.scenario, rec)
        except DeltaError as exc:
            diagnostics.append(Diagnostic("error", f"$.interactions[{i}]", str(exc)))
    records = doc.records_by_id()
    for i, trace in enumerate(doc.traces):
        try:
            materialize_trace(doc.scenario, records, trace)
        except TraceError as exc:
            diagnostics.append(Diagnostic("error", f"$.traces[{i}]", str(exc)))
    return diagnostics


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _vector(values) -> list:
    return [format_rational(v) for v in values]


def _named(mapping) -> dict:
    return {name: format_rational(value) for name, value in mapping.items()}


def _dimension_obj(dim: Dimension) -> dict:
    out = {"name": dim.name}
    if dim.description:
        out["description"] = dim.description
    return out


def _map_obj(m: ValuationMap) -> dict:
    if m.form == "table":
        return {
            "form": "table",
            "entries": {fid: _vector(vec) for fid, vec in m.entries.items()},
        }
    return {"form": "linear", "matrix": [_vector(row) for row in m.matrix]}


def _scenario_obj(s: Scenario) -> dict:
    schemas = {
        space: [_dimension_obj(d) for d in schema.dims]
        for space, schema in s.schemas.items()
    }
    out = {
        "agent_id": s.agent_id,
        "schemas": schemas,
        "resource_schema": [_dimension_obj(d) for d in s.resource_schema],
        "resources": [
            {"id": r.id, "values": _vector(r.values)}
            for r in sorted(s.resources, key=lambda r: r.id)
        ],
        "characteristics": _named(s.characteristics),
        "social": _named(s.social),
        "functionings": [
            _functioning_obj(fv)
            for fv in sorted(s.functionings, key=lambda f: f.id)
        ],
        "utilization": [
            _utilization_obj(u)
            for u in sorted(s.utilization, key=lambda u: u.pattern_id)
        ],
        "maps": {mid: _map_obj(m) for mid, m in s.maps.items()},
        "theta": _vector(s.theta.values),
    }
    if s.theta_p is not None:
        out["theta_p"] = _vector(s.theta_p.values)
    return out


def _functioning_obj(fv: FunctioningVector) -> dict:
    out = {"id": fv.id, "values": _vector(fv.values)}
    if fv.unreachable:
        out["unreachable"] = True
    return out


def _utilization_obj(u: UtilizationEntry) -> dict:
    out = {
        "pattern_id": u.pattern_id,
        "resource_id": u.resource_id,
        "output": u.output,
    }
    if u.guards:
        out["guards"] = [
            {"context": g.context, "component": g.component, "min": format_rational(g.min)}
            for g in u.guards
        ]
    return out


def _deltas_obj(d: InteractionDeltas) -> dict:
    out = {}
    if d.resources_added:
        out["resources_added"] = [
            {"id": r.id, "values": _vector(r.values)} for r in d.resources_added
        ]
    if d.resources_removed:
        out["resources_removed"] = list(d.resources_removed)
    if d.characteristics_delta:
        out["characteristics_delta"] = _named(d.characteristics_delta)
    if d.social_delta:
        out["social_delta"] = _named(d.social_delta)
    if d.utilization_added:
        out["utilization_added"] = [_utilization_obj(u) for u in d.utilization_added]
    if d.utilization_removed:
        out["utilization_removed"] = list(d.utilization_removed)
    return out


def _record_obj(rec: InteractionRecord) -> dict:
    out = {
        "id": rec.id,
        "actor_id": rec.actor_id,
        "target": rec.target,
        "deltas": _deltas_obj(rec.deltas),
        "intent": rec.intent,
        "mechanisms": list(rec.mechanisms),
        "actor_has_right": rec.actor_has_right,
        "communication_feasible": rec.communication_feasible,
        "proportionality_ok": rec.proportionality_ok,
    }
    if rec.unfair_terms:
        out["unfair_terms"] = True
    if rec.promoted_outcome is not None:
        out["promoted_outcome"] = rec.promoted_outcome
    if rec.actor_estimate_of_target_values is not None:
        out["actor_estimate_of_target_values"] = _map_obj(
            rec.actor_estimate_of_target_values
        )
    if rec.believed_scenario is not None:
        out["believed_scenario"] = _scenario_obj(rec.believed_scenario)
    if rec.threat_scenario is not None:
        out["threat_scenario"] = _scenario_obj(rec.threat_scenario)
    return out


def document_to_obj(doc: ScenarioDocument) -> dict:
    out = {
        "format_version": doc.format_version,
        "scenario": _scenario_obj(doc.scenario),
    }
    if doc.interactions:
        out["interactions"] = [
            _record_obj(rec) for rec in sorted(doc.interactions, key=lambda r: r.id)
        ]
    if doc.traces:
        out["traces"] = [
            {
                "id": t.id,
                "steps": [
                    {
                        "interaction": step.interaction,
                        "target_choice": step.target_choice,
                        "actor_desired": step.actor_desired,
                    }
                    for step in t.steps
                ],
            }
            for t in sorted(doc.traces, key=lambda t: t.id)
        ]
    return out


def serialize_document(doc: ScenarioDocument) -> str:
    """Canonical text form: sorted keys, lowest-terms rationals, trailing newline."""
    return json.dumps(document_to_obj(doc), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def serialize_scenario(s: Scenario) -> str:
    """Canonical text of one scenario object (used for post-state golden files)."""
    return json.dumps(_scenario_obj(s), sort_keys=True, indent=2, ensure_ascii=False) + "\n"
