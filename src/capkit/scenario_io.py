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

Both directions come from one declaration per object kind (a
:class:`_Kind`): the document, scenario, schemas, dimension, resource,
functioning, utilization entry, guard, maps, a valuation map of each form,
record, deltas, trace and trace step.  Each row of a kind's table gives a
field's JSON name, its walker and writer, whether it is required or its
default, and whether it is left out of the output at its default.  One
walker reads every kind from its table and one writer writes it back (the
pickler combinators of Kennedy, JFP 2004); a kind adds only its
cross-references.

A document repeats values: literals, vectors, catalog entries, utilization
patterns, and whole scenarios (a record's threat and believed worlds are
near-copies of the main one).  The parser pays once per distinct value
(hash-consing, Filliâtre & Conchon, ML Workshop 2006): literals, vectors,
functionings and utilization entries are walked once per distinct
``marshal`` key, and equal scenarios parse to one :class:`Scenario`.  A
scenario is never marshalled whole unless it must be: a verbatim copy is
answered by identity, other scenarios are bucketed by a cheap fingerprint,
and only scenarios that share a fingerprint are marshalled and compared.
"""

from __future__ import annotations

import json
import marshal
import sys
from collections.abc import Mapping
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from operator import attrgetter
from typing import Callable, NamedTuple, Optional

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


def _key(raw) -> bytes:
    """The memo key of a decoded value: its marshal bytes (see :meth:`_Parser.memo`)."""
    try:
        return marshal.dumps(raw, 2)
    except ValueError:  # nested past marshal's bound (a raised recursion limit)
        raise DocumentError([_TOO_DEEP]) from None


def _shape(value, depth: int = 2):
    """``value`` with every array, and every object ``depth`` levels down,
    replaced by its length: the fingerprint of a raw scenario is
    ``_key(_shape(raw))``.  It is a function of the value, so equal marshal
    bytes always give equal fingerprints."""
    if type(value) is list:
        return len(value)
    if type(value) is dict:
        return {k: _shape(v, depth - 1) for k, v in value.items()} if depth else len(value)
    return value


# How many distinct object texts a new object value is compared against.
_RECENT_SPANS = 8


class _DocumentDecoder(json.JSONDecoder):
    """``json.loads`` that decodes a verbatim-repeated object value once.

    The document object, and the record and trace objects in its arrays,
    are scanned by the stdlib's Python ``JSONObject``/``JSONArray``; every
    value below them is decoded by the C scanner, with the same hooks.  An
    object value of the document or of a record (a scenario, deltas, an
    estimate map) that starts with the exact text of one of the last
    ``_RECENT_SPANS`` distinct objects so decoded is that same Python
    object, and its text is skipped.  This is exact: an object ends at its
    matching brace, so no complete object is a proper prefix of another,
    and equal text decodes to an equal value.  For the same reason a failed
    comparison stops within the new value's text, so the decode stays
    linear in the document's size.  Diagnostics are those of ``json.loads``:
    a skipped text decoded without error the first time.
    """

    def __init__(self, **kw):
        super().__init__(**kw)
        self._scan = self.scan_once  # the C scanner
        self.scan_once = self._document
        self._recent: list[tuple[str, object]] = []  # (text, value), most recent first

    def _object(self, s, idx, scan_value):
        """An object scanned in Python, its values read by ``scan_value``;
        any other value at ``idx`` is left to the C scanner."""
        if not s.startswith("{", idx):
            return self._scan(s, idx)
        return json.decoder.JSONObject(
            (s, idx + 1), self.strict, scan_value, self.object_hook, self.object_pairs_hook,
            self.memo,
        )

    def _document(self, s, idx):
        return self._object(s, idx, self._document_value)

    def _document_value(self, s, idx):
        if s.startswith("[", idx):
            return json.decoder.JSONArray((s, idx + 1), self._item)
        return self._value(s, idx)

    def _item(self, s, idx):
        """An item of a document array: a record or a trace."""
        return self._object(s, idx, self._value)

    def _value(self, s, idx):
        """A value of the document or of one of its records or traces."""
        if not s.startswith("{", idx):
            return self._scan(s, idx)
        recent = self._recent
        for i, (text, value) in enumerate(recent):
            if s.startswith(text, idx):
                recent.insert(0, recent.pop(i))
                return value, idx + len(text)
        value, end = self._scan(s, idx)
        recent.insert(0, (s[idx:end], value))
        del recent[_RECENT_SPANS:]
        return value, end


# An unknown-field diagnostic lists a kind's valid fields up to this length.
_LISTED_CHARS = 60

# What a field absent from its object reads as, before its default applies.
_MISSING = object()

# The default of a required field.
_REQUIRED = object()

# What a bad field value does to its object: fails it, ends its walk there,
# or is replaced by the field's default (the object stays valid).
_FAIL, _STOP, _DEFAULT = "fail", "stop", "default"

_TOO_DEEP = Diagnostic("error", "document", "not valid JSON: nesting too deep")

# Decoded kinds that are never a version, named as the diagnostic names them.
_NOT_A_VERSION = {bool: "a boolean", dict: "an object", list: "an array", type(None): "null"}

_CODOMAINS = {"v": "P", "r": "E", "u": "U"}

# Sort keys of id-sorted collections.
_ID = attrgetter("id")
_PATTERN_ID = attrgetter("pattern_id")


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


class _Uses(NamedTuple):
    """What a utilization entry and its guards may refer to: resource ids
    (None skips the resource check), functioning ids, and the names of the
    characteristics and social components."""

    resource_ids: Optional[set]
    fv_ids: object  # any container of the catalog's functioning ids
    characteristics: frozenset
    social: frozenset


class _MapContext(NamedTuple):
    """What a valuation map is checked against.  ``same_values`` is
    ``_equal_value_pairs(functionings)``: a table must give each such pair
    equal images, or the map is not a function of the functioning itself."""

    map_id: str
    codomain_len: int
    domain_len: int
    functionings: tuple
    fv_ids: object
    same_values: list


class _Row(NamedTuple):
    """One field of an object kind.

    ``walk(parser, raw, path, ctx, got)`` reads the field's raw value at
    ``path``, given what the object was walked with (``ctx``) and the values
    of its earlier fields (``got``); it returns None for a value it
    diagnosed.  ``write`` turns a parsed value back into JSON.  An absent
    optional field reads as ``default``: a list or map default is walked, so
    it gets its checks; None, false or ``""`` is the value as it stands.
    ``omit`` leaves the field out of the output at its default.
    """

    name: str
    walk: Callable
    write: Callable
    default: object = _REQUIRED
    omit: bool = False
    on_error: str = _FAIL


class _Kind:
    """The field table of one object kind, and the one walker and writer of
    objects.

    ``noun`` names a field in the missing-field diagnostic.  After the
    fields, ``check(parser, raw, got, path, ctx)`` runs (whether or not
    every field was read), then ``finish(parser, got, path, ctx)`` builds the
    object from the fields' values, or returns None once it has diagnosed a
    cross-reference; it runs only when every field was read.  The writer
    reads a built object's fields with ``read(obj, name)``.
    """

    def __init__(self, rows, finish, noun="field", check=None, read=getattr):
        self.rows = rows
        self.names = frozenset(row.name for row in rows)
        valid = ", ".join(sorted(self.names))
        self.valid = valid if len(valid) <= _LISTED_CHARS else None
        # An absent field reads as the default it is walked with, or as _MISSING.
        walked = [r.default if type(r.default) in (list, dict) else _MISSING for r in rows]
        self.walks = tuple(
            (r.name, r.walk, absent, r.default, r.on_error) for r, absent in zip(rows, walked)
        )
        self.finish = finish
        self.noun = noun
        self.check = check
        self.read = read

    def walk(self, p: "_Parser", raw, path: str, ctx=None, outer=None):
        """The object of this kind that ``raw`` describes, or None once ``p``
        has diagnosed it.

        An unknown field is an error (a warning when lenient).  Fields are
        walked in table order; a missing required one is diagnosed at
        ``path``.  A bad value fails the object, ends the walk at once
        (``_STOP``) or gives way to the default (``_DEFAULT``), as its row
        says.  A table names ``kind.walk`` as the walker of a field or item
        of this kind; ``outer``, the enclosing object's ``got``, is unused.
        """
        if not isinstance(raw, dict):
            return p.mistyped(raw, path, "an object")
        if not self.names.issuperset(raw):
            report = p.warning if p.lenient else p.error
            for key in raw:
                if key not in self.names:
                    report(path, self.unknown(key))
        got = {}
        ok = True
        for name, walk, absent, default, on_error in self.walks:
            value = raw.get(name, absent)
            if value is not _MISSING:
                value = walk(p, value, f"{path}.{name}", ctx, got)
            elif default is _REQUIRED:
                value = p.error(path, f"missing required {self.noun} {name!r}")
            else:
                got[name] = default
                continue
            if value is None:
                if on_error is _STOP:
                    return None
                if on_error is _DEFAULT:
                    value = default
                else:
                    ok = False
            got[name] = value
        if self.check is not None:
            self.check(p, raw, got, path, ctx)
        return self.finish(p, got, path, ctx) if ok else None

    def unknown(self, key: str) -> str:
        """The unknown-field message: the key, echoed within a bounded length,
        then the valid fields when their list is short, else the closest one,
        if any, so the line stays under 200 characters."""
        message = f"unknown field {_echo(key)}"
        if self.valid is not None:
            return f"{message}; valid fields: {self.valid}"
        from difflib import get_close_matches  # ~1 ms of start-up, paid only here

        near = get_close_matches(key, sorted(self.names), 1)
        return f"{message}; did you mean {near[0]!r}?" if near else message

    def write(self, obj) -> dict:
        """The canonical JSON object of ``obj``, written from the same table."""
        out = {}
        for row in self.rows:
            value = self.read(obj, row.name)
            if value or not row.omit:
                out[row.name] = row.write(value)
        return out


def _build(cls):
    """The ``finish`` of a kind with no cross-references."""
    return lambda p, got, path, ctx: cls(**got)


def _vector(values) -> list:
    return [format_rational(v) for v in values]


def _named(mapping) -> dict:
    return {name: format_rational(value) for name, value in mapping.items()}


def _many(
    item: _Kind, order, label="", context=None, item_walk=None
) -> tuple[Callable, Callable]:
    """(walk, write) of an array of ``item`` objects, kept sorted by ``order``.

    With ``label``, an item whose ``order`` key repeats an earlier one is a
    ``duplicate {label}`` error.  ``context(ctx, got)`` gives the items' ctx;
    without it they get the array's own.  ``item_walk``, where given, walks
    each item in place of ``item.walk``.
    """
    item_walk = item_walk or item.walk

    def walk(p, raw, path, ctx, got):
        item_ctx = context(ctx, got) if context else ctx
        out, ok = p.items(raw, path, item_walk, item_ctx, order if label else None, label)
        return tuple(sorted(out, key=order)) if ok else None

    return walk, lambda values: [item.write(value) for value in sorted(values, key=order)]


class _Parser:
    """Accumulates located diagnostics while walking the document tree.

    :meth:`_Kind.walk` reads each object from its kind's table (below the
    class).  The methods here are the walkers the tables name: shapes, and
    each kind's cross-references (ids, widths, overrides, map totality,
    mechanism prerequisites).

    A document repeats a few distinct literals, vectors, catalog entries
    and utilization patterns many times, and its interaction records repeat
    whole scenarios (a believed world equal to the true one, one threat
    world per record).  Each of these is walked once per distinct raw value
    (:meth:`memo`): equal copies share one result, so equal scenario
    subtrees parse to one :class:`Scenario` whose derived sets are then
    computed once.  Scenarios are keyed by the first raw scenario equal to
    them (:meth:`_first_equal`): a verbatim copy arrives from
    :class:`_DocumentDecoder` as the very object it copies and is answered
    by identity; any other is marshalled only when its fingerprint
    (:func:`_shape`) is that of an earlier scenario.  The table maps of one
    document share one memo of integer images (``ValuationMap._ints``).
    """

    def __init__(self, lenient: bool):
        self.lenient = lenient
        self.diagnostics: list[Diagnostic] = []
        self._rationals: dict[bytes, tuple] = {}
        self._vectors: dict[bytes, tuple] = {}
        self._functionings: dict[tuple, tuple] = {}
        self._patterns: dict[tuple, tuple] = {}
        self._scenarios: dict[int, tuple] = {}
        self._worlds: dict[int, tuple] = {}  # id(raw) -> (raw, first equal raw)
        self._buckets: dict[bytes, list] = {}  # fingerprint -> [[raw, key or None], ...]
        self._value_keys: dict[int, tuple] = {}
        self._ints: dict = {}

    # -- diagnostics -------------------------------------------------------

    def error(self, path: str, message: str) -> None:
        self.diagnostics.append(Diagnostic("error", path, message))

    def warning(self, path: str, message: str) -> None:
        self.diagnostics.append(Diagnostic("warning", path, message))

    @property
    def failed(self) -> bool:
        return any(d.severity == "error" for d in self.diagnostics)

    # -- shape walkers -----------------------------------------------------
    #
    # Each has the signature of a field walker, so a table can name it.

    def mistyped(self, value, path, expected: str) -> None:
        self.error(path, f"expected {expected}, got {json_kind(value)}")

    def obj(self, value, path) -> Optional[dict]:
        return value if isinstance(value, dict) else self.mistyped(value, path, "an object")

    def array(self, value, path) -> Optional[list]:
        return value if isinstance(value, list) else self.mistyped(value, path, "an array")

    def string(self, value, path, ctx=None, got=None) -> Optional[str]:
        if not isinstance(value, str) or not value:
            self.error(path, "expected a non-empty string")
            return None
        return value

    def boolean(self, value, path, ctx=None, got=None) -> Optional[bool]:
        return value if isinstance(value, bool) else self.mistyped(value, path, "true or false")

    def items(
        self, value, path, walk, ctx=None, key=None, label="", at="", repeat="error"
    ) -> tuple[list, bool]:
        """Every item of the array ``value``, walked by ``walk(self, item,
        item_path, ctx, None)``.

        An item the walk returns None for was diagnosed there.  With ``key``,
        an item whose ``key(result)`` repeats an earlier accepted one is
        dropped and diagnosed as ``duplicate {label} {key!r}`` at its path
        plus ``at``: an error, or a warning with ``repeat="warning"``.
        Returns (accepted results, whether the array and every item were
        accepted); a value that is not an array gives ``([], False)``.
        """
        arr = self.array(value, path)
        if arr is None:
            return [], False
        out = []
        seen = set()
        ok = True
        for i, item in enumerate(arr):
            ipath = f"{path}[{i}]"
            result = walk(self, item, ipath, ctx, None)
            if result is None:
                ok = False
                continue
            if key is not None:
                name = key(result)
                if name in seen:
                    if repeat == "warning":
                        self.warning(ipath + at, f"duplicate {label} {name!r}")
                    else:
                        self.error(ipath + at, f"duplicate {label} {name!r}")
                        ok = False
                    continue
                seen.add(name)
            out.append(result)
        return out, ok

    def memo(self, cache: dict, key, walk, raw, path: str, ctx=None):
        """``walk(self, raw, path, ctx, None)``, run once per distinct ``key``
        in ``cache``.

        A key stands for the raw value's marshal bytes, ``_key(raw)``
        (version 2 writes no interning marks, so the bytes depend on the value
        alone), plus whatever of ``ctx`` the walk reads; a scenario's key is
        the identity of the first raw scenario with its bytes
        (:meth:`_first_equal`), so it is marshalled only when it must be
        told apart from another of the same fingerprint.  Raw values are not
        compared by ``==``: ``True == 1``, yet only the integer is a valid
        rational and only the boolean a valid flag.  Marshal writes a distinct
        type code for each (and for ``bytes``, the raw form of a non-int
        number, apart from ``str``), so equal bytes mean the same types and
        values in the same key order, hence the same walk.  A walk depends on
        its key and ``lenient`` alone and each of its diagnostics lies under
        ``path``, so a hit re-emits the first walk's diagnostics under its own
        path: exactly what a fresh walk would.  Results are immutable, so
        copies may share them.
        """
        hit = cache.get(key)
        if hit is None:
            before = len(self.diagnostics)
            result = walk(self, raw, path, ctx, None)
            found = ()
            if len(self.diagnostics) > before:
                found = tuple(
                    replace(d, path=d.path[len(path):]) for d in self.diagnostics[before:]
                )
            cache[key] = (result, found)
            return result
        if hit[1]:
            self.diagnostics += [replace(d, path=path + d.path) for d in hit[1]]
        return hit[0]

    def _first_equal(self, raw: dict) -> dict:
        """The first raw scenario seen whose marshal bytes equal ``raw``'s, or
        ``raw`` itself.

        A raw scenario seen before is answered by identity.  Any other goes
        to the bucket of its fingerprint, ``_key(_shape(raw))``: when the
        bucket is empty nothing more is marshalled; otherwise ``raw``, and
        each scenario of the bucket not yet keyed, are marshalled whole and
        compared.  Every entry holds its raw value, so no identity is reused
        while the parser lives.
        """
        held = self._worlds.get(id(raw))
        if held is not None:
            return held[1]
        first = raw
        bucket = self._buckets.setdefault(_key(_shape(raw)), [])
        if not bucket:
            bucket.append([raw, None])
        else:
            key = _key(raw)
            for entry in bucket:
                if entry[1] is None:
                    entry[1] = _key(entry[0])
                if entry[1] == key:
                    first = entry[0]
                    break
            else:
                bucket.append([raw, key])
        self._worlds[id(raw)] = (raw, first)
        return first

    def rational(self, value, path, ctx=None, got=None) -> Optional[Fraction]:
        return self.memo(self._rationals, _key(value), _Parser._walk_rational, value, path)

    def _walk_rational(self, value, path, ctx=None, got=None) -> Optional[Fraction]:
        try:
            return parse_rational(value)
        except SchemaError as exc:
            self.error(path, str(exc))
            return None

    def rational_vector(self, value, path, length=None, got=None) -> Optional[tuple]:
        """A vector of rationals; ``length``, where given, is its width."""
        arr = self.array(value, path)
        if arr is None:
            return None
        out = self.memo(self._vectors, _key(arr), _Parser._walk_vector, arr, path)
        if out is not None and length is not None and len(out) != length:
            self.error(path, f"expected {length} components, got {len(out)}")
            return None
        return out

    def _walk_vector(self, arr: list, path, ctx=None, got=None) -> Optional[tuple]:
        # Components that are clean hits of the rational memo are read in
        # place; the first that is not sends the whole vector through items.
        rationals = self._rationals
        values = []
        for raw in arr:
            hit = rationals.get(_key(raw))
            if hit is None or hit[1]:
                values, ok = self.items(arr, path, _Parser.rational)
                return tuple(values) if ok else None
            values.append(hit[0])
        return tuple(values)

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

    def named_rationals(self, value, path, ctx=None, got=None) -> Optional[dict]:
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

    def ids(self, value, path, ctx=None, got=None) -> Optional[tuple[str, ...]]:
        out, ok = self.items(value, path, _Parser.string, None, str, "id")
        return tuple(sorted(out)) if ok else None

    # -- schemas -----------------------------------------------------------

    def dimensions(self, value, path, ctx=None, got=None) -> Optional[tuple[Dimension, ...]]:
        dims, ok = self.items(
            value, path, _DIMENSION.walk, None, attrgetter("name"), "dimension name"
        )
        if not ok:
            return None
        if not dims:
            self.error(path, "a dimension schema needs at least one dimension")
            return None
        return tuple(dims)

    def description(self, value, path, ctx=None, got=None) -> Optional[str]:
        if isinstance(value, str):
            return value
        self.error(path, "expected a string")
        return None

    # -- scenario ----------------------------------------------------------

    def scenario(self, value, path, ctx=None, got=None) -> Optional[Scenario]:
        if not isinstance(value, dict):
            return self.mistyped(value, path, "an object")
        first = self._first_equal(value)
        return self.memo(self._scenarios, id(first), _SCENARIO.walk, value, path)

    def catalog(self, value, path, ctx, got) -> Optional[tuple[FunctioningVector, ...]]:
        """The functionings in document order, the order the maps report in.
        The walk ends here if they or the resources failed: patterns use both."""
        functionings, ok = self.items(
            value, path, _Parser.functioning, len(got["schemas"]["B"]), _ID, "functioning id"
        )
        return tuple(functionings) if ok and got["resources"] is not None else None

    def functioning(self, value, path, width: int, got=None) -> Optional[FunctioningVector]:
        """A catalog entry, walked once per distinct raw entry and B width."""
        return self.memo(
            self._functionings, (width, _key(value)), _FUNCTIONING.walk, value, path, width
        )

    def pattern(self, value, path, uses: _Uses, got=None) -> Optional[UtilizationEntry]:
        """A utilization entry.  Its fields and guards are walked once per
        distinct raw entry and context names; its resource and output ids
        are checked at every occurrence, after the walk's diagnostics."""
        key = (uses.characteristics, uses.social, _key(value))
        entry = self.memo(self._patterns, key, _UTILIZATION.walk, value, path, uses)
        if entry is None:
            return None
        if uses.resource_ids is not None and entry.resource_id not in uses.resource_ids:
            self.error(f"{path}.resource_id", f"unknown resource id {entry.resource_id!r}")
            return None
        if entry.output not in uses.fv_ids:
            self.error(f"{path}.output", f"unknown functioning id {entry.output!r}")
            return None
        return entry

    def maps(self, value, path, ctx, got) -> Optional[dict]:
        fvs = got["functionings"]
        catalog = (got["schemas"], fvs, {fv.id for fv in fvs}, _equal_value_pairs(fvs))
        return _MAPS.walk(self, value, path, catalog)

    def finish_scenario(self, got, path, ctx) -> Scenario:
        # Orphan warning: catalog entries no pattern outputs, unless flagged.
        outputs = {entry.output for entry in got["utilization"]}
        for fv in got["functionings"]:
            if fv.id not in outputs and not fv.unreachable:
                self.warning(
                    f"{path}.functionings",
                    f"functioning {fv.id!r} is not the output of any utilization "
                    "pattern; flag it \"unreachable\" if that is intended",
                )
        got["functionings"] = tuple(sorted(got["functionings"], key=_ID))
        return Scenario(**got)

    def finish_guard(self, got, path, uses: _Uses) -> Optional[Guard]:
        context, component = got["context"], got["component"]
        if context not in GUARD_CONTEXTS:
            self.error(
                f"{path}.context", f"guard context must be one of {', '.join(GUARD_CONTEXTS)}"
            )
            return None
        vector = uses.characteristics if context == "characteristics" else uses.social
        if component not in vector:
            self.error(f"{path}.component", f"unknown {context} component {component!r}")
            return None
        return Guard(**got)

    # -- valuation maps ----------------------------------------------------

    def codomain_map(self, value, path, catalog, got, map_id) -> Optional[ValuationMap]:
        """Map ``map_id`` over a catalog: (schemas, functionings, their ids,
        the pairs of them with equal values)."""
        schemas, functionings, fv_ids, same_values = catalog
        space = _CODOMAINS[map_id]
        if space not in schemas:
            self.error(path, f"map {map_id!r} needs schema {space!r}, which is not declared")
            return None
        context = _MapContext(
            map_id, len(schemas[space]), len(schemas["B"]), functionings, fv_ids, same_values
        )
        return self.valuation_map(value, path, context)

    def valuation_map(self, value, path, ctx: _MapContext) -> Optional[ValuationMap]:
        """A map walked by the table of its form; while the form is missing
        or invalid, by the table of both forms."""
        form = value.get("form") if isinstance(value, dict) else None
        kind = _MAP_FORMS.get(form, _ANY_MAP) if type(form) is str else _ANY_MAP
        return kind.walk(self, value, path, ctx)

    def map_form(self, value, path, ctx=None, got=None) -> Optional[str]:
        form = self.string(value, path)
        if form is not None and form not in _MAP_FORMS:
            self.error(path, "valuation map form must be 'table' or 'linear'")
            return None
        return form

    def entries(self, value, path, ctx: _MapContext, got=None) -> Optional[dict]:
        obj = self.obj(value, path)
        if obj is None:
            return None
        entries = {}
        ok = True
        vectors, width = self._vectors, ctx.codomain_len
        for fid, raw in obj.items():
            if fid not in ctx.fv_ids:
                self.error(f"{path}.{fid}", f"entry for unknown functioning {fid!r}")
                ok = False
                continue
            # A clean hit of the vector memo is read in place; anything else
            # takes rational_vector's path.
            hit = vectors.get(_key(raw)) if type(raw) is list else None
            if hit is not None and not hit[1] and len(hit[0]) == width:
                entries[fid] = hit[0]
                continue
            vec = self.rational_vector(raw, f"{path}.{fid}", width)
            if vec is None:
                ok = False
                continue
            entries[fid] = vec
        for fv in ctx.functionings:
            if fv.id not in obj:
                self.error(
                    path, f"map {ctx.map_id!r} is not total: no entry for functioning {fv.id!r}"
                )
                ok = False
        if not ok:
            return None
        for prior, fid in ctx.same_values:
            if entries[prior] != entries[fid]:
                self.error(
                    path,
                    f"functionings {prior!r} and {fid!r} have equal values "
                    f"but different {ctx.map_id!r} images",
                )
                ok = False
        return entries if ok else None

    def matrix(self, value, path, ctx: _MapContext, got=None) -> Optional[tuple]:
        arr = self.array(value, path)
        if arr is None:
            return None
        if len(arr) != ctx.codomain_len:
            self.error(path, f"expected {ctx.codomain_len} rows, got {len(arr)}")
            return None
        rows, ok = self.items(arr, path, _Parser.rational_vector, ctx.domain_len)
        return tuple(rows) if ok else None

    def finish_linear(self, got, path, ctx: _MapContext) -> Optional[ValuationMap]:
        linear = ValuationMap(ctx.map_id, "linear", matrix=got["matrix"], _ints=self._ints)
        # Reports print images, so each must print within the digit limit;
        # the map keeps them, so no image is computed twice.
        for fv in ctx.functionings:
            if any(exceeds_digit_limit(x) for x in linear.apply(fv)):
                self.error(
                    f"{path}.matrix",
                    f"map {ctx.map_id!r} gives functioning {fv.id!r} an image whose "
                    "numerator or denominator would exceed "
                    f"{sys.get_int_max_str_digits()} digits",
                )
                return None
        return linear

    # -- interactions ------------------------------------------------------

    def target(self, value, path, scenario: Scenario, got=None) -> Optional[str]:
        target = self.string(value, path)
        if target is not None and target != scenario.agent_id:
            self.error(
                path,
                f"interaction targets {target!r} but the scenario describes "
                f"agent {scenario.agent_id!r}",
            )
            return None
        return target

    def listed(self, value, path, names, what: str) -> Optional[str]:
        """One of ``names``; any other string is an unknown ``what``."""
        name = self.string(value, path)
        if name is not None and name not in names:
            self.error(path, f"unknown {what} {name!r}; valid {what}s: {', '.join(names)}")
            return None
        return name

    def mechanism(self, value, path, ctx=None, got=None) -> Optional[str]:
        return self.listed(value, path, MECHANISMS, "mechanism")

    def mechanisms(self, value, path, ctx=None, got=None) -> Optional[tuple[str, ...]]:
        out, ok = self.items(
            value, path, _Parser.mechanism, key=str, label="mechanism", repeat="warning"
        )
        return tuple(out) if ok else None

    def outcome(self, value, path, scenario: Scenario, got=None) -> Optional[str]:
        outcome = self.string(value, path)
        if outcome is not None and not scenario.has_functioning(outcome):
            self.error(path, f"unknown functioning id {outcome!r}")
            return None
        return outcome

    def estimate(self, value, path, s: Scenario, got=None) -> Optional[ValuationMap]:
        """The actor's estimate of the target's ``v``, over the main catalog."""
        catalog = (s.schemas, s.functionings, s._fv_by_id, _equal_value_pairs(s.functionings))
        return self.codomain_map(value, path, catalog, None, "v")

    def believed(self, value, path, main: Scenario, got=None) -> Optional[Scenario]:
        override = self.scenario(value, path)
        if override is not None:
            self.check_override(override, main, path)
        return override

    def threat(self, value, path, main: Scenario, got=None) -> Optional[Scenario]:
        override = self.believed(value, path, main)
        if override is not None and ("u" in main.maps) != ("u" in override.maps):
            self.error(
                f"{path}.maps",
                "threat scenario must declare the transient valuation "
                "'u' exactly when the main scenario does",
            )
        return override

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

    def prerequisites(self, raw, got, path, scenario) -> None:
        """A declared mechanism needs the counterfactual it is judged on."""
        mechanisms = got["mechanisms"] or ()
        if "threat" in mechanisms and "threat_scenario" not in raw:
            self.error(path, "record declares a 'threat' mechanism but no threat_scenario")
        declared_info = {"information_filtering", "misrepresentation"}.intersection(mechanisms)
        if declared_info and "believed_scenario" not in raw:
            self.error(path, f"record declares {sorted(declared_info)} but no believed_scenario")

    def offsets(self, value, path, s: Scenario, got, context: str, label: str) -> Optional[dict]:
        """Offsets to the named components of the main scenario's ``context``."""
        base = getattr(s, context)
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

    def steps(self, value, path, refs, got) -> Optional[tuple[TraceStep, ...]]:
        """The steps, given (ids of the records that parsed, the scenario)."""
        arr = self.array(value, path)
        if arr is None or got["id"] is None:
            return None
        if not arr:
            self.error(path, "a trace needs at least one step")
            return None
        steps, ok = self.items(arr, path, _STEP.walk, refs)
        return tuple(steps) if ok else None

    def finish_step(self, got, path, refs) -> Optional[TraceStep]:
        record_ids, scenario = refs
        if got["interaction"] not in record_ids:
            self.error(f"{path}.interaction", f"unknown interaction id {got['interaction']!r}")
            return None
        for label in ("target_choice", "actor_desired"):
            if not scenario.has_functioning(got[label]):
                self.error(f"{path}.{label}", f"unknown functioning id {got[label]!r}")
                return None
        return TraceStep(**got)

    # -- document ----------------------------------------------------------

    def version(self, version, path, ctx=None, got=None) -> Optional[int]:
        # True == 1 and 1.0 means 1, so the kind comes first: the version is
        # the JSON integer 1.  Bytes hold a decimal or an over-long integer.
        kind = _NOT_A_VERSION.get(type(version))
        if type(version) is bytes and not version.lstrip(b"-").isdigit():
            kind = "a decimal"
        if kind is not None:
            self.error(path, f"format_version must be the integer {FORMAT_VERSION}, not {kind}")
            return None
        if version != FORMAT_VERSION:
            if type(version) is str:
                shown = _echo(version)
            else:  # an int, or the bytes of one past the digit limit
                shown = version.decode() if type(version) is bytes else str(version)
                if len(shown) > _ECHO_CHARS:
                    shown = _echo(shown)
            self.error(
                path,
                f"unsupported format_version {shown}; this build reads "
                f"version {FORMAT_VERSION}",
            )
            return None
        return version

    # Each list keeps the items that parsed, so traces still see the ids of
    # the records that did.

    def records(self, value, path, ctx, got) -> tuple[InteractionRecord, ...]:
        records, _ = self.items(
            value, path, _RECORD.walk, got["scenario"], _ID, "interaction id", ".id"
        )
        return tuple(sorted(records, key=_ID))

    def traces(self, value, path, ctx, got) -> tuple[Trace, ...]:
        refs = ({rec.id for rec in got["interactions"]}, got["scenario"])
        traces, _ = self.items(value, path, _TRACE.walk, refs, _ID, "trace id", ".id")
        return tuple(sorted(traces, key=_ID))


# ---------------------------------------------------------------------------
# Field tables
# ---------------------------------------------------------------------------

_TEXT = (_Parser.string, str)
_FLAG = (_Parser.boolean, bool)
_VECTOR = (_Parser.rational_vector, _vector)  # ctx: the width
_RATIONAL = (_Parser.rational, format_rational)
_RATIONALS = (_Parser.named_rationals, _named)
_IDS = (_Parser.ids, list)


def _threshold(space: str) -> tuple[Callable, Callable]:
    """(walk, write) of a scenario's threshold over ``space``."""

    def walk(p, raw, path, ctx, got):
        values = p.rational_vector(raw, path, len(got["schemas"][space]))
        return ThresholdVector(values=values) if values is not None else None

    return walk, lambda threshold: _vector(threshold.values)


def _offsets(context: str, label: str) -> tuple[Callable, Callable]:
    """(walk, write) of a record's offsets to the main scenario's ``context``."""
    return partial(_Parser.offsets, context=context, label=label), _named


def _write_map(m: ValuationMap) -> dict:
    return _MAP_FORMS[m.form].write(m)


# The contexts of a scenario's resources and utilization entries, and of
# those a record's deltas add to the main scenario ``s``.
def _resource_width(ctx, got) -> int:
    return len(got["resource_schema"])


def _uses(ctx, got) -> _Uses:
    resource_ids = {res.id for res in got["resources"]}
    fv_ids = {fv.id for fv in got["functionings"]}
    characteristics, social = got["characteristics"] or (), got["social"] or ()
    return _Uses(resource_ids, fv_ids, frozenset(characteristics), frozenset(social))


def _added_width(s, got) -> int:
    return len(s.resource_schema)


def _added(s, got) -> _Uses:
    return _Uses(None, s._fv_by_id, frozenset(s.characteristics), frozenset(s.social))


_DIMENSION = _Kind(
    (
        _Row("name", *_TEXT, on_error=_STOP),
        _Row("description", _Parser.description, str, "", True, _DEFAULT),
    ),
    _build(Dimension),
)
_DIMENSIONS = (_Parser.dimensions, lambda dims: [_DIMENSION.write(d) for d in dims])
_SCHEMA = (_Parser.dimensions, lambda schema: [_DIMENSION.write(d) for d in schema.dims])
_SCHEMAS = _Kind(
    (*(_Row(space, *_SCHEMA) for space in "BEP"), _Row("U", *_SCHEMA, None, True, _DEFAULT)),
    lambda p, got, path, ctx: {
        space: DimensionSchema(space_id=space, dims=dims) for space, dims in got.items() if dims
    },
    noun="schema",
    read=Mapping.get,
)
_RESOURCE = _Kind((_Row("id", *_TEXT), _Row("values", *_VECTOR)), _build(ResourceVector))
_FUNCTIONING = _Kind(
    (
        _Row("id", *_TEXT),
        _Row("values", *_VECTOR),
        _Row("unreachable", *_FLAG, False, True, _DEFAULT),
    ),
    lambda p, got, path, width: FunctioningVector(**got, value_key=p.value_key(got["values"])),
)
_GUARD = _Kind(
    (_Row("context", *_TEXT), _Row("component", *_TEXT), _Row("min", *_RATIONAL)),
    _Parser.finish_guard,
)
_GUARDS = _many(_GUARD, attrgetter("context", "component", "min"))
_UTILIZATION = _Kind(
    (
        _Row("pattern_id", *_TEXT),
        _Row("resource_id", *_TEXT),
        _Row("output", *_TEXT),
        _Row("guards", *_GUARDS, [], True),
    ),
    _build(UtilizationEntry),
)
_FORM = _Row("form", _Parser.map_form, str, on_error=_STOP)
_ENTRIES = _Row("entries", _Parser.entries, lambda e: {f: _vector(v) for f, v in e.items()})
_MATRIX = _Row("matrix", _Parser.matrix, lambda matrix: [_vector(row) for row in matrix])
_MAP_FORMS = {
    "table": _Kind(
        (_FORM, _ENTRIES),
        lambda p, got, path, ctx: ValuationMap(
            ctx.map_id, "table", got["entries"], _ints=p._ints
        ),
    ),
    "linear": _Kind((_FORM, _MATRIX), _Parser.finish_linear),
}
# Read only while a map's form is missing or invalid, so its form row always
# ends the walk.
_ANY_MAP = _Kind((_FORM, _ENTRIES, _MATRIX), None)
_MAPS = _Kind(
    (
        *(_Row(m, partial(_Parser.codomain_map, map_id=m), _write_map) for m in "vr"),
        _Row("u", partial(_Parser.codomain_map, map_id="u"), _write_map, None, True),
    ),
    lambda p, got, path, ctx: {map_id: m for map_id, m in got.items() if m is not None},
    noun="valuation map",
    read=Mapping.get,
)
_SCENARIO = _Kind(
    (
        _Row("agent_id", *_TEXT),
        _Row("schemas", _SCHEMAS.walk, _SCHEMAS.write, on_error=_STOP),
        _Row("resource_schema", *_DIMENSIONS, on_error=_STOP),
        _Row("resources", *_many(_RESOURCE, _ID, "resource id", _resource_width), []),
        _Row("characteristics", *_RATIONALS, {}),
        _Row("social", *_RATIONALS, {}),
        _Row("functionings", _Parser.catalog, _many(_FUNCTIONING, _ID)[1], [], False, _STOP),
        _Row(
            "utilization",
            *_many(_UTILIZATION, _PATTERN_ID, "pattern id", _uses, _Parser.pattern),
            [],
        ),
        _Row("maps", _Parser.maps, _MAPS.write),
        _Row("theta", *_threshold("E")),
        _Row("theta_p", *_threshold("P"), None, True, _DEFAULT),
    ),
    _Parser.finish_scenario,
)
_DELTAS = _Kind(
    (
        _Row("resources_added", *_many(_RESOURCE, _ID, "resource id", _added_width), [], True),
        _Row("resources_removed", *_IDS, [], True),
        _Row("utilization_removed", *_IDS, [], True),
        _Row("characteristics_delta", *_offsets("characteristics", "characteristic"), {}, True),
        _Row("social_delta", *_offsets("social", "social component"), {}, True),
        # Resource presence for added entries depends on the evolving state
        # (earlier trace steps may add the resource), so it is checked at
        # application time; outputs and guard components are static.
        _Row(
            "utilization_added",
            *_many(_UTILIZATION, _PATTERN_ID, "pattern id", _added, _Parser.pattern),
            [],
            True,
        ),
    ),
    _build(InteractionDeltas),
)
_RECORD = _Kind(
    (
        _Row("id", *_TEXT),
        _Row("actor_id", *_TEXT),
        _Row("target", _Parser.target, str),
        _Row("intent", lambda p, raw, path, ctx, got: p.listed(raw, path, INTENTS, "intent"), str),
        _Row("mechanisms", _Parser.mechanisms, list),
        _Row("actor_has_right", *_FLAG),
        _Row("communication_feasible", *_FLAG),
        _Row("proportionality_ok", *_FLAG),
        _Row("unfair_terms", *_FLAG, False, True, _DEFAULT),
        _Row("promoted_outcome", _Parser.outcome, str, None, True, _DEFAULT),
        _Row("deltas", _DELTAS.walk, _DELTAS.write),
        _Row("actor_estimate_of_target_values", _Parser.estimate, _write_map, None, True, _DEFAULT),
        _Row("believed_scenario", _Parser.believed, _SCENARIO.write, None, True, _DEFAULT),
        _Row("threat_scenario", _Parser.threat, _SCENARIO.write, None, True, _DEFAULT),
    ),
    _build(InteractionRecord),
    check=_Parser.prerequisites,
)
_STEP = _Kind(
    (_Row("interaction", *_TEXT), _Row("target_choice", *_TEXT), _Row("actor_desired", *_TEXT)),
    _Parser.finish_step,
)
_TRACE = _Kind(
    (
        _Row("id", *_TEXT),
        _Row("steps", _Parser.steps, lambda steps: [_STEP.write(step) for step in steps]),
    ),
    _build(Trace),
)
_DOCUMENT = _Kind(
    (
        _Row("format_version", _Parser.version, int),
        _Row("scenario", _Parser.scenario, _SCENARIO.write, on_error=_STOP),
        _Row("interactions", _Parser.records, _many(_RECORD, _ID)[1], [], True),
        _Row("traces", _Parser.traces, _many(_TRACE, _ID)[1], [], True),
    ),
    lambda p, got, path, ctx: None if p.failed else ScenarioDocument(**got),
)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def _decode(text: str):
    """The JSON value of ``text``, read with the hooks the parser relies on."""
    return json.loads(
        text,
        cls=_DocumentDecoder,
        parse_float=json_decimal,
        parse_int=json_integer,
        parse_constant=_reject_constant,
        object_pairs_hook=_pairs_hook,
    )


def parse_document(
    text: str, *, lenient: bool = False
) -> tuple[ScenarioDocument, list[Diagnostic]]:
    """Parse and validate a scenario document.

    Returns the document plus any warnings.  Raises :class:`DocumentError`
    carrying every located diagnostic when the document has errors.
    """
    try:
        raw = _decode(text)
    except _DuplicateKey as exc:
        raise DocumentError(
            [Diagnostic("error", "$", f"duplicate object key {exc.key!r}")]
        ) from None
    except RecursionError:
        raise DocumentError([_TOO_DEEP]) from None
    except json.JSONDecodeError as exc:
        where = f"line {exc.lineno}, column {exc.colno}"
        raise DocumentError([Diagnostic("error", where, f"not valid JSON: {exc.msg}")]) from None
    except ValueError as exc:
        raise DocumentError(
            [Diagnostic("error", "document", f"not valid JSON: {exc.args[0].split(':')[0]}")]
        ) from None

    p = _Parser(lenient=lenient)
    document = _DOCUMENT.walk(p, raw, "$")
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


def document_to_obj(doc: ScenarioDocument) -> dict:
    return _DOCUMENT.write(doc)


def serialize_document(doc: ScenarioDocument) -> str:
    """Canonical text form: sorted keys, lowest-terms rationals, trailing newline."""
    return json.dumps(document_to_obj(doc), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def serialize_scenario(s: Scenario) -> str:
    """Canonical text of one scenario object (used for post-state golden files)."""
    return json.dumps(_SCENARIO.write(s), sort_keys=True, indent=2, ensure_ascii=False) + "\n"
