"""Domain types for capability scenarios.

A scenario is a finite, fully enumerated description of one agent's
situation: the catalog of functioning vectors they could in principle
realize, the resources they hold, their personal and social conversion
context, the utilization patterns that turn resources into functionings,
the valuation maps over those functionings, and the entitlement thresholds
they are owed.  Everything is finite on purpose -- every quantified
condition in the judgment layer is decided by exhaustive enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional

from ..errors import SchemaError, ValuationError

#: Spaces a dimension schema can describe: functionings, entitlement
#: capabilities, life-plan value, and transient value.
SPACE_IDS = ("B", "E", "P", "U")

INTENTS = ("benefit_target", "benefit_actor", "benefit_third_party", "mixed", "unknown")

MECHANISMS = (
    "offer",
    "resource_transfer",
    "threat",
    "physical_force",
    "information_filtering",
    "misrepresentation",
    "persuasion",
)

GUARD_CONTEXTS = ("characteristics", "social")


@dataclass(frozen=True)
class Dimension:
    """One named axis of a vector space."""

    name: str
    description: str = ""


@dataclass(frozen=True)
class DimensionSchema:
    """An ordered list of named dimensions for one space.

    space_id: which space this schema describes ("B", "E", "P", or "U").
    dims: the axes, in the order vector components are written.
    """

    space_id: str
    dims: tuple[Dimension, ...]

    def __post_init__(self):
        if self.space_id not in SPACE_IDS:
            raise SchemaError(
                f"unknown space id {self.space_id!r}; expected one of {SPACE_IDS}"
            )
        if not self.dims:
            raise SchemaError(f"schema for space {self.space_id} has no dimensions")
        seen = set()
        for dim in self.dims:
            if dim.name in seen:
                raise SchemaError(
                    f"duplicate dimension name {dim.name!r} in space {self.space_id}"
                )
            seen.add(dim.name)

    def __len__(self) -> int:
        return len(self.dims)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dims)


@dataclass(frozen=True)
class FunctioningVector:
    """A complete way of being and doing, as a point in B-space.

    ``unreachable`` marks catalog entries that no utilization pattern is
    expected to produce in the base scenario (they may become reachable
    after an interaction); validators use it to suppress the orphan
    warning.

    ``value_key`` is ``value_key_of(values)``, built at construction unless
    given; it stands for the values wherever vectors are hashed or compared
    for equality.  The parser passes one shared key per distinct vector;
    ``dataclasses.replace`` with new values must pass ``value_key=None``.
    """

    id: str
    values: tuple[Fraction, ...]
    unreachable: bool = False
    value_key: tuple[int, ...] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.value_key is None:
            object.__setattr__(self, "value_key", value_key_of(self.values))


def value_key_of(values) -> tuple[int, ...]:
    """Rational values as one flat int tuple of (numerator, denominator) pairs.

    A rational in lowest terms with a positive denominator has exactly one
    such pair, so two keys are equal exactly when the two value tuples are;
    ints hash and compare far faster than Fractions.
    """
    return tuple(n for x in values for n in (x.numerator, x.denominator))


@dataclass(frozen=True)
class ResourceVector:
    """A bundle of goods the agent holds, as a point in resource space."""

    id: str
    values: tuple[Fraction, ...]


@dataclass(frozen=True)
class Guard:
    """A lower-bound condition on one conversion-context component.

    The guard holds when the named component of the named context vector is
    at least ``min``.  Guards are deliberately lower-bound-only: a finite
    conjunction of minimums keeps utilization membership monotone in the
    context, which the freedom-set monotonicity property relies on.
    """

    context: str
    component: str
    min: Fraction

    def __post_init__(self):
        if self.context not in GUARD_CONTEXTS:
            raise SchemaError(
                f"guard context {self.context!r} must be one of {GUARD_CONTEXTS}"
            )


@dataclass(frozen=True)
class UtilizationEntry:
    """One way of converting a resource into a functioning.

    The entry contributes its ``output`` functioning to the freedom set
    whenever the referenced resource is present and every guard holds.
    """

    pattern_id: str
    resource_id: str
    guards: tuple[Guard, ...]
    output: str


@dataclass(frozen=True)
class ValuationMap:
    """A total map from the functioning catalog into a codomain space.

    Two forms:

    * ``table`` -- an explicit image per functioning id, total over the
      scenario's catalog;
    * ``linear`` -- an exact rational matrix applied to the B-vector
      (rows = codomain dimensions, columns = B dimensions).  ``apply``
      keeps each image it computes in ``images``, keyed by the vector's
      ``value_key``; the parser fills it with the catalog's images.

    Maps are read-only, like :class:`Scenario`: the frontier kernels cache
    the stored images' integer table on the instance (empty when they are
    absent, ragged or not all rational; images it lacks are computed per call).
    ``_ints``, where given, memoizes integer images per (image tuple, scale);
    the parser gives the maps of one document one memo, so an image tuple
    they share is put on a scale once.
    """

    map_id: str
    form: str
    entries: Optional[Mapping[str, tuple[Fraction, ...]]] = None
    matrix: Optional[tuple[tuple[Fraction, ...], ...]] = None
    _table: object = field(default=None, repr=False, compare=False, hash=False)
    _ints: Optional[dict] = field(default=None, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if self.map_id not in ("v", "r", "u"):
            raise SchemaError(f"valuation map id must be 'v', 'r', or 'u', got {self.map_id!r}")
        if self.form == "table":
            if self.entries is None:
                raise SchemaError(f"table map {self.map_id!r} has no entries")
        elif self.form == "linear":
            if self.matrix is None:
                raise SchemaError(f"linear map {self.map_id!r} has no matrix")
        else:
            raise SchemaError(f"valuation map form must be 'table' or 'linear', got {self.form!r}")
        # replace() passes the old instance's table in; never inherit it.
        object.__setattr__(self, "_table", None)
        object.__setattr__(self, "images", {} if self.form == "linear" else None)

    def _stored(self):
        """The stored images, and the functioning attribute that keys them."""
        return (self.entries, "id") if self.form == "table" else (self.images, "value_key")

    def apply(self, fv: FunctioningVector) -> tuple[Fraction, ...]:
        """Image of one functioning vector under this map."""
        images, key = self._stored()
        image = images.get(getattr(fv, key))
        if image is not None:
            return image
        if self.form == "table":
            raise ValuationError(
                f"valuation map {self.map_id!r} has no entry for functioning {fv.id!r}"
            )
        image = []
        for row in self.matrix:
            if len(row) != len(fv.values):
                raise ValuationError(
                    f"linear map {self.map_id!r} row width {len(row)} does not match "
                    f"functioning {fv.id!r} of length {len(fv.values)}"
                )
            image.append(sum((a * x for a, x in zip(row, fv.values)), Fraction(0)))
        image = images[fv.value_key] = tuple(image)
        return image


@dataclass(frozen=True)
class ThresholdVector:
    """Entitlement minimums over E-space: what the agent is owed access to."""

    values: tuple[Fraction, ...]


@dataclass(frozen=True)
class Scenario:
    """One agent's complete, finite situation.

    schemas holds the B/E/P (and optionally U) dimension schemas;
    ``resource_schema`` names the axes resource vectors are written in.
    ``theta`` is the entitlement threshold over E-space; ``theta_p`` is an
    optional aspiration threshold over P-space used by the life-plan
    assistance test.

    Derived sets (Q, Q*, M, the access profile) are cached per instance, so
    callers must treat the mapping fields as read-only.  The parser gives
    equal scenario subtrees of one document one shared instance (a record's
    believed scenario may be the document's scenario itself), so a change
    made through one reference would show through all of them.
    """

    agent_id: str
    schemas: Mapping[str, DimensionSchema]
    resource_schema: tuple[Dimension, ...]
    resources: tuple[ResourceVector, ...]
    characteristics: Mapping[str, Fraction]
    social: Mapping[str, Fraction]
    functionings: tuple[FunctioningVector, ...]
    utilization: tuple[UtilizationEntry, ...]
    maps: Mapping[str, ValuationMap]
    theta: ThresholdVector
    theta_p: Optional[ThresholdVector] = None
    _fv_by_id: Mapping[str, FunctioningVector] = field(
        default=None, repr=False, compare=False, hash=False
    )
    _derived: dict = field(default=None, repr=False, compare=False, hash=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_fv_by_id", {fv.id: fv for fv in self.functionings}
        )
        # replace() passes the old instance's cache in; never inherit it.
        object.__setattr__(self, "_derived", {})

    # -- lookups -----------------------------------------------------------

    def functioning(self, fv_id: str) -> FunctioningVector:
        try:
            return self._fv_by_id[fv_id]
        except KeyError:
            raise SchemaError(f"unknown functioning id {fv_id!r}") from None

    def has_functioning(self, fv_id: str) -> bool:
        return fv_id in self._fv_by_id

    def context_value(self, context: str, component: str) -> Fraction:
        vector = self.characteristics if context == "characteristics" else self.social
        try:
            return vector[component]
        except KeyError:
            raise SchemaError(
                f"context vector {context!r} has no component {component!r}"
            ) from None

    # -- valuation maps ----------------------------------------------------

    @property
    def v(self) -> ValuationMap:
        return self.maps["v"]

    @property
    def r(self) -> ValuationMap:
        return self.maps["r"]

    @property
    def u(self) -> ValuationMap:
        """Transient valuation; falls back to v when not declared."""
        return self.maps.get("u", self.maps["v"])


def dedupe_by_value(vectors) -> "dict[tuple[int, ...], FunctioningVector]":
    """Collapse functioning vectors that share the same value.

    Ids are only labels: two entries with equal component values denote the
    same way of being and doing, so set computations treat them as one
    element.  The representative kept is the one with the smallest id, which
    makes reported id lists deterministic.  The result is keyed by
    :attr:`FunctioningVector.value_key`, not by the Fraction tuple.
    """
    out: dict[tuple[int, ...], FunctioningVector] = {}
    for fv in vectors:
        key = fv.value_key
        cur = out.get(key)
        if cur is None or fv.id < cur.id:
            out[key] = fv
    return out


def value_set(vectors) -> frozenset:
    """The distinct values (as :attr:`FunctioningVector.value_key`), i.e. the
    vectors with ids erased."""
    return frozenset(fv.value_key for fv in vectors)
