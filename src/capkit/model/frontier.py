"""Pareto-maximal subsets and the set-level dominance kernels.

This is the engine implementation: a sort-then-filter skyline scan (SFS,
Chomicki et al., ICDE 2003), and the ∀∃, strict ∃∃ and θ-membership tests
the judgments ask for.  The independent quadratic implementation lives in
the test suite's oracle and the two are held to exact set equality by the
differential test suite.

Every kernel compares int images, read from one table per valuation:
component k is multiplied by D_k, the lcm of the denominators in column k
over the table's images, so ⪰, ≻ and equality give the same answers on the
ints as on the rationals (D_k > 0).  A map's stored images (table entries,
or a parsed linear map's catalog images) become its table once, cached on
the map; a callable, a linear map built in code, or a vector outside the
stored images gets a transient table of the images asked for.  A table's
scale is taken over its map's distinct image tuples, and the maps one
document parses to share one memo, so each (image tuple, scale) of the
document is put on ints once.  Tables on one scale are used as they are;
tables on different scales meet on the column lcm L, column k times
L_k/D_k.  θ goes on as ⌈θ_k·L_k⌉: for an int x, x ≥ θ_k·L_k iff
x ≥ ⌈θ_k·L_k⌉.  :func:`_on_scale` is the one Fraction→int step.
"""

from __future__ import annotations

from itertools import chain
from math import lcm
from numbers import Rational
from operator import attrgetter, ge
from typing import Iterable, Iterator, Optional, Sequence

from ..errors import SchemaError, ValuationError
from .types import FunctioningVector, ValuationMap, dedupe_by_value

Ints = list[tuple[int, ...]]
_ID = attrgetter("id")


def _same_width(widths: set[int]) -> None:
    if len(widths) > 1:
        a, b = sorted(widths)[:2]
        raise SchemaError(f"cannot compare vectors of different lengths ({a} vs {b})")


def _common_scale(images: Sequence[Sequence[Rational]]) -> tuple[int, ...]:
    """Per column, the lcm of the denominators over all the images."""
    _same_width({len(img) for img in images})
    try:
        return tuple([lcm(*{x.denominator for x in column}) for column in zip(*images)])
    except (AttributeError, TypeError):
        for x in chain.from_iterable(images):
            if not isinstance(x, Rational):
                raise ValuationError(
                    f"image component {x!r} is a {type(x).__name__}, "
                    "not an exact rational"
                ) from None
        raise


def _on_scale(img: Sequence[Rational], scale: Sequence[int]) -> tuple[int, ...]:
    """One image on an integer scale: component k times D_k."""
    return tuple([x.numerator * (d // x.denominator) for x, d in zip(img, scale)])


def integer_images(images: Sequence[Sequence[Rational]]) -> tuple[Ints, tuple[int, ...]]:
    """The images on their own integer scale, and that scale.

    Component k of each image is multiplied by the lcm of the denominators
    in column k.  All images must have one length (:class:`SchemaError`
    otherwise) and ``numbers.Rational`` components (:class:`ValuationError`
    otherwise).
    """
    scale = _common_scale(images)
    return [_on_scale(img, scale) for img in images], scale


def _build_table(w: ValuationMap):
    """(int images keyed like w's stored ones, their scale, the key getter);
    empty, on scale None, when w stores no images or they are ragged or not
    all rational.  The scale is taken over w's distinct image tuples, each
    converted once per (tuple, scale) in ``w._ints``."""
    images, key = w._stored()
    table, scale = {}, None
    distinct = {id(img): img for img in images.values()}
    try:
        scale = _common_scale(list(distinct.values())) if distinct else None
    except (SchemaError, ValuationError):
        pass
    if scale is not None:
        # memo: scale -> id(tuple) -> (tuple, int image); each entry holds its
        # tuple, so no id is reused while the memo lives.
        memo = (w._ints if w._ints is not None else {}).setdefault(scale, {})
        ints = {}
        for i, img in distinct.items():
            held = memo.get(i)
            if held is None:
                held = memo[i] = (img, _on_scale(img, scale))
            ints[i] = held[1]
        table = {k: ints[id(img)] for k, img in images.items()}
    return table, scale, attrgetter(key)


def _table(w: ValuationMap):
    if not isinstance(w, ValuationMap):
        raise TypeError(f"a valuation must be a ValuationMap, not {type(w).__name__}")
    if w._table is None:
        object.__setattr__(w, "_table", _build_table(w))
    return w._table


def _group_ints(fvs: Sequence[FunctioningVector], w: ValuationMap):
    """Int images of fvs under w and their scale: read from w's cached table
    when it holds every one, else from a transient table of their images."""
    table, scale, key = _table(w)
    try:
        return [table[key(fv)] for fv in fvs], scale
    except KeyError:
        return integer_images(list(map(w.apply, fvs)))


def _theta_on(scale: Sequence[int], theta: Sequence[Rational]) -> tuple[int, ...]:
    """θ on an integer scale: ⌈θ_k·D_k⌉."""
    _same_width({len(scale), len(theta)})
    try:
        return tuple([-(-x.numerator * d // x.denominator) for x, d in zip(theta, scale)])
    except (AttributeError, TypeError):
        _common_scale([theta])  # names the component that is not rational
        raise


def scaled_images(
    groups: Sequence[tuple[Sequence[FunctioningVector], ValuationMap]],
    theta: Optional[Sequence[Rational]] = None,
) -> tuple[list[Ints], tuple[int, ...], Optional[tuple[int, ...]]]:
    """Int images of each (vectors, valuation) group on one scale, the
    scale, and θ on it.  Each group is a table; tables on different scales
    meet on the column lcm.  With no image at all, the scale is θ's width
    of ones (empty without θ)."""
    parts = [_group_ints(fvs, w) for fvs, w in groups]
    scales = {scale for _, scale in parts if scale is not None}
    _same_width(set(map(len, scales)))
    scale = tuple(map(lcm, *scales)) if scales else (1,) * len(theta or ())
    ints = [
        group if d in (None, scale) else [
            tuple([x * (m // k) for x, m, k in zip(img, scale, d)]) for img in group
        ]
        for group, d in parts
    ]
    return ints, scale, None if theta is None else _theta_on(scale, theta)


def skyline(images: Ints) -> list[int]:
    """Positions, in increasing order, of the int images that no other one
    strictly dominates.

    Images are scanned in decreasing order of their component sum.  On an
    integer scale that sum weights column k by D_k > 0, so any strict
    dominator has a strictly larger sum and is processed first; every
    non-maximal image is strictly dominated by some maximal one (finite
    list, transitive order), so checking each image against the frontier
    built so far is sufficient.  Equal images are all maximal or all not.
    """
    sums = list(map(sum, images))
    kept: list[int] = []
    front: Ints = []
    for i in sorted(range(len(images)), key=sums.__getitem__, reverse=True):
        x = images[i]
        if not any(f != x and all(map(ge, f, x)) for f in front):
            kept.append(i)
            front.append(x)
    return sorted(kept)


def covered(targets: Ints, candidates: Ints) -> Iterator[bool]:
    """For each target, whether some candidate weakly dominates it: the ∀∃
    clause holds iff every answer is True."""
    for t in targets:
        yield any(all(map(ge, c, t)) for c in candidates)


def sat(x: Sequence[int], theta: Sequence[int]) -> frozenset[int]:
    """Indices of the threshold components that x meets or exceeds."""
    return frozenset(k for k, (a, b) in enumerate(zip(x, theta)) if a >= b)


def strictly_beaten(targets: Ints, candidates: Ints, theta=None) -> bool:
    """The strict ∃∃ clause: some candidate ≻ some target or, with θ on
    their scale, meets a strict superset of that target's thresholds."""
    if theta is None:
        return any(c != t and all(map(ge, c, t)) for t in targets for c in candidates)
    sats = [(c, sat(c, theta)) for c in candidates]
    return any(
        (c != t and all(map(ge, c, t))) or sc > st
        for t in targets
        for st in (sat(t, theta),)
        for c, sc in sats
    )


def meeting(
    fvs: Sequence[FunctioningVector], w: ValuationMap, theta: Sequence[Rational]
) -> list[FunctioningVector]:
    """Members of fvs whose w-image meets every component of θ."""
    (ints,), _, theta = scaled_images([(fvs, w)], theta)
    return [fv for fv, x in zip(fvs, ints) if all(map(ge, x, theta))]


def maximal_set(
    q: Iterable[FunctioningVector], w: ValuationMap
) -> tuple[FunctioningVector, ...]:
    """Elements of q whose w-image no other element's image strictly dominates.

    Input is deduplicated by functioning-vector value; the maximal elements
    are found by :func:`skyline` over their int images, whose components
    must be ``numbers.Rational`` (a float raises :class:`ValuationError`).
    w is a :class:`~capkit.model.types.ValuationMap`; anything else raises
    :class:`TypeError`.
    Distinct vectors with equal images are all maximal or all not, and are
    all returned.  The result is ordered by id.
    """
    return maximal_of_distinct(list(dedupe_by_value(q).values()), w)


def maximal_of_distinct(
    candidates: Sequence[FunctioningVector], w: ValuationMap
) -> tuple[FunctioningVector, ...]:
    """:func:`maximal_set` of vectors already distinct by value, such as a
    cached Q or Q*: they are not deduplicated again."""
    (ints,), _, _ = scaled_images([(candidates, w)])
    return tuple(sorted((candidates[i] for i in skyline(ints)), key=_ID))
