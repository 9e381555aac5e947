"""Pareto-maximal subsets of finite functioning sets.

This is the engine implementation: a sort-then-filter skyline scan.  The
independent quadratic implementation lives in the test suite's oracle and
the two are held to exact set equality by the differential test suite.

Images are compared as integers.  :func:`integer_images` multiplies
component k of every image in a comparison by D_k, the lcm of the
denominators found in column k, which turns each component into an exact
int.  Multiplying a column by a positive constant preserves ≥ and = in that
column, so ⪰, ≻, equality and every threshold test (θ scaled with the
images) give the same answers on the ints as on the rationals.  The scale is
chosen per comparison, from the images at hand.
"""

from __future__ import annotations

from itertools import chain
from math import lcm
from numbers import Rational
from typing import Callable, Iterable, Sequence, Union

from ..errors import SchemaError, ValuationError
from .order import strictly_dominates
from .types import FunctioningVector, ValuationMap, dedupe_by_value

Valuation = Union[ValuationMap, Callable[[FunctioningVector], tuple]]


def as_applier(w: Valuation) -> Callable[[FunctioningVector], tuple]:
    """The image function of a valuation given as a map or as a callable."""
    if isinstance(w, ValuationMap):
        return w.apply
    return w


def integer_images(
    *groups: Sequence[Sequence[Rational]],
) -> list[list[tuple[int, ...]]]:
    """The groups of images, on one integer scale shared by all of them.

    Component k of each image is multiplied by the lcm of the denominators
    in column k across every group.  All images must have one length
    (:class:`SchemaError` otherwise) and ``numbers.Rational`` components
    (:class:`ValuationError` otherwise).
    """
    images = list(chain.from_iterable(groups))
    widths = sorted({len(img) for img in images})
    if len(widths) > 1:
        raise SchemaError(
            f"cannot compare vectors of different lengths ({widths[0]} vs {widths[1]})"
        )
    try:
        scale = [lcm(*{x.denominator for x in column}) for column in zip(*images)]
        return [
            [tuple([x.numerator * (d // x.denominator) for x, d in zip(img, scale)])
             for img in group]
            for group in groups
        ]
    except (AttributeError, TypeError):
        for x in chain.from_iterable(images):
            if not isinstance(x, Rational):
                raise ValuationError(
                    f"image component {x!r} is a {type(x).__name__}, "
                    "not an exact rational"
                ) from None
        raise


def maximal_indices(images: Sequence[Sequence[Rational]]) -> list[int]:
    """Positions, in increasing order, of the images that no other image in
    the list strictly dominates.

    Images are scanned in decreasing order of their component sum on the
    integer scale of :func:`integer_images`.  That sum weights column k by
    D_k > 0, so any strict dominator has a strictly larger sum and is
    processed first; every non-maximal image is strictly dominated by some
    maximal one (finite list, transitive order), so checking each image
    against the frontier built so far is sufficient.  Equal images are all
    maximal or all not.
    """
    (scaled,) = integer_images(images)
    sums = [sum(img) for img in scaled]
    frontier: list[int] = []
    for i in sorted(range(len(scaled)), key=sums.__getitem__, reverse=True):
        if not any(strictly_dominates(scaled[k], scaled[i]) for k in frontier):
            frontier.append(i)
    return sorted(frontier)


def maximal_set(
    q: Iterable[FunctioningVector], w: Valuation
) -> tuple[FunctioningVector, ...]:
    """Elements of q whose w-image no other element's image strictly dominates.

    Input is deduplicated by functioning-vector value; the maximal elements
    are found by :func:`maximal_indices` over their images, whose components
    must be ``numbers.Rational`` (a float raises :class:`ValuationError`).
    Distinct vectors with equal images are all maximal or all not, and are
    all returned.  The result is ordered by id.
    """
    apply = as_applier(w)
    candidates = list(dedupe_by_value(q).values())
    images = [tuple(apply(fv)) for fv in candidates]
    return tuple(
        sorted((candidates[i] for i in maximal_indices(images)), key=lambda fv: fv.id)
    )
