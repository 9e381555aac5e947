"""Pareto-maximal subsets of finite functioning sets.

This is the engine implementation: a sort-then-filter skyline scan.  The
independent quadratic implementation lives in :mod:`capkit.oracle` and the
two are held to exact set equality by the differential test suite.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

from .order import strictly_dominates
from .types import FunctioningVector, ValuationMap, dedupe_by_value

Valuation = Union[ValuationMap, Callable[[FunctioningVector], tuple]]


def as_applier(w: Valuation) -> Callable[[FunctioningVector], tuple]:
    """The image function of a valuation given as a map or as a callable."""
    if isinstance(w, ValuationMap):
        return w.apply
    return w


def maximal_indices(images: Sequence[Sequence[Fraction]]) -> list[int]:
    """Positions, in increasing order, of the images that no other image in
    the list strictly dominates.

    Images are scanned in decreasing order of component sum.  Any strict
    dominator has a strictly larger sum, so it is processed first, and every
    non-maximal image is strictly dominated by some maximal one (finite
    list, transitive order); checking each image against the frontier built
    so far is therefore sufficient.  Equal images are all maximal or all not.
    """
    sums = [sum(img, Fraction(0)) for img in images]
    frontier: list[int] = []
    for i in sorted(range(len(images)), key=sums.__getitem__, reverse=True):
        if not any(strictly_dominates(images[k], images[i]) for k in frontier):
            frontier.append(i)
    return sorted(frontier)


def maximal_set(
    q: Iterable[FunctioningVector], w: Valuation
) -> tuple[FunctioningVector, ...]:
    """Elements of q whose w-image no other element's image strictly dominates.

    Input is deduplicated by functioning-vector value; the maximal elements
    are found by :func:`maximal_indices` over their images.  Distinct
    vectors with equal images are all maximal or all not, and are all
    returned.  The result is ordered by id.
    """
    apply = as_applier(w)
    candidates = list(dedupe_by_value(q).values())
    images = [tuple(apply(fv)) for fv in candidates]
    return tuple(
        sorted((candidates[i] for i in maximal_indices(images)), key=lambda fv: fv.id)
    )
