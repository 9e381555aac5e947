"""Pareto-maximal subsets of finite functioning sets.

This is the engine implementation: a sort-then-filter skyline scan.  The
independent quadratic implementation lives in :mod:`capkit.oracle` and the
two are held to exact set equality by the differential test suite.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Union

from .order import strictly_dominates
from .types import FunctioningVector, ValuationMap, dedupe_by_value

Valuation = Union[ValuationMap, Callable[[FunctioningVector], tuple]]


def as_applier(w: Valuation) -> Callable[[FunctioningVector], tuple]:
    """The image function of a valuation given as a map or as a callable."""
    if isinstance(w, ValuationMap):
        return w.apply
    return w


def maximal_set(
    q: Iterable[FunctioningVector], w: Valuation
) -> tuple[FunctioningVector, ...]:
    """Elements of q whose w-image no other element's image strictly dominates.

    Candidates are scanned in decreasing order of image component sum.  Any
    strict dominator has a strictly larger sum, so it is processed first,
    and every non-maximal element is strictly dominated by some maximal one
    (finite set, transitive order); checking each candidate against the
    frontier built so far is therefore sufficient.

    Input is deduplicated by functioning-vector value.  Distinct vectors
    with equal images are all maximal or all not, and are all returned.
    The result is ordered by id.
    """
    apply = as_applier(w)
    candidates = list(dedupe_by_value(q).values())
    images = {fv.id: tuple(apply(fv)) for fv in candidates}
    candidates.sort(
        key=lambda fv: (sum(images[fv.id], Fraction(0)), fv.id), reverse=True
    )
    frontier: list[FunctioningVector] = []
    for fv in candidates:
        img = images[fv.id]
        if not any(strictly_dominates(images[kept.id], img) for kept in frontier):
            frontier.append(fv)
    return tuple(sorted(frontier, key=lambda fv: fv.id))
