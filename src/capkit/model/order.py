"""Pareto dominance and the threshold-sensitive preference relation.

These relations compare exact rational vectors componentwise.  Each puts
its two or three vectors on one integer scale with
:func:`~capkit.model.frontier.integer_images` and asks the kernels the
judgments use, so the order laws property-tested here are the kernels'
laws.  Components must be ``numbers.Rational``: a float raises
:class:`ValuationError`, a length mismatch :class:`SchemaError`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .frontier import covered, integer_images, sat, strictly_beaten

Vector = Sequence[Fraction]


def dominates(a: Vector, b: Vector) -> bool:
    """Weak Pareto dominance: every component of a is at least b's."""
    (ia, ib), _ = integer_images([a, b])
    return next(covered([ib], [ia]))


def strictly_dominates(a: Vector, b: Vector) -> bool:
    """Strict Pareto dominance: a weakly dominates b and differs somewhere."""
    (ia, ib), _ = integer_images([a, b])
    return strictly_beaten([ib], [ia])


def sat_set(x: Vector, theta: Vector) -> frozenset[int]:
    """Indices of the threshold components that x meets or exceeds."""
    (ix, itheta), _ = integer_images([x, theta])
    return sat(ix, itheta)


def theta_prefers(a: Vector, b: Vector, theta: Vector) -> bool:
    """Strict threshold-sensitive preference between two codomain vectors.

    Crossing a previously unmet threshold is treated as a first-class
    improvement: with ``sat(x)`` the set of threshold components x meets,
    a is preferred to b when sat(a) ⊋ sat(b), or sat(a) ⊇ sat(b) and a
    strictly dominates b.  Newly meeting a minimum therefore counts as a
    strict improvement even when the vectors are otherwise
    Pareto-incomparable.

    Because a ⪰ b already implies sat(a) ⊇ sat(b), this reduces to a ≻ b
    or sat(a) ⊋ sat(b).  The weak form (sat(a) ⊇ sat(b) and a ⪰ b) reduces
    the same way to ``dominates(a, b)``, so it has no function of its own.
    """
    (ia, ib, itheta), _ = integer_images([a, b, theta])
    return strictly_beaten([ib], [ia], itheta)
