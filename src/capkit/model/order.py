"""Pareto dominance and the threshold-sensitive preference relation.

These relations compare exact rational vectors componentwise.  They are the
only comparison primitives the judgment layer uses, so their laws (partial
order, strict partial order) are property-tested heavily.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ..errors import SchemaError

Vector = Sequence[Fraction]


def _check_lengths(a: Vector, b: Vector) -> None:
    if len(a) != len(b):
        raise SchemaError(
            f"cannot compare vectors of different lengths ({len(a)} vs {len(b)})"
        )


def dominates(a: Vector, b: Vector) -> bool:
    """Weak Pareto dominance: every component of a is at least b's."""
    _check_lengths(a, b)
    return all(x >= y for x, y in zip(a, b))


def strictly_dominates(a: Vector, b: Vector) -> bool:
    """Strict Pareto dominance: a weakly dominates b and differs somewhere."""
    _check_lengths(a, b)
    return dominates(a, b) and tuple(a) != tuple(b)


def sat_set(x: Vector, theta: Vector) -> frozenset[int]:
    """Indices of the threshold components that x meets or exceeds."""
    _check_lengths(x, theta)
    return frozenset(k for k, (xv, tv) in enumerate(zip(x, theta)) if xv >= tv)


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
    _check_lengths(a, theta)
    return strictly_dominates(a, b) or sat_set(a, theta) > sat_set(b, theta)
