"""Laws of the dominance and threshold-preference relations."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import genlib
import oracle
from capkit.errors import SchemaError, ValuationError
from capkit.model.order import dominates, sat_set, strictly_dominates, theta_prefers

F = Fraction

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def vectors(n: int):
    return st.tuples(*([rationals] * n))


pairs = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(vectors(n), vectors(n))
)
triples = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(vectors(n), vectors(n), vectors(n))
)
pairs_with_theta = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(vectors(n), vectors(n), vectors(n))
)
triples_with_theta = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(vectors(n), vectors(n), vectors(n), vectors(n))
)


class TestDominance:
    @given(pairs)
    def test_reflexive(self, pair):
        a, _ = pair
        assert dominates(a, a)

    @given(pairs)
    def test_antisymmetric(self, pair):
        a, b = pair
        if dominates(a, b) and dominates(b, a):
            assert a == b

    @given(triples)
    def test_transitive(self, triple):
        a, b, c = triple
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)

    @given(pairs)
    def test_strict_irreflexive(self, pair):
        a, _ = pair
        assert not strictly_dominates(a, a)

    @given(pairs)
    def test_strict_implies_weak(self, pair):
        a, b = pair
        if strictly_dominates(a, b):
            assert dominates(a, b)
            assert not strictly_dominates(b, a)

    @given(triples)
    def test_strict_transitive(self, triple):
        a, b, c = triple
        if strictly_dominates(a, b) and strictly_dominates(b, c):
            assert strictly_dominates(a, c)

    def test_examples(self):
        assert dominates((F(2), F(1)), (F(1), F(1)))
        assert not dominates((F(1), F(2)), (F(2), F(1)))
        assert not dominates((F(2), F(1)), (F(1), F(2)))
        assert strictly_dominates((F(1), F(1)), (F(1), F(0)))
        assert not strictly_dominates((F(1), F(1)), (F(1), F(1)))
        # exact arithmetic: 1/3 + 1/3 + 1/3 is exactly 1
        assert dominates((F(1, 3) + F(1, 3) + F(1, 3),), (F(1),))

    def test_length_mismatch(self):
        with pytest.raises(SchemaError, match=r"different lengths \(1 vs 2\)"):
            dominates((F(1),), (F(1), F(2)))
        with pytest.raises(SchemaError, match=r"different lengths \(1 vs 2\)"):
            strictly_dominates((F(1), F(2)), (F(1),))


class TestSatSet:
    def test_examples(self):
        theta = (F(1), F(1))
        assert sat_set((F(1), F(0)), theta) == frozenset({0})
        assert sat_set((F(0), F(0)), theta) == frozenset()
        assert sat_set((F(2), F(1)), theta) == frozenset({0, 1})

    @given(pairs_with_theta)
    def test_monotone_under_dominance(self, case):
        a, b, theta = case
        if dominates(a, b):
            assert sat_set(a, theta) >= sat_set(b, theta)

    def test_length_mismatch(self):
        with pytest.raises(SchemaError, match=r"different lengths \(1 vs 2\)"):
            sat_set((F(1),), (F(1), F(1)))


class TestThetaPreference:
    @given(pairs_with_theta)
    def test_strict_irreflexive(self, case):
        a, _, theta = case
        assert not theta_prefers(a, a, theta)

    @given(triples_with_theta)
    def test_strict_transitive(self, case):
        a, b, c, theta = case
        if theta_prefers(a, b, theta) and theta_prefers(b, c, theta):
            assert theta_prefers(a, c, theta)

    @given(pairs_with_theta)
    def test_strict_pareto_with_sat_containment(self, case):
        # Strict Pareto dominance always keeps the sat-set, so it is
        # sufficient for the strict preference.
        a, b, theta = case
        if strictly_dominates(a, b):
            assert theta_prefers(a, b, theta)

    def test_threshold_crossing_beats_pareto_loss(self):
        # Crossing a previously unmet minimum is a strict improvement even
        # at a Pareto cost elsewhere, where the weak form (``dominates``)
        # still demands componentwise dominance.
        theta = (F(1), F(1))
        a, b = (F(1), F(1)), (F(0), F(2))
        assert theta_prefers(a, b, theta)
        assert not dominates(a, b)
        assert not theta_prefers(b, a, theta)

    def test_frozen_examples(self):
        theta = (F(1), F(1))
        # strict via pure dominance inside full sat-sets
        assert theta_prefers((F(2), F(1)), (F(1), F(1)), theta)
        # incomparable sat-sets: neither direction holds
        assert not theta_prefers((F(0), F(3)), (F(2), F(0)), theta)
        assert not theta_prefers((F(2), F(0)), (F(0), F(3)), theta)
        # equal vectors are not strictly preferred
        assert not theta_prefers((F(1), F(0)), (F(1), F(0)), theta)
        # dominance without sat gain, below every threshold
        assert theta_prefers((F(1, 2), F(1, 2)), (F(0), F(0)), theta)

    def test_length_mismatch(self):
        with pytest.raises(SchemaError, match=r"different lengths \(1 vs 2\)"):
            theta_prefers((F(1),), (F(1),), (F(1), F(1)))


@pytest.mark.parametrize(
    "relation, args",
    [
        (dominates, ((0.5,), (0,))),
        (dominates, ((F(1),), (0.5,))),
        (strictly_dominates, ((0.5,), (0,))),
        (sat_set, ((F(1), F(1)), (F(0), 0.5))),
        (theta_prefers, ((F(1),), (F(0),), (0.5,))),
        (theta_prefers, ((F(1),), (1.0,), (F(0),))),
    ],
)
def test_float_components_raise(relation, args):
    with pytest.raises(ValuationError, match="float, not an exact rational"):
        relation(*args)


class TestThetaPreferenceReduction:
    """The reduced form in ``theta_prefers``, and the weak form's reduction
    to ``dominates``, against the raw definitions, on vectors over the
    acceptance suite's rational pool."""

    def test_matches_oracle_definitions(self):
        rng = random.Random(1103)
        sat_only = pareto = 0
        for dim in range(1, 9):
            for _ in range(2000):
                a = genlib.vector(rng, dim)
                if rng.random() < 0.5:
                    b = genlib.vector(rng, dim)
                else:  # weakly below a, so dominance is often exercised
                    b = tuple(x - rng.choice((F(0), F(1, 2), F(1))) for x in a)
                theta = genlib.vector(rng, dim)
                strict = oracle._theta_strict(a, b, theta)
                assert dominates(a, b) == oracle._theta_weak(a, b, theta)
                assert theta_prefers(a, b, theta) == strict
                if strict and not strictly_dominates(a, b):
                    sat_only += 1
                elif strict:
                    pareto += 1
        assert sat_only > 100 and pareto > 100  # both strict clauses exercised
