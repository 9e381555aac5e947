"""Maximal-set computation, checked against the quadratic reference."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capkit.errors import SchemaError, ValuationError
from capkit.model.frontier import integer_images, maximal_set, skyline
from capkit.model.order import dominates, strictly_dominates, theta_prefers
from capkit.model.types import FunctioningVector, ValuationMap, dedupe_by_value
from oracle import naive_maximal_set

F = Fraction

small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


def _vec(fv_id: str, *vals) -> FunctioningVector:
    return FunctioningVector(id=fv_id, values=tuple(F(x) for x in vals))


@st.composite
def frontier_cases(draw):
    """A vector set plus a value-consistent image function."""
    n_b = draw(st.integers(min_value=1, max_value=3))
    n_out = draw(st.integers(min_value=1, max_value=4))
    count = draw(st.integers(min_value=0, max_value=12))
    vectors = tuple(
        FunctioningVector(
            id=f"b{i:02d}", values=draw(st.tuples(*([small] * n_b)))
        )
        for i in range(count)
    )
    images = {}
    for fv in vectors:
        if fv.values not in images:
            images[fv.values] = draw(st.tuples(*([small] * n_out)))
    return vectors, (lambda fv: images[fv.values])


class TestAgainstReference:
    @given(frontier_cases())
    def test_matches_naive_scan(self, case):
        q, w = case
        assert maximal_set(q, w) == naive_maximal_set(q, w)

    @given(frontier_cases())
    def test_antichain(self, case):
        q, w = case
        result = maximal_set(q, w)
        for a in result:
            for b in result:
                assert not strictly_dominates(tuple(w(a)), tuple(w(b)))

    @given(frontier_cases())
    def test_idempotent(self, case):
        q, w = case
        result = maximal_set(q, w)
        assert maximal_set(result, w) == result

    @given(frontier_cases())
    def test_excluded_elements_are_dominated(self, case):
        q, w = case
        result = maximal_set(q, w)
        kept = {fv.id for fv in result}
        for fv in dedupe_by_value(q).values():
            if fv.id not in kept:
                assert any(
                    strictly_dominates(tuple(w(m)), tuple(w(fv))) for m in result
                )

    @given(frontier_cases())
    def test_nonempty_on_nonempty_input(self, case):
        q, w = case
        if q:
            assert maximal_set(q, w)


class TestEdgeCases:
    def test_empty(self):
        v = ValuationMap(map_id="v", form="table", entries={})
        assert maximal_set((), v) == ()

    def test_singleton(self):
        q = (_vec("only", 1, 2),)
        assert maximal_set(q, lambda fv: fv.values) == q

    def test_all_equal_images_all_kept(self):
        # Distinct vectors mapping to the same image are incomparable under
        # strict dominance, so all of them are maximal.
        q = (_vec("a", 0, 1), _vec("b", 1, 0), _vec("c", 2, 2))
        w = lambda fv: (F(1),)
        assert maximal_set(q, w) == q

    def test_duplicate_values_keep_smallest_id(self):
        q = (_vec("b09", 1, 1), _vec("b01", 1, 1), _vec("b05", 0, 0))
        result = maximal_set(q, lambda fv: fv.values)
        assert [fv.id for fv in result] == ["b01"]

    def test_result_sorted_by_id(self):
        q = (_vec("z", 2, 0), _vec("a", 0, 2), _vec("m", 1, 1))
        result = maximal_set(q, lambda fv: fv.values)
        assert [fv.id for fv in result] == ["a", "m", "z"]

    def test_incomparable_chain_example(self):
        # Images (2,2), (1,3), (0,1), (3,2): the frontier is {(1,3), (3,2)};
        # (2,2) loses to (3,2) and (0,1) loses to everything.
        images = {
            "home": (F(2), F(2)),
            "simple": (F(1), F(3)),
            "takeout": (F(0), F(1)),
            "hosted": (F(3), F(2)),
        }
        q = tuple(_vec(fv_id, i, 0) for i, fv_id in enumerate(sorted(images)))
        w = lambda fv: images[fv.id]
        assert [fv.id for fv in maximal_set(q, w)] == ["hosted", "simple"]

    def test_accepts_valuation_map(self):
        entries = {"a": (F(1),), "b": (F(2),)}
        v = ValuationMap(map_id="v", form="table", entries=entries)
        q = (_vec("a", 0), _vec("b", 1))
        assert [fv.id for fv in maximal_set(q, v)] == ["b"]

    def test_equal_sum_incomparable_pair(self):
        # Equal component sums exercise the tie-handling of the sorted scan.
        q = (_vec("a", 0, 2), _vec("b", 2, 0))
        result = maximal_set(q, lambda fv: fv.values)
        assert [fv.id for fv in result] == ["a", "b"]


class TestImageChecks:
    def test_ragged_images_raise(self):
        # Lengths 2 and 1: a plain zip over the column scales would truncate.
        images = {"a": (F(1), F(1)), "b": (F(2),)}
        q = (_vec("a", 0), _vec("b", 1))
        with pytest.raises(SchemaError, match="different lengths"):
            maximal_set(q, lambda fv: images[fv.id])
        with pytest.raises(SchemaError, match=r"different lengths \(1 vs 2\)"):
            integer_images([(F(1), F(1)), (F(2),)])

    @pytest.mark.parametrize("bad", [0.5, 1.0, "1/2", None])
    def test_non_rational_component_raises_valuation_error(self, bad):
        q = (_vec("a", 0), _vec("b", 1))
        with pytest.raises(ValuationError, match="not an exact rational"):
            maximal_set(q, lambda fv: (F(1), bad if fv.id == "b" else F(0)))

    def test_non_rational_singleton_raises(self):
        # No pair is ever compared, and the component is still rejected.
        with pytest.raises(ValuationError, match="float"):
            maximal_set((_vec("a", 0),), lambda fv: (0.5,))

    def test_ints_and_fractions_share_a_scale(self):
        assert integer_images([(F(1, 2), 3)], [(F(-1, 3), F(2, 3))]) == (
            [[(3, 9)], [(-2, 2)]],
            (6, 3),
        )

    def test_no_images(self):
        assert integer_images([], []) == ([[], []], ())


# A small pool with mixed denominators makes equal numerators over unequal
# denominators (and equal values) common; the wide range covers the rest.
rationals = st.one_of(
    st.sampled_from(sorted({F(p, q) for q in (1, 2, 3, 4) for p in range(-4, 5)})),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
)


@st.composite
def scaled_cases(draw):
    """Two vectors and a threshold of one length, with mixed denominators."""
    width = draw(st.integers(min_value=1, max_value=4))
    vec = st.tuples(*([rationals] * width))
    a = draw(vec)
    # Near-copies of a make equality, weak dominance and equal numerators
    # over unequal denominators common.
    denominators = st.tuples(*([st.integers(min_value=1, max_value=4)] * width))
    b = draw(
        st.one_of(
            vec,
            st.just(a),
            vec.map(lambda v: tuple(max(x, y) for x, y in zip(a, v))),
            denominators.map(lambda ds: tuple(F(x.numerator, d) for x, d in zip(a, ds))),
        )
    )
    return a, b, draw(vec)


class TestIntegerScaleIsExact:
    """On the integer scale, each relation gives its answer on the Fractions."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(scaled_cases())
    def test_relations_agree(self, case):
        a, b, theta = case
        ((ia, ib, itheta),), _ = integer_images([a, b, theta])
        assert all(type(x) is int for x in ia + ib + itheta)
        assert dominates(ia, ib) == dominates(a, b)
        assert strictly_dominates(ia, ib) == strictly_dominates(a, b)
        assert theta_prefers(ia, ib, itheta) == theta_prefers(a, b, theta)
        assert (ia == ib) == (a == b)
        # The scan's sort order: a strict dominator has the larger scaled
        # sum, and equal images have equal sums.
        if strictly_dominates(a, b):
            assert sum(ia) > sum(ib)
        if a == b:
            assert sum(ia) == sum(ib)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(scaled_cases())
    def test_value_key_equality_is_value_equality(self, case):
        a, b, _ = case
        key_a = FunctioningVector("a", a).value_key
        key_b = FunctioningVector("b", b).value_key
        assert (key_a == key_b) == (a == b)
        assert all(type(n) is int for n in key_a)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.lists(st.tuples(rationals, rationals), max_size=10))
    def test_maximal_indices_match_a_fraction_scan(self, images):
        expected = [
            i for i, img in enumerate(images)
            if not any(strictly_dominates(other, img) for other in images)
        ]
        assert skyline(integer_images(images)[0][0]) == expected
