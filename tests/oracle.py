"""Independent brute-force reference implementations for the test suite.

Everything here is written as literal nested loops over the raw definitions,
sharing only the domain dataclasses with the engine.  The quantified
formulas are evaluated exactly as stated, WITHOUT the set-change guard the
engine adds, so the differential tests can pin down precisely where and why
the two disagree: the guard matters exactly when the before and after sets
are equal yet contain an internally dominated pair.

Nothing in this module is optimized, and nothing in the engine imports it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Sequence

from capkit.model.types import FunctioningVector, Scenario

# ---------------------------------------------------------------------------
# Raw comparisons (deliberately re-derived, not imported from capkit.model)
# ---------------------------------------------------------------------------


def _weak(a: Sequence[Fraction], b: Sequence[Fraction]) -> bool:
    for i in range(len(a)):
        if a[i] < b[i]:
            return False
    return True


def _strict(a: Sequence[Fraction], b: Sequence[Fraction]) -> bool:
    if not _weak(a, b):
        return False
    for i in range(len(a)):
        if a[i] != b[i]:
            return True
    return False


def _sat(x: Sequence[Fraction], theta: Sequence[Fraction]) -> set[int]:
    met = set()
    for i in range(len(x)):
        if x[i] >= theta[i]:
            met.add(i)
    return met


def _theta_weak(a, b, theta) -> bool:
    return _sat(a, theta) >= _sat(b, theta) and _weak(a, b)


def _theta_strict(a, b, theta) -> bool:
    if _sat(a, theta) > _sat(b, theta):
        return True
    return _sat(a, theta) >= _sat(b, theta) and _strict(a, b)


# ---------------------------------------------------------------------------
# Set construction by direct enumeration
# ---------------------------------------------------------------------------


def _image(s: Scenario, map_id: str, fv: FunctioningVector) -> tuple[Fraction, ...]:
    m = s.maps.get(map_id)
    if m is None and map_id == "u":
        m = s.maps["v"]
    if m.form == "table":
        return tuple(m.entries[fv.id])
    out = []
    for row in m.matrix:
        acc = Fraction(0)
        for j in range(len(row)):
            acc += row[j] * fv.values[j]
        out.append(acc)
    return tuple(out)


def freedom(s: Scenario) -> list[FunctioningVector]:
    """Q by direct loop: live utilization entries, deduplicated by value."""
    out: list[FunctioningVector] = []
    for entry in s.utilization:
        present = False
        for res in s.resources:
            if res.id == entry.resource_id:
                present = True
        if not present:
            continue
        ok = True
        for g in entry.guards:
            ctx = s.characteristics if g.context == "characteristics" else s.social
            if ctx[g.component] < g.min:
                ok = False
        if not ok:
            continue
        fv = s.functioning(entry.output)
        clash = None
        for other in out:
            if other.values == fv.values:
                clash = other
        if clash is None:
            out.append(fv)
        elif fv.id < clash.id:
            out.remove(clash)
            out.append(fv)
    return out


def real_freedom(s: Scenario) -> list[FunctioningVector]:
    out = []
    for fv in freedom(s):
        if _weak(_image(s, "r", fv), s.theta.values):
            out.append(fv)
    return out


def naive_maximal_set(
    q: Iterable[FunctioningVector], w
) -> tuple[FunctioningVector, ...]:
    """Quadratic maximality scan: keep b unless some b' strictly w-dominates it.

    ``w`` is a ValuationMap or any callable from functioning vector to image.
    """
    apply = w.apply if hasattr(w, "apply") else w
    pool: list[FunctioningVector] = []
    for fv in q:
        clash = None
        for other in pool:
            if other.values == fv.values:
                clash = other
        if clash is None:
            pool.append(fv)
        elif fv.id < clash.id:
            pool.remove(clash)
            pool.append(fv)
    images = [tuple(apply(fv)) for fv in pool]
    keep = []
    for fv, img in zip(pool, images):
        dominated = False
        for other in images:
            if _strict(other, img):
                dominated = True
                break
        if not dominated:
            keep.append(fv)
    return tuple(sorted(keep, key=lambda fv: fv.id))


# ---------------------------------------------------------------------------
# Raw quantified formulas
# ---------------------------------------------------------------------------

FORMULA_IDS = (
    "condition1",
    "condition2",
    "benefit_weak",
    "benefit_real_freedom",
    "benefit_life_plans",
    "assistance_real_freedom",
    "assistance_life_plans",
)


def raw_improves(
    s_list: Sequence[FunctioningVector],
    s_prime: Sequence[FunctioningVector],
    image: Callable[[FunctioningVector], Sequence[Fraction]],
    weak: Callable = _weak,
    strict: Callable = _strict,
) -> bool:
    """The bare two-clause improvement formula, with NO change requirement.

    ∀b∈S ∃b'∈S' (w(b') ⪰ w(b))  ∧  ∃b∈S ∃b'∈S' (w(b') ≻ w(b))

    Note the subtlety the engine's guard exists to remove: when S' == S and
    S contains two elements one of which strictly dominates the other, both
    clauses hold even though nothing changed.
    """
    return _raw_pairwise(s_list, s_prime, image, image, weak, strict)


def _raw_pairwise(s_list, s_prime, img_before, img_after, weak, strict) -> bool:
    for b in s_list:
        found = False
        for bp in s_prime:
            if weak(img_after(bp), img_before(b)):
                found = True
        if not found:
            return False
    witness = False
    for b in s_list:
        for bp in s_prime:
            if strict(img_after(bp), img_before(b)):
                witness = True
    return witness


def eval_formula(formula_id: str, before: Scenario, after: Scenario) -> bool:
    """Evaluate one quantified judgment formula by exhaustive loops.

    All formulas are the raw quantifier bodies; none applies the engine's
    set-change guard.
    """
    if formula_id == "condition1":
        # Only binding when initial real freedom is nonempty.
        if len(real_freedom(before)) == 0:
            return True
        return len(real_freedom(after)) > 0

    if formula_id == "condition2":
        v_before = lambda fv: _image(before, "v", fv)
        v_after = lambda fv: _image(after, "v", fv)
        q_after = freedom(after)
        for b in naive_maximal_set(freedom(before), v_before):
            found = False
            for bp in q_after:
                if _weak(v_after(bp), v_before(b)):
                    found = True
            if not found:
                return False
        return True

    if formula_id == "benefit_weak":
        return _benefit(before, after, "u", freedom)

    if formula_id == "benefit_real_freedom":
        return _benefit(before, after, "r", real_freedom)

    if formula_id == "benefit_life_plans":
        v_before = lambda fv: _image(before, "v", fv)
        v_after = lambda fv: _image(after, "v", fv)
        m_before = naive_maximal_set(freedom(before), v_before)
        m_after = naive_maximal_set(freedom(after), v_after)
        return _raw_pairwise(m_before, m_after, v_before, v_after, _weak, _strict)

    if formula_id == "assistance_real_freedom":
        r_before = lambda fv: _image(before, "r", fv)
        r_after = lambda fv: _image(after, "r", fv)
        theta = before.theta.values
        return _raw_pairwise(
            real_freedom(before),
            real_freedom(after),
            r_before,
            r_after,
            lambda a, b: _theta_weak(a, b, theta),
            lambda a, b: _theta_strict(a, b, theta),
        )

    if formula_id == "assistance_life_plans":
        v_before = lambda fv: _image(before, "v", fv)
        v_after = lambda fv: _image(after, "v", fv)
        if before.theta_p is not None:
            tp = before.theta_p.values
            weak = lambda a, b: _theta_weak(a, b, tp)
            strict = lambda a, b: _theta_strict(a, b, tp)
        else:
            weak, strict = _weak, _strict
        m_before = naive_maximal_set(freedom(before), v_before)
        return _raw_pairwise(m_before, freedom(after), v_before, v_after, weak, strict)

    raise ValueError(f"unknown formula id {formula_id!r}")


def _benefit(before: Scenario, after: Scenario, map_id: str, set_fn) -> bool:
    img_before = lambda fv: _image(before, map_id, fv)
    img_after = lambda fv: _image(after, map_id, fv)
    return _raw_pairwise(
        set_fn(before), set_fn(after), img_before, img_after, _weak, _strict
    )
