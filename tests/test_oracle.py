"""Sanity checks on the brute-force reference implementations.

The oracle's job is to be boring and obviously right; these tests pin the
few places where "obviously right" still deserves a regression net, most
importantly the raw-formula subtlety the engine's change guard exists for.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import capkit
import genlib
import oracle
from capkit.judgments.improvement import _side_improves
from capkit.model.frontier import maximal_set
from capkit.model.types import FunctioningVector

F = Fraction


def _fv(fv_id, *vals):
    return FunctioningVector(id=fv_id, values=tuple(F(x) for x in vals))


class TestRawImproves:
    def test_unchanged_set_with_internal_dominance_is_raw_true(self):
        # S = S' = {(0,0), (1,1)}: every element has a weak cover, and the
        # pair (1,1) ≻ (0,0) provides the strict witness -- the raw formula
        # calls a completely unchanged situation an improvement.  The engine
        # disagrees by design; this asymmetry is what the differential suite
        # pins down.
        s = [_fv("low", 0, 0), _fv("high", 1, 1)]
        w = lambda fv: fv.values
        assert oracle.raw_improves(s, s, w)
        side = genlib.side(s, genlib.tabulate(s))
        assert not _side_improves(side, side)
        assert _side_improves(side, side, require_change=False)

    def test_unchanged_antichain_is_raw_false(self):
        s = [_fv("a", 1, 0), _fv("b", 0, 1)]
        w = lambda fv: fv.values
        assert not oracle.raw_improves(s, s, w)

    def test_empty_before_is_raw_false(self):
        assert not oracle.raw_improves([], [_fv("a", 1)], lambda fv: fv.values)


class TestNaiveMaximalSet:
    def test_singleton(self):
        q = (_fv("only", 1),)
        assert oracle.naive_maximal_set(q, lambda fv: fv.values) == q

    def test_all_equal_images_keep_everything(self):
        q = (_fv("a", 0), _fv("b", 1), _fv("c", 2))
        w = lambda fv: (F(7),)
        assert oracle.naive_maximal_set(q, w) == q

    def test_agrees_with_engine_on_directed_cases(self):
        cases = [
            (),
            (_fv("a", 1, 1),),
            (_fv("a", 1, 0), _fv("b", 0, 1), _fv("c", 1, 1)),
            (_fv("dup1", 2, 2), _fv("dup0", 2, 2), _fv("low", 0, 0)),
        ]
        for q in cases:
            w = genlib.tabulate(q)
            assert oracle.naive_maximal_set(q, w) == maximal_set(q, w)


class TestEvalFormula:
    def test_unknown_formula_id(self):
        with pytest.raises(ValueError, match="unknown formula id"):
            oracle.eval_formula("nonsense", None, None)

    def test_formula_ids_are_stable(self):
        assert oracle.FORMULA_IDS == (
            "condition1",
            "condition2",
            "benefit_weak",
            "benefit_real_freedom",
            "benefit_life_plans",
            "assistance_real_freedom",
            "assistance_life_plans",
        )


class TestIndependence:
    PACKAGE = Path(capkit.__file__).parent
    ORACLE = Path(oracle.__file__)

    @staticmethod
    def _imported_modules(path: Path) -> set[str]:
        """Absolute names of the modules a source file imports."""
        if path.is_relative_to(TestIndependence.PACKAGE):
            parts = ["capkit", *path.relative_to(TestIndependence.PACKAGE).with_suffix("").parts]
        else:
            parts = [path.stem]  # a top-level module such as the oracle
        package = parts[:-1]
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = package[: len(package) - node.level + 1] if node.level else []
                module = ".".join(base + ([node.module] if node.module else []))
                names.add(module)
                # "from . import x" and "from capkit import x" may name modules
                names.update(f"{module}.{alias.name}" for alias in node.names)
        return names

    def test_oracle_imports_only_domain_types_and_errors(self):
        imported = {
            n for n in self._imported_modules(self.ORACLE)
            if n == "capkit" or n.startswith("capkit.")
        }
        allowed = {"capkit.model.types", "capkit.errors"}
        assert {n for n in imported if not any(n.startswith(a) for a in allowed)} == set()
        assert imported & allowed

    def test_oracle_is_not_shipped(self):
        assert not self.ORACLE.is_relative_to(self.PACKAGE)
        assert not (self.PACKAGE / "oracle.py").exists()

    def test_engine_never_imports_oracle(self):
        for path in sorted(self.PACKAGE.rglob("*.py")):
            imported = self._imported_modules(path)
            assert "capkit.oracle" not in imported, path
            assert not any(n == "oracle" or n.startswith("oracle.") for n in imported), path
