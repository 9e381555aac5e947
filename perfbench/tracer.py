"""Per-layer tracing of capkit from outside the package.

The tracer wraps public functions of capkit's modules at run time; capkit
itself carries no instrumentation.  Two kinds of wrapper:

* span     -- records (name, start, end, parent) for every call.  Spans are
              kept in memory and aggregated when the run ends; a span's self
              time is its duration minus its direct children's durations.
* count    -- counts calls only.  Used for functions so small and so
              frequently called (dominance tests, map images) that a timed
              wrapper would distort their time.

``from .x import f`` copies the binding into the importing module, so every
capkit module's namespace is searched and each binding of a wrapped function
is replaced.  A target that no longer exists is reported as absent.

Distinct-input ratios (distinct inputs / calls) are computed from content
fingerprints.  Fingerprinting runs on a paused clock, so it does not inflate
any span; it does count toward the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from time import perf_counter

SPAN, COUNT = "span", "count"
_INHERITED = object()

# (module, qualified name, kind).  The layer name is the module path without
# the package prefix, then the qualified name.
TARGETS = (
    ("capkit.scenario_io", "parse_document", SPAN),
    ("capkit.scenario_io", "deep_validate", SPAN),
    ("capkit.model.freedom", "compute_freedom", SPAN),
    ("capkit.model.freedom", "compute_real_freedom", SPAN),
    ("capkit.model.freedom", "access_profile", SPAN),
    ("capkit.model.frontier", "maximal_set", SPAN),
    ("capkit.model.types", "dedupe_by_value", SPAN),
    ("capkit.model.types", "ValuationMap.apply", COUNT),
    ("capkit.model.order", "dominates", COUNT),
    ("capkit.model.order", "strictly_dominates", COUNT),
    ("capkit.model.order", "theta_prefers", COUNT),
    ("capkit.judgments.records", "apply_interaction", SPAN),
    ("capkit.judgments.records", "materialize_trace", SPAN),
    ("capkit.judgments.improvement", "condition1", SPAN),
    ("capkit.judgments.improvement", "condition2", SPAN),
    ("capkit.judgments.improvement", "classify_beneficence", SPAN),
    ("capkit.judgments.improvement", "assistance_real_freedom", SPAN),
    ("capkit.judgments.improvement", "assistance_life_plans", SPAN),
    ("capkit.judgments.failures", "detect_coercion", SPAN),
    ("capkit.judgments.failures", "detect_deception", SPAN),
    ("capkit.judgments.failures", "detect_exploitation", SPAN),
    ("capkit.judgments.failures", "paternalism_check", SPAN),
    ("capkit.judgments.failures", "detect_domination", SPAN),
    ("capkit.judgments.verdict", "judge", SPAN),
    ("capkit.report", "emit_structured", SPAN),
    ("capkit.report", "emit_human", SPAN),
)


def layer_name(module: str, qualname: str) -> str:
    return module.split(".", 1)[1] + "." + qualname


def _load_package(package: str = "capkit") -> list:
    """Import every module of the package, except its ``__main__``.

    Importing ``capkit.__main__`` would run the CLI on this process's argv.
    """
    root = importlib.import_module(package)
    modules = [root]
    for info in pkgutil.walk_packages(root.__path__, package + ".",
                                      onerror=lambda name: None):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        try:
            modules.append(importlib.import_module(info.name))
        except ImportError:
            continue
    return modules


class Tracer:
    """Wraps capkit's functions, records spans and counts, then restores them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, input bytes]
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._paused = 0.0
        self._restore: list[tuple] = []
        self._keys: dict[str, set] = {}
        self._distinct: dict[str, int] = {}
        self._held: dict[int, tuple] = {}  # id -> (object, fingerprint)

    # -- clock and fingerprints ---------------------------------------------

    def clock(self) -> float:
        return perf_counter() - self._paused

    def _fingerprint(self, obj) -> int:
        """Content hash of an object, computed once per object and held."""
        hit = self._held.get(id(obj))
        if hit is not None and hit[0] is obj:
            return hit[1]
        try:
            fp = hash(obj)
        except TypeError:
            fp = id(obj)
        self._held[id(obj)] = (obj, fp)
        return fp

    def _scenario_key(self, s, *args, **kwargs):
        return hash((
            self._fingerprint(s.functionings),
            self._fingerprint(s.utilization),
            self._fingerprint(s.resources),
            tuple(sorted(s.characteristics.items())),
            tuple(sorted(s.social.items())),
        ))

    def _set_key(self, q, w, *args, **kwargs):
        self._fingerprint(w)  # holds w, so its id stays unique within the operation
        return hash((id(w), tuple(fv.id for fv in q)))

    KEYS = {
        "model.freedom.compute_freedom": "_scenario_key",
        "model.frontier.maximal_set": "_set_key",
    }

    def end_op(self) -> None:
        """Close one operation: inputs repeated across operations are not waste."""
        for name, keys in self._keys.items():
            self._distinct[name] = self._distinct.get(name, 0) + len(keys)
            keys.clear()
        self._held.clear()

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        stack, spans = self._stack, self.spans
        key_fn = getattr(self, self.KEYS[name]) if name in self.KEYS else None
        keys = self._keys.setdefault(name, set())
        measures_bytes = name == "scenario_io.parse_document"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key_fn is not None:
                t0 = perf_counter()
                try:
                    keys.add(key_fn(*args, **kwargs))
                except (AttributeError, TypeError):
                    keys.add(("unkeyed", len(keys)))
                self._paused += perf_counter() - t0
            size = 0
            if measures_bytes:
                text = args[0] if args else kwargs.get("text", "")
                size = len(text) if isinstance(text, (str, bytes)) else 0
            index = len(spans)
            spans.append([name, self.clock(), None, stack[-1] if stack else -1, size])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = self.clock()

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        modules = _load_package()
        for module_name, qualname, kind in TARGETS:
            name = layer_name(module_name, qualname)
            module = sys.modules.get(module_name)
            owner, attr = module, qualname
            if "." in qualname:
                cls_name, attr = qualname.split(".", 1)
                owner = getattr(module, cls_name, None) if module else None
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = (self._span if kind == SPAN else self._count)(name, original)
            if owner is not module:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        # An inherited method has no entry of its own; restoring deletes ours.
        self._restore.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def layers(self) -> dict:
        """Aggregate spans and counts into per-layer figures.

        For each span name: calls, total_s (outermost calls only, so a
        recursive call is not counted twice), self_s, and where a key
        function exists, distinct_ratio (inputs distinct within their
        operation, over calls); for parse_document also mb_per_s.
        For each counted name: calls.
        """
        out: dict[str, dict] = {}
        for module_name, qualname, kind in TARGETS:
            name = layer_name(module_name, qualname)
            out[name] = {"calls": 0}
            if kind == SPAN:
                out[name].update(total_s=0.0, self_s=0.0)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        input_bytes = 0
        for index, (name, start, end, parent, size) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[index]
            input_bytes += size
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                row["total_s"] += end - start
        for name, calls in self.counts.items():
            out[name]["calls"] = calls
        for name in self.KEYS:
            calls = out[name]["calls"]
            out[name]["distinct_ratio"] = self._distinct.get(name, 0) / calls if calls else 0.0
        parse = out["scenario_io.parse_document"]
        parse["mb_per_s"] = input_bytes / 1e6 / parse["total_s"] if parse["total_s"] else 0.0
        return out
