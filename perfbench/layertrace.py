"""Per-layer tracing of toricstrata from outside the package.

:class:`Tracer` wraps each listed public function at every name it is bound
to inside ``toricstrata``'s modules (``from .linalg import x`` makes a
separate binding in the importing module, and each one is patched), records
one span per call (name, start, end, parent) in memory, and counts the
outcomes that make the useful-work ratios.  :func:`summarize` turns the
spans into calls, busy time and self time per function.
"""

from __future__ import annotations

import sys
import time
from array import array

LAYERS = {
    "cones": ("split_degenerate", "build_cone", "facet_normals", "face_lattice"),
    "linalg": (
        "smith_normal_form",
        "hermite_normal_form",
        "solve_integer_system",
        "rational_feasible",
        "first_lattice_point",
        "lattice_points_bounded",
    ),
    "abelian": ("group_from_cokernel", "subgroup_canon", "quotient_group", "semigroup_member"),
    "divisors": ("build_toric", "face_orbit_data", "verify_semigroup_equals_group"),
    "luna": ("face_support_bridge", "luna_strata", "is_closed_support"),
    "roots": ("connection_graph", "connection_exists", "enumerate_roots", "demazure_root"),
    "engine": ("stratify", "closure_edges"),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# Ratio name -> (traced function, predicate on its return value).
OUTCOME_RATIOS = {
    "linalg.first_lattice_point.hit_ratio": (
        "linalg.first_lattice_point", lambda r: r is not None,
    ),
    "abelian.semigroup_member.yes_ratio": (
        "abelian.semigroup_member", lambda r: r.status == "yes",
    ),
    "divisors.verify_semigroup_equals_group.verified_ratio": (
        "divisors.verify_semigroup_equals_group", lambda r: r.verified,
    ),
    "roots.connection_exists.inconclusive_ratio": (
        "roots.connection_exists", lambda r: r.status == "inconclusive",
    ),
}
CACHE_RATIO = "cones.face_lattice.cache_hit_ratio"


def package_modules(package: str = "toricstrata") -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]


def clear_caches(package: str = "toricstrata") -> None:
    """Empty every ``functools`` cache bound in the package's modules."""
    for module in package_modules(package):
        for value in list(vars(module).values()):
            while value is not None and not hasattr(value, "cache_clear"):
                value = getattr(value, "__wrapped__", None)
            if value is not None and callable(value):
                value.cache_clear()


class Tracer:
    def __init__(self, package: str = "toricstrata"):
        self.package = package
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.hits = {name: 0 for name in OUTCOME_RATIOS}
        self._patched: list[tuple[object, str, object]] = []
        self._cache_before = (0, 0)
        self.cache_hits = (0, 0)

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = package_modules(self.package)
        self._lattice = getattr(sys.modules[f"{self.package}.cones"], "face_lattice")
        info = self._lattice.cache_info()
        self._cache_before = (info.hits, info.misses)
        for qualified in FUNCTIONS:
            mod, fn = qualified.split(".")
            original = getattr(sys.modules[f"{self.package}.{mod}"], fn)
            wrapper = self._wrap(qualified, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.cache_hits = self._cache_delta()
        self.remove()

    def _cache_delta(self) -> tuple[int, int]:
        info = self._lattice.cache_info()
        return info.hits - self._cache_before[0], info.misses - self._cache_before[1]

    def _wrap(self, qualified: str, fn):
        name_id = len(self.names)
        self.names.append(qualified)
        counters = [
            (ratio, test) for ratio, (target, test) in OUTCOME_RATIOS.items()
            if target == qualified
        ]
        stack, hits = self._stack, self.hits
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            for ratio, test in counters:
                if test(result):
                    hits[ratio] += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualified)
        return traced

    # -- results ----------------------------------------------------------

    def spans(self) -> list[tuple[str, float, float, int]]:
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(self.name_ids, self.starts, self.ends, self.parents)
        ]

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Calls, busy and self time per function, plus the outcome ratios."""
        stats = summarize(self.spans())
        out: dict[str, tuple[float, str]] = {}
        for name in FUNCTIONS:
            calls, busy, own = stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.busy_s"] = (busy, "s")
            out[f"{name}.self_s"] = (own, "s")
        for ratio, (target, _) in OUTCOME_RATIOS.items():
            calls = stats.get(target, (0, 0.0, 0.0))[0]
            out[ratio] = (self.hits[ratio] / calls if calls else 0.0, "ratio")
        hits, misses = self.cache_hits
        out[CACHE_RATIO] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
        return out


def summarize(spans) -> dict[str, tuple[int, float, float]]:
    """``{name: (calls, busy_s, self_s)}`` from spans in start order.

    A span is ``(name, start, end, parent_index)``.  Self time is a span's
    duration minus the durations of its direct children (calls nest, so the
    children are disjoint and inside the parent).  Busy time is the union of
    a function's spans: a span nested in an earlier span of the same
    function adds nothing.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, list] = {}
    covered_until: dict[str, float] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        entry = stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[2] += (end - start) - child_time[index]
        if start >= covered_until.get(name, float("-inf")):
            entry[1] += end - start
            covered_until[name] = end
    return {name: (c, b, s) for name, (c, b, s) in stats.items()}
