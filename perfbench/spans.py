"""Per-layer tracing for the benchmark's traced runs.

Tracer.install() replaces facering's public functions by timing wrappers,
at every place each one is bound: a name imported with `from .linalg import
rank` is a separate binding in each importing module, so every facering
module namespace is searched for the original object.  Methods are wrapped
on their class.  A wrapper records calls, self time (its span minus the
spans of wrapped calls made inside it) and, for some names, a size.

A name that a later version of facering no longer has is skipped, so its
metrics read zero; the traced run itself keeps working.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

SUITE_CHECKS = {
    "link-iso": "check_link_iso",
    "hochster-counts": "check_hochster_counts",
    "theorem-main": "check_theorem_main",
    "singdim-chain": "check_singdim_chain",
    "lemma-equality": "check_lemma_equality",
    "kernel-identification": "check_kernel_identification",
    "artinian-vs-sqfree": "check_artinian_vs_sqfree",
    "tsqfree-vs-isomorphism": "check_tsqfree",
    "cm-anchor": "check_cm_anchor",
}

# lru caches whose hits and misses are reported, by metric prefix
CACHES = {
    "cohomology.relative_cohomology": ("facering.cohomology", "_relative_cohomology"),
    "cohomology.coboundary_matrix": ("facering.cohomology", "coboundary_matrix"),
    "cohomology.induced_map": ("facering.cohomology", "_induced_map"),
}

# statistics combined across operations by maximum instead of by sum
MAX_STATS = ("linalg.q.max_entry_bits", "cohomology.cache_entries")


def _field_tag(matrix) -> str:
    return "q" if matrix.field.p is None else "fp"


def _cells(matrix) -> int:
    return matrix.nrows * matrix.ncols


class Tracer:
    def __init__(self):
        self.stats: dict[str, float] = defaultdict(float)
        self._stack = [0.0]
        self._caches: dict[str, object] = {}
        self._cache_start: dict[str, tuple] = {}
        self._cohomology_caches: list = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, key, size=None):
        """Wrap fn; key is a metric prefix or a function of the call's arguments."""
        stats, stack = self.stats, self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                name = key(args) if callable(key) else key
                stats[name + ".calls"] += 1
                stats[name + ".self_s"] += dt - child
                stats[name + ".total_s"] += dt
            if size is not None:
                size(name, args, result)
            return result

        for attr in ("cache_info", "cache_clear"):  # clear_caches() calls these
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _delta(self, fn, target, sources):
        """Wrap fn to add to `target` the growth of the `sources` stats during the call."""
        stats = self.stats

        def wrapper(*args, **kwargs):
            before = sum(stats[s] for s in sources)
            try:
                return fn(*args, **kwargs)
            finally:
                stats[target] += sum(stats[s] for s in sources) - before

        return wrapper

    def _bits(self, fn):
        """Wrap the Q elimination core to record the largest input bit length.

        The scan is charged to no span: it counts as child time of the caller.
        """
        stats, stack = self.stats, self._stack

        def wrapper(rows, *args, **kwargs):
            t0 = time.perf_counter()
            bits = max((abs(x).bit_length() for r in rows for x in r), default=0)
            if bits > stats["linalg.q.max_entry_bits"]:
                stats["linalg.q.max_entry_bits"] = bits
            stack[-1] += time.perf_counter() - t0
            return fn(rows, *args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "facering" or n.startswith("facering."))]

    def _rebind(self, old, new):
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)

    def _function(self, module, attr, make):
        mod = sys.modules.get(module)
        fn = getattr(mod, attr, None) if mod is not None else None
        if fn is not None:
            self._rebind(fn, make(fn))

    def _method(self, module, cls, attr, make):
        klass = getattr(sys.modules.get(module), cls, None)
        if klass is not None and attr in vars(klass):
            setattr(klass, attr, make(vars(klass)[attr]))

    def _whole_module(self, module, key):
        """Wrap every module-level function defined in a module under one key."""
        mod = sys.modules.get(module)
        if mod is None:
            return
        for value in list(vars(mod).values()):
            if getattr(value, "__module__", None) == module and hasattr(value, "__code__"):
                self._rebind(value, self._span(value, key))

    def install(self):
        import facering  # noqa: F401  (loads every submodule through the package)
        import facering.cli  # noqa: F401

        stats = self.stats
        coh = sys.modules.get("facering.cohomology")
        if coh is not None:
            self._cohomology_caches = [v for v in vars(coh).values() if hasattr(v, "cache_info")]

        def add_cells(name, args, result):
            stats[name + ".cells"] += _cells(args[0])

        def out_cells(name, args, result):
            stats[name + ".cells"] += _cells(result)

        def monomials(name, args, result):
            stats[name + ".monomials"] += len(result)

        by_field = {
            "kernel_basis": lambda a: "linalg.kernel_basis." + _field_tag(a[0]),
            "rank": lambda a: "linalg.rank." + _field_tag(a[0]),
        }
        for attr, key in by_field.items():
            self._function("facering.linalg", attr, lambda f, k=key: self._span(f, k, add_cells))
        for attr in ("image_basis", "subspace_intersection"):
            self._function("facering.linalg", attr, lambda f, a=attr: self._span(f, "linalg." + a))
        self._function("facering.linalg", "_q_echelon", self._bits)
        self._method("facering.linalg", "Matrix", "__init__",
                     lambda f: self._span(f, "linalg.matrix_init", add_cells))
        self._method("facering.linalg", "Solver", "__init__",
                     lambda f: self._span(f, "linalg.solver.build"))
        self._method("facering.linalg", "Solver", "solve",
                     lambda f: self._span(f, "linalg.solver.solve"))

        for attr in ("faces", "faces_of_dim", "link"):
            self._method("facering.complexes", "SimplicialComplex", attr,
                         lambda f, a=attr: self._span(f, "complexes." + a))
        self._function("facering.complexes", "degree_monomials",
                       lambda f: self._span(f, "complexes.degree_monomials", monomials))

        rank_cells = ("linalg.rank.q.cells", "linalg.rank.fp.cells")
        rank_calls = ("linalg.rank.q.calls", "linalg.rank.fp.calls")
        self._function("facering.artinian", "reduction_hilbert", lambda f: self._delta(
            self._span(f, "artinian.reduction_hilbert"), "artinian.reduction_hilbert.cells",
            rank_cells))

        for prefix, (module, attr) in CACHES.items():
            fn = getattr(sys.modules.get(module), attr, None)
            if fn is not None and hasattr(fn, "cache_info"):
                self._caches[prefix] = fn
            self._function(module, attr, lambda f, p=prefix: self._span(f, p))

        self._function("facering.singularity", "is_singular_face",
                       lambda f: self._span(f, "singularity.is_singular_face"))

        lc = "facering.local_cohomology"
        self._function(lc, "theta_action_matrix",
                       lambda f: self._span(f, "local_cohomology.theta_action_matrix", out_cells))
        for attr in ("kernel_intersection_basis", "graded_piece", "lc_hilbert_series",
                     "make_generic"):
            self._function(lc, attr, lambda f, a=attr: self._span(f, "local_cohomology." + a))
        self._function(lc, "all_minors_nonsingular", lambda f: self._delta(
            f, "local_cohomology.minor_rank_calls", rank_calls))

        self._whole_module("facering.quotient", "quotient")
        self._whole_module("facering.squarefree", "squarefree")
        for check, attr in SUITE_CHECKS.items():
            self._function("facering.verification", attr,
                           lambda f, c=check: self._span(f, "verification." + c))
        self._function("facering.cli", "_emit", lambda f: self._span(f, "cli.emit"))

    # -- per-operation statistics -------------------------------------------

    def begin_op(self):
        self.stats.clear()
        self._stack[:] = [0.0]
        self._cache_start = {p: c.cache_info() for p, c in self._caches.items()}

    def end_op(self) -> dict:
        out = dict(self.stats)
        for prefix, cache in self._caches.items():
            now, start = cache.cache_info(), self._cache_start[prefix]
            out[prefix + ".hits"] = now.hits - start.hits
            out[prefix + ".misses"] = now.misses - start.misses
        out["cohomology.cache_entries"] = sum(
            c.cache_info().currsize for c in self._cohomology_caches)
        return out
