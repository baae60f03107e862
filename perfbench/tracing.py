"""Entry-point tracing installed from outside the package.

`Tracer.install()` replaces the public functions of each beattysieve module
(and a few class entry points) with wrappers that record a span per call:
(layer, function, start, end, parent).  Layers are the module names.
Functions that run once per element (membership tests, per-n chain terms,
Buchstab's omega at a quadrature node, ...) are left unwrapped so the
wrappers cost little; their time lands in the enclosing span, which belongs
to the same layer.  `torus_member` gets a counting wrapper without a span,
because its call count is a named counter; the benchmark puts one span
around its own loop of those calls instead.

Spans stay in memory; `report()` derives per-layer self time (span time
minus the time its child spans cover) and the counters, and `spans` can be
written out when the run ends.  Counters are read from return values and
public state only.  Wrappers record nothing while `active` is False, so
result checks made after the timed jobs leave the trace untouched.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time

from oracle import phi

LAYERS = ("arith", "beatty", "dioph", "tuples", "variational", "maynard",
          "buchstab", "chars", "equidist", "cli")

# per-element functions: not wrapped, their time stays with the caller's span
PER_ELEMENT = {
    "beatty": {"membership_interval", "recovered_index", "sqrt_fraction"},
    "buchstab": {"classify", "decomposition_terms", "good_prime_pair",
                 "omega", "pair_in_d", "rho", "triangle_contains"},
    "chars": {"gauss_sum"},
    "maynard": {"lcm_identity_check"},
    "variational": {"is_symmetric", "simplex_monomial_integral"},
}
COUNT_ONLY = {("beatty", "torus_member"): "beatty.member_queries"}
CLASS_ENTRY_POINTS = {"arith": {"FactorTable": ("__init__", "primes")}}

# correctly rounded region integrals (34-digit reference quadrature)
REGION_REFERENCE = {"I1": 0.03925881226602389, "I2": 0.05662802604805152}

COUNTERS = ("arith.table_entries", "beatty.members_out", "beatty.member_queries",
            "tuples.translate_calls", "tuples.translate_complete",
            "variational.basis_built", "variational.terms",
            "variational.basis_offered", "variational.basis_kept",
            "maynard.support_size", "maynard.lambda_total",
            "maynard.lambda_nonzero", "buchstab.n_checked",
            "buchstab.budget_misses", "chars.characters",
            "equidist.points", "equidist.progressions",
            "cli.bytes_out", "cli.exit_nonzero")

COUNTER_UNITS = {
    "arith.table_entries": "count", "arith.table_bytes": "B_computed",
    "beatty.members_out": "count", "beatty.member_queries": "count",
    "tuples.complete_ratio": "ratio", "variational.basis_built": "count",
    "variational.terms": "count", "variational.basis_kept_ratio": "ratio",
    "maynard.support_size": "count", "maynard.nonzero_lambda_ratio": "ratio",
    "buchstab.n_checked": "count", "buchstab.budget_misses": "count",
    "chars.characters": "count", "chars.table_hit_ratio": "ratio",
    "equidist.points": "count", "equidist.progressions": "count",
    "cli.bytes_out": "B", "cli.exit_nonzero": "count",
}


class Tracer:
    def __init__(self):
        self.active = False
        self.installed = False
        self._char_table = None
        self.reset()

    def reset(self):
        """Drop the spans and counts recorded so far."""
        self.spans = []          # [layer, name, start, end, parent index]
        self.stack = []
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counters = dict.fromkeys(COUNTERS, 0)

    # -- spans -------------------------------------------------------------

    def span(self, layer: str, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, layer, name)

    def add(self, counter: str, amount: int):
        """Bump a counter the benchmark measures itself (CLI bytes, ...)."""
        if self.active:
            self.counters[counter] += amount

    def _open(self, layer, name):
        idx = len(self.spans)
        self.spans.append([layer, name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.stack.pop()
        self.spans[idx][3] = time.perf_counter()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer, name, fn):
        tracer = self
        observe = getattr(self, f"_observe_{layer}_{name}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[layer] += 1
            idx = tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return wrapper

    def _count(self, layer, counter, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.calls[layer] += 1
                tracer.counters[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Wrap the entry points of every layer, for the rest of the process."""
        modules = {layer: importlib.import_module(f"beattysieve.{layer}")
                   for layer in LAYERS}
        self._char_table = modules["chars"].char_table
        wrapped = {}
        for layer, mod in modules.items():
            skip = PER_ELEMENT.get(layer, set())
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or name in skip:
                    continue
                if not (inspect.isfunction(obj) or name == "char_table"):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if (layer, name) in COUNT_ONLY:
                    new = self._count(layer, COUNT_ONLY[layer, name], obj)
                else:
                    new = self._wrap(layer, name, obj)
                wrapped[id(obj)] = new
                setattr(mod, name, new)
            for cls_name, methods in CLASS_ENTRY_POINTS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    label = f"{cls_name}.{meth}".replace(".__init__", "")
                    setattr(cls, meth, self._wrap(layer, label, getattr(cls, meth)))
        # names bound by `from .x import f` inside other modules
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])
        self.installed = True

    # -- counters from return values and public state ----------------------

    def _observe_arith_FactorTable(self, args, kwargs, result):
        self.counters["arith.table_entries"] += args[0].limit + 1

    def _observe_beatty_beatty_enumerate(self, args, kwargs, result):
        self.counters["beatty.members_out"] += len(result)

    def _observe_tuples_translate_tuple(self, args, kwargs, result):
        self.counters["tuples.translate_calls"] += 1
        self.counters["tuples.translate_complete"] += int(result.complete)

    def _observe_variational_symmetric_basis(self, args, kwargs, result):
        _, elements = result
        self.counters["variational.basis_built"] += len(elements)
        self.counters["variational.terms"] += sum(len(p.terms) for p in elements)

    def _observe_variational_forms(self, args, kwargs, result):
        self.counters["variational.basis_offered"] += len(result.basis) + len(result.dropped)
        self.counters["variational.basis_kept"] += len(result.basis)

    def _observe_maynard_weights(self, args, kwargs, result):
        self.counters["maynard.support_size"] += len(result.y)
        self.counters["maynard.lambda_total"] += len(result.lam)
        self.counters["maynard.lambda_nonzero"] += sum(1 for v in result.lam.values() if v)

    def _observe_buchstab_decomposition_check(self, args, kwargs, result):
        n_base, n_end = args[0], args[1]
        self.counters["buchstab.n_checked"] += n_end - n_base

    def _observe_buchstab_region_integrals(self, args, kwargs, result):
        self.counters["buchstab.budget_misses"] += sum(
            1 for key, ref in REGION_REFERENCE.items()
            if abs(result[key] - ref) > result["quadrature_error"])

    def _observe_chars_bilinear_S(self, args, kwargs, result):
        q_lo = args[0]
        self.counters["chars.characters"] += sum(phi(q) for q in range(q_lo, 2 * q_lo))

    def _observe_equidist_lambda_points(self, args, kwargs, result):
        self.counters["equidist.points"] += len(result)

    def _observe_equidist_bv_harness(self, args, kwargs, result):
        for row in result:
            self.counters["equidist.progressions"] += sum(
                phi(q) for q in range(1, row["q_cap"] + 1))

    def _observe_equidist_bdh_harness(self, args, kwargs, result):
        for row in result:
            self.counters["equidist.progressions"] += sum(
                phi(q) for q in range(1, row["r_cap"] + 1))

    # -- report ------------------------------------------------------------

    def self_times(self) -> dict:
        """Seconds per layer (plus 'bench' for the benchmark's own spans)
        not covered by a child span."""
        child = [0.0] * len(self.spans)
        for layer, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS + ("bench",), 0.0)
        for i, (layer, name, start, end, parent) in enumerate(self.spans):
            out[layer] += (end - start) - child[i]
        return out

    def report(self) -> dict:
        out = {}
        for layer, secs in self.self_times().items():
            out[f"{layer}.self_s"] = secs
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
        c = self.counters
        info = self._char_table.cache_info()
        derived = {
            # computed, not measured: the smallest-prime-factor table is uint32
            "arith.table_bytes": 4 * c["arith.table_entries"],
            "tuples.complete_ratio": _ratio(c["tuples.translate_complete"],
                                            c["tuples.translate_calls"]),
            "variational.basis_kept_ratio": _ratio(c["variational.basis_kept"],
                                                   c["variational.basis_offered"]),
            "maynard.nonzero_lambda_ratio": _ratio(c["maynard.lambda_nonzero"],
                                                   c["maynard.lambda_total"]),
            "chars.table_hit_ratio": _ratio(info.hits, info.hits + info.misses),
        }
        for key in COUNTER_UNITS:
            out[key] = derived[key] if key in derived else c[key]
        return out


def _ratio(num, den) -> float:
    """num / den, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0


class _Span:
    def __init__(self, tracer, layer, name):
        self.tracer, self.layer, self.name = tracer, layer, name
        self.idx = None

    def __enter__(self):
        if self.tracer.active:
            self.idx = self.tracer._open(self.layer, self.name)
        return self

    def __exit__(self, *exc):
        if self.idx is not None:
            self.tracer._close(self.idx)
        return False

