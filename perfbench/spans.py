"""Spans and counters recorded from outside envlld, for the traced run.

`Tracer.install()` replaces each listed public function with a wrapper in
every envlld module namespace that holds it (a `from ... import` copies the
name, so patching only the defining module would miss those callers).  A
wrapper records a span (name, start, end, parent span, request id) while a
request is being served and passes straight through otherwise, so input
generation and correctness checks leave no spans.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the time its child spans cover; busy time counts only the
outermost span of each name, so recursion is not counted twice.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter_ns

# (module, attribute path) of every function that gets a span
SPANNED = (
    ("parser", "parse_expr"), ("parser", "format_expr"), ("parser", "format_poly"),
    ("algebra", "pbw_normal_form"), ("algebra", "pbw_mul"),
    ("centerpoly", "divexact"), ("centerpoly", "poly_gcd"),
    ("centerpoly", "content_normalize"),
    ("center", "decompose"), ("center", "verify_identity"),
    ("linalg", "ff_rank_kernel"), ("linalg", "solve_fraction_field"),
    ("linalg", "RatEchelon.add"),
    ("reps", "apply_to_vector"), ("reps", "eval_element"), ("reps", "sl2_irrep"),
    ("sl3reps", "sl3_irrep"), ("sl3reps", "Sl3Model.eval_columns"),
    ("sl3reps", "Sl3Model.to_matrix"),
    ("dependence", "decide_c_dependence"), ("dependence", "decide_center_dependence"),
    ("dependence", "loc_span_solve"), ("dependence", "condition1_check"),
    ("dependence", "empirical_lld"), ("dependence", "empirical_ref"),
    ("dependence", "witness_independence"), ("dependence", "duality_check"),
    ("dependence", "sl3_weight_scan"),
)
LAYERS = ("parser", "algebra", "centerpoly", "center", "linalg", "reps",
          "sl3reps", "dependence")
REQUEST = "request"


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "envlld" or name.startswith("envlld.")]


class Tracer:
    def __init__(self):
        self.spans = []        # (name, start_ns, end_ns, parent index, rid, outermost)
        self.counts = Counter()
        self._stack = []
        self._open = Counter()
        self._rid = None
        self._patched = []     # (owner, attribute, original), for uninstall

    # -- recording --------------------------------------------------------

    def _enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        outer = not self._open[name]
        self._open[name] += 1
        return idx, parent, outer

    def _leave(self, name, idx, parent, outer, start):
        end = perf_counter_ns()
        self._open[name] -= 1
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self._rid, outer)

    def request(self, rid, fn, *args):
        """Run fn(*args) as request rid under a root span."""
        self._rid = rid
        idx, parent, outer = self._enter(REQUEST)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self._leave(REQUEST, idx, parent, outer, start)
            self._rid = None

    def _wrap(self, name, fn, count=None, cache_size=None):
        """fn with a span; count(args, result) runs after the call, and a
        call that leaves cache_size() unchanged counts as a cache hit."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._rid is None:
                return fn(*args, **kwargs)
            size = cache_size() if cache_size is not None else None
            idx, parent, outer = tracer._enter(name)
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._leave(name, idx, parent, outer, start)
            if size is not None and cache_size() == size:
                tracer.counts[name + ".hits"] += 1
            if count is not None:
                count(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self):
        """Patch envlld; call once per process, before serving requests."""
        from envlld import algebra, sl3reps

        for layer in LAYERS:
            importlib.import_module(f"envlld.{layer}")

        hooks = {
            "linalg.ff_rank_kernel": {"count": self._count_cells},
            "dependence.witness_independence": {"count": self._count_shifts},
            "sl3reps.sl3_irrep": {
                "cache_size": lambda: len(getattr(sl3reps, "_IRREP_CACHE", ()))},
        }
        # a listed function the program no longer has is skipped, and its
        # metrics read 0
        mods = _modules()
        for modname, attr in SPANNED:
            owner = sys.modules[f"envlld.{modname}"]
            name = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if hasattr(cls, meth):
                    self._patch(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapped = self._wrap(name, orig, **hooks.get(name, {}))
            for m in mods:
                if getattr(m, attr, None) is orig:
                    self._patch(m, attr, wrapped)

        # mono_mul runs far too often for a span each; it is counted only,
        # and a call that leaves the product cache unchanged is a hit
        orig_mono = getattr(algebra.AlgebraSpec, "mono_mul", None)
        if orig_mono is None:
            return self
        counts = self.counts

        def mono_mul(spec, ea, eb):
            if self._rid is None:
                return orig_mono(spec, ea, eb)
            cache = getattr(spec, "_mono_cache", None)
            size = None if cache is None else len(cache)
            out = orig_mono(spec, ea, eb)
            counts["algebra.mono_mul.calls"] += 1
            if size is not None and len(cache) == size:
                counts["algebra.mono_mul.hits"] += 1
            return out

        self._patch(algebra.AlgebraSpec, "mono_mul", mono_mul)
        return self

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        """Put back every original function."""
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _count_cells(self, args, result):
        M = args[0]
        self.counts["linalg.ff_rank_kernel.cells"] += M.rows * M.cols

    def _count_shifts(self, args, result):
        self.counts["dependence.witness_independence.shifts_tried"] += \
            result.evidence["t"] + 1
        self.counts["dependence.witness_independence.witnesses"] += 1

    # -- results ---------------------------------------------------------------

    def totals(self):
        """Per span name: calls, busy_ns, self_ns; plus per request id the
        root duration and the summed self time of its spans."""
        child = [0] * len(self.spans)
        for name, start, end, parent, rid, outer in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_name = {}
        by_request = {}
        for i, (name, start, end, parent, rid, outer) in enumerate(self.spans):
            dur = end - start
            t = by_name.setdefault(name, [0, 0, 0])
            t[0] += 1
            t[1] += dur if outer else 0
            t[2] += dur - child[i]
            r = by_request.setdefault(rid, [0, 0])
            if name == REQUEST:
                r[0] = dur
            r[1] += dur - child[i]
        return by_name, by_request

    def write(self, path):
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\trequest\n")
            for name, start, end, parent, rid, outer in self.spans:
                fh.write(f"{name}\t{start}\t{end}\t{parent}\t{rid}\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Every per-layer metric as name -> (value, unit)."""
    from envlld import algebra, reps, sl3reps

    by_name, _ = tracer.totals()
    out = {}
    layer_self = dict.fromkeys(LAYERS, 0)
    for modname, attr in SPANNED:
        name = f"{modname}.{attr}"
        calls, busy, self_ns = by_name.get(name, (0, 0, 0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.busy_s"] = (busy / 1e9, "s")
        out[f"{name}.self_s"] = (self_ns / 1e9, "s")
        layer_self[modname] += self_ns
    for layer, ns in layer_self.items():
        out[f"{layer}.self_s"] = (ns / 1e9, "s")
    out["request.self_s"] = (by_name.get(REQUEST, (0, 0, 0))[2] / 1e9, "s")
    c = tracer.counts
    out["linalg.ff_rank_kernel.cells"] = (c["linalg.ff_rank_kernel.cells"], "count")
    out["algebra.mono_mul.calls"] = (c["algebra.mono_mul.calls"], "count")
    out["algebra.mono_mul.hit_ratio"] = (
        _ratio(c["algebra.mono_mul.hits"], c["algebra.mono_mul.calls"]), "ratio")
    specs = (algebra.sl2(), algebra.sl3())
    out["algebra.nf_cache.entries"] = (
        sum(len(getattr(A, "_nf_cache", ())) for A in specs), "count")
    out["algebra.mono_cache.entries"] = (
        sum(len(getattr(A, "_mono_cache", ())) for A in specs), "count")
    cache_info = getattr(reps.sl2_irrep.__wrapped__, "cache_info", None)
    hits, misses = cache_info()[:2] if cache_info else (0, 0)
    out["reps.sl2_irrep.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    out["sl3reps.sl3_irrep.hit_ratio"] = (
        _ratio(c["sl3reps.sl3_irrep.hits"],
               by_name.get("sl3reps.sl3_irrep", (0,))[0]), "ratio")
    out["sl3reps.irrep_cache.entries"] = (
        len(getattr(sl3reps, "_IRREP_CACHE", ())), "count")
    shifts = c["dependence.witness_independence.shifts_tried"]
    out["dependence.witness_independence.shifts_tried"] = (shifts, "count")
    out["dependence.witness_independence.useful_ratio"] = (
        _ratio(c["dependence.witness_independence.witnesses"], shifts), "ratio")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out
