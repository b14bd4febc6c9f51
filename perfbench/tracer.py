"""Per-layer spans and counts, recorded from outside the library.

``install(modules)`` wraps the public functions of each layer and rebinds
every module-level name that refers to them (``star_algebra.p_lambda``,
``series_engine.star``, the benchmark's own imports, ...), plus the
methods of ``QC``, ``Element`` and ``LatticeSpacetime``.  Each wrapper
records one span: its calls, total time and self time (total minus the
time of the spans it caused), aggregated per span name in memory.  A few
hooks count work at the same boundaries.  The library itself is not
edited; tracing is on only in the worker that installs it.
"""

from __future__ import annotations

import sys
import time

QC_DUNDERS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
)
ELEMENT_OPS = ("__add__", "scale", "__mul__")
KERNELS = ("mul_terms", "mu_terms", "contract_terms", "laplace_bulk")
STAR_ALGEBRA = ("star", "poisson_bracket", "equivalence_transform", "translate", "apply_linear")
PEIERLS_METHODS = ("propagator", "rho_sigma", "pairing", "lambda_sigma")
PEIERLS_FUNCTIONS = ("exact_rank", "_solve_exact")


class Tracer:
    """Aggregated spans: name -> [calls, total_s, self_s]; plus counters."""

    def __init__(self):
        self.on = False
        self.stack = []
        self.spans = {}
        self.counts = {}

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key, n):
        if n > self.counts.get(key, 0):
            self.counts[key] = n

    def wrap(self, name, fn, hook=None):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if hook is not None:
                hook(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def parent(self):
        return self.stack[-1][1] if self.stack else None


def _kernel_hook(fn_name):
    def hook(tr, args, result):
        if fn_name == "mul_terms":
            tr.add("kernels.mul_terms.terms_in", len(args[0]) + len(args[1]))
        else:
            tr.add(f"kernels.{fn_name}.terms_in", len(args[0]))
        tr.add(f"kernels.{fn_name}.terms_out", len(result))
        if fn_name == "contract_terms":
            tr.add("kernels.contract_terms.attempted", len(args[0]) * len(args[1]))

    return hook


def _p_lambda_hook(tr, args, result):
    tr.peak("bilinear_forms.peak_pair_terms", max(len(args[0].terms), len(result.terms)))
    if tr.parent() == "star_algebra.star":
        tr.add("star_algebra.star.contractions", 1)


def _exact_rank_hook(tr, args, result):
    M = args[0]
    tr.add("peierls.exact_rank.cells", len(M) * len(M[0]) if M else 0)


def install(tracer, extra_modules=()):
    """Wrap every traced function and rebind its names; return the tracer."""
    from weylalg import (
        _backend,
        _kernels_py,
        bilinear_forms,
        graded_poly,
        jsonio,
        peierls,
        scalars,
        seminorm_calculus,
        series_engine,
        star_algebra,
    )

    modules = [m for n, m in sys.modules.items() if n == "weylalg" or n.startswith("weylalg.")]
    modules.extend(extra_modules)

    def rebind(orig, new):
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, new)

    def function(module, attr, name, hook=None):
        orig = getattr(module, attr)
        rebind(orig, tracer.wrap(name, orig, hook))

    def method(cls, attr, name, hook=None):
        setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], hook))

    def public(module, layer):
        for attr, val in list(vars(module).items()):
            if (
                not attr.startswith("_")
                and callable(val)
                and not isinstance(val, type)
                and getattr(val, "__module__", None) == module.__name__
            ):
                function(module, attr, f"{layer}.{attr}")

    for attr in QC_DUNDERS:
        method(scalars.QC, attr, f"scalars.QC.{attr}")
    for attr in ELEMENT_OPS:
        method(graded_poly.Element, attr, f"graded_poly.Element.{attr}")
    kernel_modules = [_kernels_py]
    if getattr(_backend, "_compiled", None) is not None:
        kernel_modules.append(_backend._compiled)
    for km in kernel_modules:
        for attr in KERNELS:
            function(km, attr, f"kernels.{attr}", _kernel_hook(attr))
    function(bilinear_forms, "p_lambda", "bilinear_forms.p_lambda", _p_lambda_hook)
    function(bilinear_forms, "delta_g", "bilinear_forms.delta_g")
    for attr in STAR_ALGEBRA:
        function(star_algebra, attr, f"star_algebra.{attr}")
    public(seminorm_calculus, "seminorm_calculus")
    public(series_engine, "series_engine")
    public(jsonio, "jsonio")
    for attr in PEIERLS_METHODS:
        method(peierls.LatticeSpacetime, attr, f"peierls.{attr}")
    function(peierls, "exact_rank", "peierls.exact_rank", _exact_rank_hook)
    function(peierls, "_solve_exact", "peierls.solve_exact")
    return tracer


def _layer_sum(spans, prefix, idx):
    return sum(s[idx] for name, s in spans.items() if name.startswith(prefix))


def layer_metrics(tracer):
    """The per-layer metrics of one traced pass (no cli.* or trace.*)."""
    sp, c = tracer.spans, tracer.counts

    def span(name):
        return sp.get(name, [0, 0.0, 0.0])

    out = {
        "scalars.qc_ops": _layer_sum(sp, "scalars.", 0),
        "scalars.self_s": _layer_sum(sp, "scalars.", 2),
    }
    for k in KERNELS:
        s = span(f"kernels.{k}")
        out[f"kernels.{k}.calls"] = s[0]
        out[f"kernels.{k}.self_s"] = s[2]
        out[f"kernels.{k}.terms_in"] = c.get(f"kernels.{k}.terms_in", 0)
        out[f"kernels.{k}.terms_out"] = c.get(f"kernels.{k}.terms_out", 0)
    attempted = c.get("kernels.contract_terms.attempted", 0)
    out["kernels.contract_terms.yield"] = (
        c.get("kernels.contract_terms.terms_out", 0) / attempted if attempted else 0.0
    )
    for k in ("p_lambda", "delta_g"):
        s = span(f"bilinear_forms.{k}")
        out[f"bilinear_forms.{k}.calls"] = s[0]
        out[f"bilinear_forms.{k}.self_s"] = s[2]
    out["bilinear_forms.peak_pair_terms"] = c.get("bilinear_forms.peak_pair_terms", 0)
    out["graded_poly.element_ops"] = _layer_sum(sp, "graded_poly.", 0)
    out["graded_poly.self_s"] = _layer_sum(sp, "graded_poly.", 2)
    for k in STAR_ALGEBRA:
        s = span(f"star_algebra.{k}")
        out[f"star_algebra.{k}.calls"] = s[0]
        out[f"star_algebra.{k}.self_s"] = s[2]
    stars = span("star_algebra.star")[0]
    out["star_algebra.star.steps"] = (
        c.get("star_algebra.star.contractions", 0) / stars if stars else 0.0
    )
    for layer in ("seminorm_calculus", "series_engine"):
        out[f"{layer}.calls"] = _layer_sum(sp, f"{layer}.", 0)
        out[f"{layer}.self_s"] = _layer_sum(sp, f"{layer}.", 2)
    for k in PEIERLS_METHODS + ("exact_rank", "solve_exact"):
        s = span(f"peierls.{k}")
        out[f"peierls.{k}.calls"] = s[0]
        out[f"peierls.{k}.self_s"] = s[2]
    out["peierls.exact_rank.cells"] = c.get("peierls.exact_rank.cells", 0)
    out["jsonio.self_s"] = _layer_sum(sp, "jsonio.", 2)
    return out
