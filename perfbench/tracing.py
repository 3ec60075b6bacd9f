"""Spans around hyprec's public functions, and the per-layer metrics from them.

``Tracer.install`` wraps each traced function at every binding the package
holds for it: the defining module (``hypergeom.hyp2f1``, which
``hyp2f1_derivative`` calls), the package namespace (``hyprec.hyp2f1``) and
each consumer's import (``schurmean.hyp2f1``, ``verify.hyp2f1``,
``coeffrec.pochhammer``, ...).  The wrapped callables record one span per
call with its parent span, and read work counts from the returned objects.
Spans stay in memory; ``records`` hands them out once at the end.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from time import perf_counter

from . import stats

#: hyp2f1 calls at or beyond this |x| count as near-one work.
NEAR_ONE_X = 0.9

#: hyp2f1 calls summing at most this many terms count as short series.
SHORT_TERMS = 64

SCHURMEAN_FUNCS = (
    "mean_series",
    "mean_quadrature",
    "g_m",
    "schur_condition_sample",
    "gm_sign_scan",
    "schur_grid_scan",
    "q_p0_profile",
    "classify_region",
)
SPECFN_FUNCS = ("pochhammer", "ln_gamma", "digamma", "beta", "r_zero_balanced")
HYPERGEOM_FUNCS = (
    "hyp2f1",
    "hyp2f1_derivative",
    "gauss_value_at_one",
    "zero_balanced_asymptote",
    "euler_transform_eval",
)
RECURRENCES = ("u_general", "u_theta_minus1", "u_theta_plus1", "v_log_product")


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "ext", "attrs", "error")

    def __init__(self, sid, parent, name):
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = self.end = 0.0
        self.ext = 0.0
        self.attrs = {}
        self.error = None


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _coeff_counts(span, seq):
    coeffs = seq.coeffs
    exact = isinstance(coeffs[-1], (int, Fraction))
    span.attrs["exact"] = exact
    span.attrs["coeffs"] = len(coeffs)
    if exact:
        span.attrs["bits"] = sum(q.numerator.bit_length() + q.denominator.bit_length() for q in map(Fraction, coeffs))


class _NodeSource:
    """Stands in for ``numkit``'s scipy.special binding to time rule nodes."""

    def __init__(self, module, tracer):
        self._module = module
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._module, name)

    def roots_jacobi(self, n, alpha, beta):
        t0 = perf_counter()
        result = self._module.roots_jacobi(n, alpha, beta)
        span = self._tracer.current()
        if span is not None and span.name == "numkit.weighted_quad":
            span.attrs["rule"] = n
            span.attrs["nodes_s"] = span.attrs.get("nodes_s", 0.0) + perf_counter() - t0
        return result


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._undo: list[tuple] = []

    def current(self):
        return self._stack[-1] if self._stack else None

    def wrap(self, fn, name, prepare=None, finish=None):
        """Callable that records a span named ``name`` (or ``name(args, kwargs)``).

        ``prepare(span, args, kwargs)`` may replace the arguments before the
        call; ``finish(span, result)`` records counts after it.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = Span(len(spans), stack[-1].id if stack else None, label)
            spans.append(span)
            if prepare is not None:
                args, kwargs = prepare(span, args, kwargs)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter()
                span.error = type(exc).__name__
                raise
            finally:
                stack.pop()
            span.end = perf_counter()
            if finish is not None:
                finish(span, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _patch_everywhere(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self):
        """Wrap every traced hyprec function at all of its bindings."""
        import hyprec
        import hyprec.cli  # noqa: F401  (not imported by the package itself)

        modules = [m for k, m in sorted(sys.modules.items()) if k == "hyprec" or k.startswith("hyprec.")]
        H = {m.__name__.rpartition(".")[2]: m for m in modules}
        targets = [("specfn", fn) for fn in SPECFN_FUNCS]
        targets += [("hypergeom", fn) for fn in HYPERGEOM_FUNCS]
        targets += [("coeffrec", fn) for fn in RECURRENCES + ("cauchy_oracle",)]
        targets += [("numkit", "weighted_quad"), ("numkit", "central_diff")]
        targets += [("schurmean", fn) for fn in SCHURMEAN_FUNCS]
        targets += [("verify", "verify_driver"), ("cli", "main")]
        missing = [f"hyprec.{mod}.{fn}" for mod, fn in targets if not hasattr(H[mod], fn)]
        if missing:
            raise RuntimeError(f"traced functions not found: {', '.join(missing)}")
        for mod, fn in targets:
            original = getattr(H[mod], fn)
            name, prepare, finish = _HOOKS.get((mod, fn), (f"{mod}.{fn}", None, None))
            self._patch_everywhere(modules, original, self.wrap(original, name, prepare, finish))
        numkit = H["numkit"]
        special = getattr(numkit, "_sp", None)
        if special is not None and hasattr(special, "roots_jacobi"):
            self._undo.append((numkit, "_sp", special))
            numkit._sp = _NodeSource(special, self)

    def uninstall(self):
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)

    def records(self) -> list[dict]:
        return [
            {
                "id": s.id,
                "parent": s.parent,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "ext": s.ext,
                "error": s.error,
                **s.attrs,
            }
            for s in self.spans
        ]


def _hyp_prepare(span, args, kwargs):
    span.attrs["x"] = float(_arg(args, kwargs, 1, "x"))
    return args, kwargs


def _hyp_finish(span, result):
    span.attrs["terms"] = result.terms_used


def _quad_prepare(span, args, kwargs):
    f = _arg(args, kwargs, 0, "f")
    span.attrs["evals"] = 0

    def integrand(s):
        t0 = perf_counter()
        try:
            return f(s)
        finally:
            span.ext += perf_counter() - t0
            span.attrs["evals"] += 1

    if args:
        args = (integrand,) + tuple(args[1:])
    else:
        kwargs = dict(kwargs, f=integrand)
    return args, kwargs


def _quad_finish(span, result):
    span.attrs["evaluations"] = result.evaluations


def _verify_name(args, kwargs):
    suite = args[0] if args else kwargs.get("suite", "all")
    return f"verify.{suite}"


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


#: Span name and count hooks of the functions that need more than a plain span.
_HOOKS = {
    ("hypergeom", "hyp2f1"): ("hypergeom.hyp2f1", _hyp_prepare, _hyp_finish),
    ("numkit", "weighted_quad"): ("numkit.weighted_quad", _quad_prepare, _quad_finish),
    ("verify", "verify_driver"): (_verify_name, None, None),
    ("cli", "main"): (_cli_name, None, None),
    **{("coeffrec", fn): (f"coeffrec.{fn}", None, _coeff_counts) for fn in RECURRENCES + ("cauchy_oracle",)},
}


# ---------------------------------------------------------------------------
# per-layer metrics


def _outermost(spans, by_id, key) -> list:
    """Spans with no ancestor sharing their ``key`` (so nesting is not double counted)."""
    out = []
    for s in spans:
        k = key(s)
        p = s["parent"]
        while p is not None and key(by_id[p]) != k:
            p = by_id[p]["parent"]
        if p is None:
            out.append(s)
    return out


def layer_metrics(records) -> dict:
    """Per-layer metrics derived from span records (see README.md)."""
    by_id = {r["id"]: r for r in records}
    selfs = stats.self_times(records)
    dur = lambda r: r["end"] - r["start"]  # noqa: E731
    named = {}
    for r in records:
        named.setdefault(r["name"], []).append(r)
    out = {}

    hyp = named.get("hypergeom.hyp2f1", [])
    done = [r for r in hyp if r["error"] is None]
    terms = sum(r["terms"] for r in done)
    busy = sum(dur(r) for r in hyp)
    short = [r for r in done if r["terms"] <= SHORT_TERMS]
    out["hypergeom.hyp2f1.calls"] = len(hyp)
    out["hypergeom.hyp2f1.terms"] = terms
    out["hypergeom.hyp2f1.busy_s"] = busy
    out["hypergeom.hyp2f1.us_per_term"] = 1e6 * sum(dur(r) for r in done) / terms if terms else 0.0
    out["hypergeom.hyp2f1.short_us_per_call"] = 1e6 * sum(dur(r) for r in short) / len(short) if short else 0.0
    near = sum(dur(r) for r in hyp if abs(r["x"]) >= NEAR_ONE_X)
    out["hypergeom.near_one.busy_frac"] = near / busy if busy else 0.0
    out["hypergeom.nonconvergence"] = sum(1 for r in hyp if r["error"] == "NonConvergence")

    coeff = [r for n in RECURRENCES + ("cauchy_oracle",) for r in named.get(f"coeffrec.{n}", [])]
    coeff = _outermost(coeff, by_id, lambda r: r["name"].startswith("coeffrec."))
    for mode, exact in (("exact", True), ("float", False)):
        rows = [r for r in coeff if r.get("exact") is exact]
        out[f"coeffrec.{mode}.recurrence_s"] = sum(dur(r) for r in rows if r["name"] != "coeffrec.cauchy_oracle")
        out[f"coeffrec.{mode}.oracle_s"] = sum(dur(r) for r in rows if r["name"] == "coeffrec.cauchy_oracle")
    out["coeffrec.exact.coeff_bits"] = sum(r.get("bits", 0) for r in coeff)
    out["coeffrec.coeffs"] = sum(r.get("coeffs", 0) for r in coeff)

    quad = named.get("numkit.weighted_quad", [])
    quad_ok = [r for r in quad if r["error"] is None]
    evals_all = sum(r["evals"] for r in quad)
    out["numkit.quad.calls"] = len(quad)
    out["numkit.quad.evaluations"] = sum(r["evaluations"] for r in quad_ok)
    out["numkit.quad.self_s"] = sum(selfs[r["id"]] for r in quad)
    out["numkit.quad.nodes_s"] = sum(r.get("nodes_s", 0.0) for r in quad)
    out["numkit.quad.integrand_s"] = sum(r["ext"] for r in quad)
    out["numkit.quad.useful_frac"] = sum(r.get("rule", 0) for r in quad_ok) / evals_all if evals_all else 0.0
    diff = named.get("numkit.central_diff", [])
    out["numkit.diff.calls"] = len(diff)
    out["numkit.diff.self_s"] = sum(selfs[r["id"]] for r in diff)

    spec = [r for r in records if r["name"].startswith("specfn.")]
    out["specfn.calls"] = len(spec)
    out["specfn.busy_s"] = sum(dur(r) for r in _outermost(spec, by_id, lambda r: r["name"].startswith("specfn.")))

    for fn in SCHURMEAN_FUNCS:
        rows = named.get(f"schurmean.{fn}", [])
        top = _outermost(rows, by_id, lambda r: r["name"])
        out[f"schurmean.{fn}.calls"] = len(rows)
        out[f"schurmean.{fn}.busy_s"] = sum(dur(r) for r in top)
        out[f"schurmean.{fn}.self_s"] = sum(selfs[r["id"]] for r in rows)
    return out


def verify_metrics(records, suites) -> dict:
    """verify.<suite>.busy_s for every suite name."""
    out = {}
    for suite in suites:
        out[f"verify.{suite}.busy_s"] = sum(
            r["end"] - r["start"] for r in records if r["name"] == f"verify.{suite}"
        )
    return out
