"""Deterministic command-line front end.

Subcommands: coeffs, eval, near-one, classify, mean, gm-scan, qprofile,
verify.  Each is declared once, as a row of :data:`COMMANDS`: its handler,
its help, its required and optional numeric flags, and whether --rational
applies.  :func:`build_parser` adds those flags, --rational (hidden where it
does not apply) and --format from the rows, and the few options of one
subcommand alone by hand; :func:`main` dispatches through the same rows.

Every numeric flag (--a --b --c --p --theta --x --y --m) accepts a decimal
literal or an exact rational "p/q"; a rational literal (or --rational)
routes the coeffs and classify subcommands through exact arithmetic end to
end.  The parser keeps each such flag as its text, and :func:`main`
converts every one given, once and before dispatch, by that one rule: in
coeffs and classify, all of them become Fractions when --rational is set or
any of them holds a "/"; elsewhere a "p/q" literal is a Fraction and any
other a float.  The handlers read numbers, and a flag that a
subcommand ignores (near-one's --c or --x, by case) is checked all the same.
Output is byte-identical for identical inputs.

Every subcommand builds its own table (a header, rows and, where the JSON or
plain layout is not the single row itself, a payload or text) and prints it
through one writer, :func:`_render`: sorted-key JSON, CSV through the csv
module, or plain text.  Numbers are spelled by ``coeffrec.format_number``;
the library itself writes no JSON or CSV.

Parameter-domain rules live in the library, not here: a value outside the
domain, a NaN or infinite parameter, a tolerance that is not positive or a
negative sign tolerance raises :class:`hyprec.errors.ParameterError` where
the library checks it, so the CLI accepts exactly the values the library
does.  Flag problems this module finds itself (unparsable literals,
conflicting flags, missing flags) raise the same error.

Exit codes: 0 success, 2 invalid flag or parameter (ParameterError),
3 numerical failure (any other DomainError, or NonConvergence), 1 internal
error.  The verify subcommand instead exits with the number of failing
properties (0 on full pass).
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import sys
from collections import namedtuple
from fractions import Fraction

from . import verify as verify_mod
from ._record import as_dict
from .coeffrec import (
    DEFAULT_N,
    WeightedSeriesSpec,
    cauchy_oracle,
    format_number,
    u_general,
    u_theta_minus1,
    u_theta_plus1,
    v_log_product,
)
from .errors import DomainError, NonConvergence, ParameterError
from .hypergeom import (
    HypParams,
    euler_transform_eval,
    gauss_value_at_one,
    hyp2f1,
    hyp2f1_derivative,
    zero_balanced_asymptote,
)
from .schurmean import (
    DEFAULT_T_GRID,
    MeanParams,
    RegionTriple,
    classify_region,
    classify_region_fuzzed,
    gm_sign_scan,
    mean_quadrature,
    mean_series,
    q_p0_profile,
)

FORMATS = ("json", "csv", "plain")


class _Literal(str):
    """The text of a numeric flag, which :func:`main` converts before dispatch."""


def _parse_number(raw: str, exact: bool):
    try:
        return Fraction(raw) if exact or "/" in raw else float(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"cannot parse numeric literal {raw!r}: {exc}") from exc


def _parse_t_grid(raw: str | None) -> list[float] | None:
    if raw is None:
        return None
    return [float(_parse_number(piece, False)) for piece in map(str.strip, raw.split(",")) if piece]


def _plain_lines(pairs) -> str:
    return "".join(f"{k} = {v}\n" for k, v in pairs)


def _render(fmt: str, header, rows, payload=None, plain=None) -> str:
    """The one output writer: a table under ``header`` in the requested format.

    JSON is ``payload`` (by default the single row keyed by the header) with
    sorted keys and a trailing newline.  CSV is the header and the rows
    through the csv module: fields quoted where they need it, LF endings.
    Plain is ``plain`` (by default the single row as "k = v" lines).
    """
    if fmt == "json":
        if payload is None:
            payload = dict(zip(header, rows[0]))
        return json.dumps(payload, sort_keys=True) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return out.getvalue()
    return _plain_lines(zip(header, rows[0])) if plain is None else plain


# ---------------------------------------------------------------------------
# subcommand handlers


def _run_coeffs(args, sink) -> int:
    params = HypParams(args.a, args.b, args.c)
    zero = Fraction(0) if isinstance(args.a, Fraction) else 0.0
    p = zero if args.p is None else args.p
    theta = args.theta
    family = args.family
    if family == "log":
        if args.p is not None or args.theta is not None:
            raise ParameterError("--p/--theta do not apply to the log-product family")
        seq = v_log_product(params, args.n)
    elif family == "theta1":
        if theta is not None and theta != 1:
            raise ParameterError("family theta1 fixes theta=1")
        seq = u_theta_plus1(params, p, args.n)
    elif family == "theta-1":
        if theta is not None and theta != -1:
            raise ParameterError("family theta-1 fixes theta=-1")
        seq = u_theta_minus1(params, p, args.n)
    else:
        spec = WeightedSeriesSpec(params, p, theta if theta is not None else zero)
        seq = u_general(spec, args.n) if family == "general" else cauchy_oracle(spec, args.n)
    spec_fields = {k: format_number(getattr(seq.spec.params, k)) for k in ("a", "b", "c")}
    if family == "log":
        spec_fields["kind"] = "log-product"
    else:
        spec_fields.update(kind="weighted", p=format_number(seq.spec.p), theta=format_number(seq.spec.theta))
    rows = [(n, format_number(v)) for n, v in enumerate(seq.coeffs)]
    payload = {"coeffs": [v for _, v in rows], "method": seq.method.value, "spec": spec_fields}
    plain = _plain_lines((f"u_{n}", v) for n, v in rows)
    sink.write(_render(args.format, ("n", "u_n"), rows, payload, plain))
    return 0


def _eval_fields(result) -> dict:
    return {
        "value": format_number(result.value),
        "error_bound": format_number(result.error_bound),
        "terms_used": result.terms_used,
    }


def _run_eval(args, sink) -> int:
    fn = hyp2f1_derivative if args.deriv else hyp2f1
    fields = _eval_fields(fn(HypParams(args.a, args.b, args.c), args.x, args.tol))
    sink.write(_render(args.format, fields, [fields.values()]))
    return 0


def _run_near_one(args, sink) -> int:
    if args.case == "zero-balanced":
        if args.x is None:
            raise ParameterError("--x is required for the zero-balanced asymptote")
        value = zero_balanced_asymptote(args.a, args.b, args.x)
        fields = {"case": args.case, "value": format_number(value)}
    else:
        if args.c is None:
            raise ParameterError(f"--c is required for case {args.case}")
        params = HypParams(args.a, args.b, args.c)
        if args.case == "value-at-one":
            value = gauss_value_at_one(params)
            fields = {"case": args.case, "value": format_number(value)}
        else:
            if args.x is None:
                raise ParameterError("--x is required for the Euler-transform evaluation")
            result = euler_transform_eval(params, args.x, args.tol)
            fields = {"case": args.case, **_eval_fields(result)}
    sink.write(_render(args.format, fields, [fields.values()]))
    return 0


def _run_classify(args, sink) -> int:
    triple = RegionTriple(MeanParams(args.a, args.b), args.m)
    if args.fuzz:
        label, boundary, (lo, hi) = classify_region_fuzzed(triple)
    else:
        label = classify_region(triple)
    m0_repr = format_number(label.m0) if isinstance(args.a, Fraction) else float(label.m0)
    fields = {"label": label.label.value, "m0": m0_repr, "branch": label.branch}
    if args.fuzz:
        fields["boundary"] = boundary
        fields["label_minus_eps"] = lo.label.value
        fields["label_plus_eps"] = hi.label.value
    fields = dict(sorted(fields.items()))
    sink.write(_render(args.format, fields, [fields.values()]))
    return 0


def _run_mean(args, sink) -> int:
    mp = MeanParams(args.a, args.b)
    # Without --tol each method keeps its own default tolerance.
    tol = {} if args.tol is None else {"tol": args.tol}
    fields = {}
    if args.method in ("series", "both"):
        series = mean_series(args.x, args.y, mp, **tol)
        fields["series"] = format_number(series)
    if args.method in ("quadrature", "both"):
        quadrature = mean_quadrature(args.x, args.y, mp, **tol)
        fields["quadrature"] = format_number(quadrature)
    if args.method == "both":
        fields["abs_difference"] = format_number(abs(series - quadrature))
    sink.write(_render(args.format, fields, [fields.values()]))
    return 0


def _run_gm_scan(args, sink) -> int:
    triple = RegionTriple(MeanParams(args.a, args.b), args.m)
    r = gm_sign_scan(triple, t_grid=_parse_t_grid(args.tgrid), tol=args.tol, sign_tol=args.sign_tol)
    fields = (
        ("a", format_number(r.a)),
        ("b", format_number(r.b)),
        ("m", format_number(r.m)),
        ("label", r.label),
        ("branch", r.branch),
        ("gm_min", format_number(r.gm_min)),
        ("gm_max", format_number(r.gm_max)),
        ("consistent", r.consistent),
        ("sign_change_t", "-" if r.sign_change_t is None else format_number(r.sign_change_t)),
        ("warning", r.warning or "-"),
    )
    header, row = zip(*fields)
    plain = _plain_lines(fields[3:])
    sink.write(_render(args.format, header, [row], as_dict(r), plain))
    return 0


def _run_qprofile(args, sink) -> int:
    grid = _parse_t_grid(args.tgrid)
    ts = list(DEFAULT_T_GRID) if grid is None else grid
    values = q_p0_profile(MeanParams(args.a, args.b), ts, args.tol)
    payload = {"q": [[t, v] for t, v in zip(ts, values)]}
    rows = [(format_number(t), format_number(v)) for t, v in zip(ts, values)]
    plain = _plain_lines((f"Q({t})", v) for t, v in rows)
    sink.write(_render(args.format, ("t", "Q"), rows, payload, plain))
    return 0


def _run_verify(args, sink) -> int:
    summary = verify_mod.verify_driver(args.suite, args.seed)
    rows = [
        (r.suite, r.name, r.status, "-" if r.margin is None else format_number(r.margin), r.note)
        for r in summary.results
    ]
    payload = {
        "seed": summary.seed,
        "suite": summary.suite,
        "failures": summary.failures,
        "warnings": summary.warnings,
        "results": [as_dict(r) for r in summary.results],
    }
    lines = [f"verification suite={summary.suite} seed={summary.seed}"]
    current = None
    for suite, name, status, margin, note in rows:
        if suite != current:
            current = suite
            lines.append(f"[{suite}]")
        lines.append(f"  {status.upper():<5} {name:<32} margin={margin}")
        if note:
            lines.append(f"        {note}")
    lines.append(
        f"summary: {len(rows)} properties, {summary.failures} failures, {summary.warnings} warnings"
    )
    plain = "\n".join(lines) + "\n"
    header = ("suite", "property", "status", "margin", "note")
    sink.write(_render(args.format, header, rows, payload, plain))
    return summary.exit_code


#: One row per subcommand, in help order: its handler, its help, its required
#: and optional numeric literal flags, and whether --rational applies.
_Command = namedtuple("_Command", "handler help required optional rational")
COMMANDS = {
    "coeffs": _Command(
        _run_coeffs, "coefficient sequences by recurrence or oracle", ("a", "b", "c"), ("p", "theta"), True
    ),
    "eval": _Command(_run_eval, "evaluate F(a,b;c;x) or its derivative", ("a", "b", "c", "x"), (), False),
    "near-one": _Command(
        _run_near_one, "behavior near x=1 (three explicit regimes)", ("a", "b"), ("c", "x"), False
    ),
    "classify": _Command(_run_classify, "E+/E- membership of a triple (a,b,m)", ("a", "b", "m"), (), True),
    "mean": _Command(_run_mean, "hypergeometric mean M(x,y)", ("a", "b", "x", "y"), (), False),
    "gm-scan": _Command(_run_gm_scan, "sign scan of G_m over a t grid", ("a", "b", "m"), (), False),
    "qprofile": _Command(_run_qprofile, "weighted ratio profile Q_p0 on a t grid", ("a", "b"), (), False),
    "verify": _Command(_run_verify, "run the seeded property suites", (), (), False),
}

RATIONAL_COMMANDS = tuple(name for name, command in COMMANDS.items() if command.rational)


def build_parser() -> argparse.ArgumentParser:
    """The parser: each subcommand's literal flags, --rational and --format from its row in :data:`COMMANDS`.

    The options of one subcommand alone are added by hand between them.
    near-one's --case comes first and --rational and --format come last, so
    each subcommand's help lists its options in the order it always has.
    """
    parser = argparse.ArgumentParser(
        prog="hyprec",
        description="Recurrence-based coefficients of weighted hypergeometric series "
        "and the Schur m-power convexity analysis of the hypergeometric mean.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {name: sub.add_parser(name, help=command.help) for name, command in COMMANDS.items()}
    parsers["near-one"].add_argument(
        "--case", choices=("value-at-one", "zero-balanced", "euler"), required=True
    )
    for name, command in COMMANDS.items():
        for flag in command.required + command.optional:
            parsers[name].add_argument(f"--{flag}", type=_Literal, required=flag in command.required)

    parsers["coeffs"].add_argument("--n", type=int, default=DEFAULT_N)
    parsers["coeffs"].add_argument(
        "--family", choices=("general", "theta1", "theta-1", "log", "oracle"), default="general"
    )
    parsers["eval"].add_argument("--tol", type=float, default=1e-12)
    parsers["eval"].add_argument("--deriv", action="store_true")
    parsers["near-one"].add_argument("--tol", type=float, default=1e-12)
    parsers["classify"].add_argument("--fuzz", action="store_true")
    parsers["mean"].add_argument("--method", choices=("series", "quadrature", "both"), default="series")
    parsers["mean"].add_argument("--tol", type=float, default=None)
    parsers["gm-scan"].add_argument("--tgrid", default=None, help="comma-separated t values in (0,1)")
    parsers["gm-scan"].add_argument("--tol", type=float, default=1e-12)
    parsers["gm-scan"].add_argument("--sign-tol", dest="sign_tol", type=float, default=1e-8)
    parsers["qprofile"].add_argument("--tgrid", default=None)
    parsers["qprofile"].add_argument("--tol", type=float, default=1e-12)
    parsers["verify"].add_argument("--suite", choices=("all",) + verify_mod.SUITES, default="all")
    parsers["verify"].add_argument("--seed", type=int, default=42)

    for name, command in COMMANDS.items():
        p = parsers[name]
        # Accepted everywhere, so a subcommand it does not apply to rejects
        # it with a specific message instead of a generic argparse usage
        # error; hidden there.
        p.add_argument("--rational", action="store_true", help=None if command.rational else argparse.SUPPRESS)
        p.add_argument("--format", choices=FORMATS, default="plain" if name == "verify" else "json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.rational and args.command not in RATIONAL_COMMANDS:
            raise ParameterError(
                f"--rational is not supported by {args.command!r} "
                f"(supported: {', '.join(RATIONAL_COMMANDS)})"
            )
        literals = {name: raw for name, raw in vars(args).items() if isinstance(raw, _Literal)}
        exact = args.command in RATIONAL_COMMANDS and (
            args.rational or any("/" in raw for raw in literals.values())
        )
        for name, raw in literals.items():
            setattr(args, name, _parse_number(raw, exact))
        return COMMANDS[args.command].handler(args, sys.stdout)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, NonConvergence) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


def run():
    """Process entry of ``python -m hyprec`` and the ``hyprec`` script: exit with :func:`main`'s code.

    Before the command runs, ``gc.freeze()`` moves every object the imports
    made (about 13,000 tracked by the collector: site's modules, the
    standard library and hyprec) to the collector's permanent generation.
    None of them can become garbage before the process exits, yet every
    full collection walks them all.  Measured with ``gc.callbacks`` on a
    2-core machine, the interpreter's collection at exit took 4.2 ms after
    a cold ``hyprec eval`` and 4.0 ms after ``verify --suite all``, which
    also paid a 1.2 ms generation-1 pass; frozen, the exit collection took
    0.14 and 0.30 ms and the generation-1 pass did not occur.  A cold
    ``hyprec eval`` went from 64.8 to 56.8 ms (median of 20 interleaved
    runs).  The collector stays enabled, so the command's own cyclic
    garbage is still collected.  :func:`main` itself touches no collector
    state, since tests and the benchmark call it in their own process.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
