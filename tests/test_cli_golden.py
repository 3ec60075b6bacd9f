"""Golden CLI matrix: exact stdout and exit code for every subcommand x format.

The expected outputs in ``data/cli_golden.json`` pin the CLI byte for byte,
error exits included (their stdout is empty).  Regenerate them only when an
output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import csv
import functools
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hyprec.cli import main
from hyprec.schurmean import DEFAULT_T_GRID

GOLDEN = Path(__file__).with_name("data") / "cli_golden.json"
FORMATS = ("json", "csv", "plain")

_COEFFS = (
    ("--a", "0.3", "--b", "0.7", "--c", "1.5", "--p", "2", "--theta", "0.5", "--n", "10"),
    ("--a", "1", "--b", "1", "--c", "2", "--p", "1/3", "--theta", "1", "--n", "8"),
    ("--a", "0.3", "--b", "0.7", "--c", "1.5", "--p", "2", "--theta", "0.5", "--n", "6", "--rational"),
    ("--a", "1", "--b", "1", "--c", "2", "--family", "log", "--n", "12"),
    ("--a", "1/3", "--b", "2/3", "--c", "3/2", "--family", "log", "--n", "5"),
    ("--a", "0.3", "--b", "0.7", "--c", "1.5", "--p", "0.5", "--family", "theta1", "--n", "8"),
    ("--a", "0.3", "--b", "0.7", "--c", "1.5", "--p", "-1.5", "--theta", "-1", "--family", "theta-1", "--n", "8"),
    ("--a", "0.3", "--b", "0.7", "--c", "1.5", "--p", "2", "--theta", "0.5", "--n", "6", "--family", "oracle"),
    ("--a", "1/2", "--b", "1/3", "--c", "5/4", "--p=-2/3", "--theta", "1/2", "--n", "6", "--family", "oracle"),
    ("--family", "oracle", "--a", "1/2", "--b", "1/3", "--c", "5/4", "--p=-2/3", "--theta", "1/2", "--n", "40"),
    # The exact oracle's zero windows: the binomial factor ends at j = p, is
    # 1 alone at theta = 0, and w ends at k = -a.
    ("--family", "oracle", "--a", "1/3", "--b", "2/5", "--c", "3/2", "--p", "3/1", "--theta", "1/2", "--n", "12"),
    ("--family", "oracle", "--a", "1/3", "--b", "2/5", "--c", "3/2", "--p=-2/3", "--theta", "0/1", "--n", "8"),
    ("--family", "oracle", "--a=-2/1", "--b", "2/5", "--c", "3/2", "--p", "3/1", "--theta", "1/2", "--n", "10"),
    ("--family", "oracle", "--a", "1/3", "--b", "2/5", "--c=-5/2", "--p=-2/3", "--theta", "1/2", "--n", "10"),
    # The exact recurrences at N = 40, a theta = -1 sequence whose tail is
    # all zeros, and the log product's denominator vanishing at n = 1.
    ("--family", "theta1", "--a", "1/3", "--b", "2/5", "--c", "3/2", "--p=-2/3", "--n", "40"),
    ("--family", "theta-1", "--a", "1/3", "--b", "2/5", "--c", "3/2", "--p=-2/3", "--n", "40"),
    ("--family", "general", "--theta", "1/2", "--a", "1/3", "--b", "2/5", "--c", "3/2", "--p=-2/3", "--n", "40"),
    ("--family", "log", "--a", "1/3", "--b", "2/5", "--c", "3/2", "--n", "40"),
    ("--family", "theta-1", "--a=-2/1", "--b", "2/5", "--c=-5/2", "--p", "3/1", "--n", "12"),
    ("--family", "log", "--a", "0/1", "--b", "2/5", "--c", "3/2", "--n", "5"),
    # The float oracle past the float range of (-p)_j: inf from n = 103,
    # where the exact oracle's coefficients are finite.
    ("--family", "oracle", "--a", "0.3", "--b", "0.7", "--c", "1.5", "--p", "-1000", "--theta", "0.5", "--n", "150"),
    ("--a", "-2", "--b", "0.5", "--c", "-2.5", "--n", "4"),
    ("--a", "1", "--b", "1", "--c", "2", "--n", "0"),
)
_EVAL = (
    ("--a", "1", "--b", "1", "--c", "2", "--x", "0.5"),
    ("--a", "0.3", "--b", "0.7", "--c", "1.5", "--x", "0.3", "--deriv"),
    ("--a", "0.5", "--b", "0.5", "--c", "1", "--x", "-0.9", "--tol", "1e-8"),
    ("--a", "-3", "--b", "2", "--c", "1/2", "--x", "0.7"),
    ("--a", "1", "--b", "1", "--c", "2", "--x", "0.5", "--tol", "inf"),
)
_NEAR_ONE = (
    ("--case", "value-at-one", "--a", "0.5", "--b", "0.5", "--c", "2"),
    ("--case", "zero-balanced", "--a", "0.5", "--b", "0.5", "--x", "0.99"),
    ("--case", "euler", "--a", "0.7", "--b", "0.9", "--c", "1.2", "--x", "0.5"),
)
_CLASSIFY = (
    ("--a", "0.9", "--b", "0.5", "--m", "0"),
    ("--a", "0.3", "--b", "0.1", "--m", "1.2"),
    ("--a", "1/4", "--b", "1/4", "--m", "1/2"),
    ("--a", "0.9", "--b", "0.5", "--m", "0.95", "--rational"),
    ("--a", "0.9", "--b", "0.5", "--m", "0.95", "--fuzz"),
    ("--a", "9/10", "--b", "1/2", "--m", "19/20", "--fuzz"),
    # A branch tag with a comma in it, next to the E- one above.
    ("--a", "0.9", "--b", "0.5", "--m", "1.2", "--fuzz"),
    # A finite b so large that 1 + 2b overflows in m0 = (a + 2b)/(1 + 2b).
    ("--a", "0.5", "--b", "1e308", "--m", "0.5"),
)
_MEAN = (
    ("--a", "0.5", "--b", "0.5", "--x", "1", "--y", "2"),
    ("--a", "0.3", "--b", "1.5", "--x", "3", "--y", "0.5", "--method", "quadrature"),
    ("--a", "0.5", "--b", "0.5", "--x", "1", "--y", "2", "--method", "both"),
    ("--a", "0.7", "--b", "0.8", "--x", "2", "--y", "2", "--method", "both", "--tol", "1e-9"),
    ("--a", "0.5", "--b", "1e-13", "--x", "1", "--y", "2"),
    ("--a", "0.3", "--b", "0.45", "--x", "1", "--y", "1e6", "--method", "series"),
    # Large ratios, where the integrand (lo + s(hi - lo))^a turns at
    # s = lo/(hi - lo), close to the weight's singular endpoint.
    ("--a", "0.5", "--b", "0.1", "--x", "1", "--y", "100", "--method", "quadrature"),
    ("--a", "0.5", "--b", "0.3", "--x", "1", "--y", "1000", "--method", "both"),
    ("--a", "0.5", "--b", "0.6", "--x", "1", "--y", "10000", "--method", "quadrature"),
    # Large b, where the rule's scale 4^-b and B(b, b) underflow to 0.
    ("--a", "0.5", "--b", "600", "--x", "1", "--y", "3", "--method", "quadrature"),
    # Small a, where M = hi F^(1/a) magnifies F's error by about 1/a: the
    # true mean is 1.45710678118659 at each.  These pin today's output.
    ("--a", "1e-12", "--b", "0.5", "--x", "1", "--y", "2", "--method", "both"),
    ("--a", "1e-16", "--b", "0.5", "--x", "1", "--y", "2", "--method", "both"),
    ("--a", "1e-18", "--b", "0.5", "--x", "1", "--y", "2", "--method", "both"),
)
_GM_SCAN = (
    ("--a", "0.9", "--b", "0.5", "--m", "0"),
    ("--a", "0.9", "--b", "0.5", "--m", "0.97"),
    ("--a", "0.2", "--b", "0.6", "--m", "1.4", "--tgrid", "0.1, 0.5,0.9", "--sign-tol", "1e-6"),
    ("--a", "0.5", "--b", "0.5", "--m", "0.8"),
)
_QPROFILE = (
    ("--a", "0.9", "--b", "0.4", "--tgrid", "0.2,0.5,0.8"),
    ("--a", "0.3", "--b", "1.1"),
    ("--a", "0.9", "--b", "0.4"),
)
_VERIFY = (
    ("--suite", "special-cases", "--seed", "42"),
    ("--suite", "mean", "--seed", "3"),
    ("--suite", "recurrence", "--seed", "42"),
    ("--suite", "corollaries", "--seed", "42"),
    ("--suite", "regions", "--seed", "42"),
    ("--suite", "monotone-ratio", "--seed", "42"),
    # The whole run: its header and summary line, and every suite in order.
    ("--suite", "all", "--seed", "42"),
)

#: Invalid invocations: (argv, env).  Every one exits 2 or 3 with empty stdout.
_FAILURES = (
    (("coeffs", "--a", "1", "--b", "1", "--c", "-2", "--n", "4"), None),
    (("coeffs", "--a", "1", "--b", "1", "--c", "0", "--n", "4"), None),
    (("coeffs", "--a", "1", "--b", "1", "--c", "-1.999999999999999", "--n", "4"), None),
    (("coeffs", "--a", "1", "--b", "1", "--c=-3/1", "--n", "4"), None),
    (("coeffs", "--a", "1", "--b", "1", "--c", "2", "--theta", "1.5", "--n", "4"), None),
    (("coeffs", "--a", "1", "--b", "1", "--c", "2", "--theta=-3/2", "--family", "oracle"), None),
    (("coeffs", "--a", "1", "--b", "1", "--c", "2", "--n", "10001"), None),
    (("coeffs", "--a", "1", "--b", "1", "--c", "2", "--n", "-1"), None),
    (("coeffs", "--a", "1", "--b", "1", "--c", "2", "--p", "2", "--family", "log"), None),
    (("coeffs", "--a", "1", "--b", "1", "--c", "2", "--theta", "0.5", "--family", "theta1"), None),
    (("coeffs", "--a", "1", "--b", "1", "--c", "2", "--theta", "1", "--family", "theta-1"), None),
    (("coeffs", "--a", "1/0", "--b", "1", "--c", "2"), None),
    (("eval", "--a", "one", "--b", "1", "--c", "2", "--x", "0.5"), None),
    (("eval", "--a", "1", "--b", "1", "--c", "-1.0000000000001", "--x", "0.5"), None),
    (("eval", "--a", "1", "--b", "1", "--c", "2", "--x", "1.5"), None),
    (("eval", "--a", "1", "--b", "1", "--c", "2", "--x", "1", "--deriv"), None),
    (("eval", "--a", "1", "--b", "1", "--c", "2", "--x=-1"), None),
    (("eval", "--a", "1", "--b", "1", "--c", "2", "--x", "0.5", "--rational"), None),
    # Past the term cap.
    (("eval", "--a", "0.5", "--b", "0.5", "--c", "1", "--x", "0.9999"), None),
    (("near-one", "--case", "value-at-one", "--a", "0.5", "--b", "0.5", "--c", "1"), None),
    (("near-one", "--case", "value-at-one", "--a", "0.5", "--b", "0.5"), None),
    (("near-one", "--case", "value-at-one", "--a", "0.5", "--b", "0.5", "--c", "-4"), None),
    (("near-one", "--case", "value-at-one", "--a", "0.5", "--b", "0.7", "--c", "1"), None),
    (("near-one", "--case", "zero-balanced", "--a", "0.5", "--b", "0.5"), None),
    (("near-one", "--case", "zero-balanced", "--a", "0.5", "--b", "0.5", "--x", "1.5"), None),
    (("near-one", "--case", "zero-balanced", "--a", "-0.5", "--b", "0.5", "--x", "0.9"), None),
    (("near-one", "--case", "zero-balanced", "--a", "0", "--b", "0.5", "--x", "0.9"), None),
    (("near-one", "--case", "zero-balanced", "--a", "0.5", "--b", "0.5", "--x", "0"), None),
    (("near-one", "--case", "euler", "--a", "0.7", "--b", "0.9", "--c", "1.2"), None),
    (("near-one", "--case", "euler", "--a", "0.7", "--b", "0.9", "--c", "1.2", "--x", "1"), None),
    (("near-one", "--case", "euler", "--a", "0.7", "--b", "0.9", "--c", "1.2", "--x=-1.5"), None),
    # A malformed literal in a flag that the case ignores.
    (("near-one", "--case", "zero-balanced", "--a", "0.5", "--b", "0.5", "--x", "0.99", "--c", "bogus"), None),
    (("near-one", "--case", "value-at-one", "--a", "0.5", "--b", "0.5", "--c", "2", "--x", "bogus"), None),
    (("classify", "--a", "1.5", "--b", "0.5", "--m", "0"), None),
    (("classify", "--a", "0.5", "--b=-1/2", "--m", "0"), None),
    (("classify", "--a", "1", "--b", "0.5", "--m", "0", "--format", "csv", "--rational"), None),
    (("mean", "--a", "0.5", "--b", "0.5", "--x", "-1", "--y", "2"), None),
    (("mean", "--a", "0.5", "--b", "0.5", "--x", "1", "--y", "0", "--method", "quadrature"), None),
    (("mean", "--a", "0", "--b", "0.5", "--x", "1", "--y", "2"), None),
    (("mean", "--a", "0.5", "--b", "0.5", "--x", "1", "--y", "2", "--rational"), None),
    # A b so large that ln Gamma(b) overflows, far past B(b, b)'s underflow.
    (("mean", "--a", "0.5", "--b", "1e308", "--x", "1", "--y", "2", "--method", "quadrature"), None),
    # The quadrature's (I/B)^(1/a) overflows a double at a tiny a: exit 3,
    # where a bare OverflowError once exited 1.
    (("mean", "--a", "1e-300", "--b", "0.5", "--x", "1", "--y", "2", "--method", "both"), None),
    (("gm-scan", "--a", "0.9", "--b", "0.5", "--m", "0", "--tgrid", "0,0.5"), None),
    (("gm-scan", "--a", "0.9", "--b", "0.5", "--m", "0", "--tgrid", "0.5,1.5"), None),
    (("gm-scan", "--a", "0.9", "--b", "0.5", "--m", "0", "--tgrid", " , "), None),
    (("gm-scan", "--a", "1.9", "--b", "0.5", "--m", "0"), None),
    # The weight (1-t)^(1-m) overflows a double at the t = 0.999 probe: exit 3,
    # where a bare OverflowError once exited 1.
    (("gm-scan", "--a", "0.9", "--b", "0.5", "--m", "104"), None),
    (("qprofile", "--a", "0.9", "--b", "0.4", "--tgrid", "0.5,1"), None),
    (("qprofile", "--a", "0.9", "--b", "0", "--tgrid", "0.5"), None),
    (("qprofile", "--a", "0.9", "--b", "0.4", "--tgrid", "x"), None),
    (("verify", "--suite", "mean", "--rational"), None),
)

#: Invocations under variables that set the term cap and the quadrature
#: tolerance in earlier versions: (argv, env).  hyprec reads no environment,
#: so each prints what it prints without them.
_ENVIRONMENT = (
    (("eval", "--a", "0.5", "--b", "0.5", "--c", "1", "--x", "0.9"), {"HYPREC_TERM_CAP": "10"}),
    (("mean", "--a", "0.5", "--b", "0.5", "--x", "1", "--y", "2", "--method", "quadrature"), {"HYPREC_QUAD_TOL": "bogus"}),
    (("mean", "--a", "0.5", "--b", "0.5", "--x", "1", "--y", "2", "--method", "both"), {"HYPREC_QUAD_TOL": "-1"}),
)


def cases():
    """(case id, argv, env) for the whole matrix, in a fixed order."""
    out = []
    groups = (
        ("coeffs", _COEFFS),
        ("eval", _EVAL),
        ("near-one", _NEAR_ONE),
        ("classify", _CLASSIFY),
        ("mean", _MEAN),
        ("gm-scan", _GM_SCAN),
        ("qprofile", _QPROFILE),
        ("verify", _VERIFY),
    )
    for command, variants in groups:
        for flags in variants:
            for fmt in FORMATS:
                argv = (command, *flags, "--format", fmt)
                out.append((" ".join(argv), argv, None))
    for argv, env in _FAILURES + _ENVIRONMENT:
        prefix = " ".join(f"{k}={v}" for k, v in sorted((env or {}).items()))
        out.append(((prefix + " " if prefix else "") + " ".join(argv), argv, env))
    return out


def run_case(argv, env, capsys=None):
    """Run one invocation in process; returns (exit code, stdout)."""
    saved = {k: os.environ.get(k) for k in (env or {})}
    os.environ.update(env or {})
    try:
        if capsys is not None:
            code = main(list(argv))
            return code, capsys.readouterr().out
        import contextlib
        import io

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        return code, buf.getvalue()
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


@functools.lru_cache(maxsize=None)
def _expected():
    return json.loads(GOLDEN.read_text())


_CASES = cases()


def test_matrix_matches_golden_ids():
    assert [case_id for case_id, _, _ in _CASES] == list(_expected())


@pytest.mark.parametrize("case_id,argv,env", _CASES, ids=[c[0] for c in _CASES])
def test_golden(case_id, argv, env, capsys):
    expected = _expected()[case_id]
    code, out = run_case(argv, env, capsys)
    assert code == expected["exit"]
    assert out == expected["stdout"]


def _process_sample():
    """The cases ``test_golden_through_a_process`` runs: a fixed sample of the matrix.

    The first variant of each subcommand in each format (verify's is
    ``--suite special-cases --seed 42``), and one exit-2 and one exit-3 case
    of ``_FAILURES``, the latter a series past the default term cap.
    """
    firsts = {}
    for case_id, argv, env in _CASES:
        if env is None and "--format" in argv:
            firsts.setdefault((argv[0], argv[argv.index("--format") + 1]), (case_id, argv, env))
    failures = ("coeffs --a 1 --b 1 --c -2 --n 4", "eval --a 0.5 --b 0.5 --c 1 --x 0.9999")
    return list(firsts.values()) + [case for case in _CASES if case[0] in failures]


_PROCESS_CASES = _process_sample()


def test_process_sample_covers_each_subcommand_and_failure_kind():
    expected = _expected()
    assert len({argv[0] for _, argv, _ in _PROCESS_CASES}) == 8
    assert [expected[c[0]]["exit"] for c in _PROCESS_CASES] == [0] * 8 * len(FORMATS) + [2, 3]
    assert "verify --suite special-cases --seed 42 --format plain" in {c[0] for c in _PROCESS_CASES}


@pytest.mark.parametrize("case_id,argv,env", _PROCESS_CASES, ids=[c[0] for c in _PROCESS_CASES])
def test_golden_through_a_process(case_id, argv, env):
    # ``python -m hyprec`` enters through the process entry, not ``main``,
    # so its stdout bytes and exit code are checked in a fresh interpreter.
    expected = _expected()[case_id]
    proc = subprocess.run(
        [sys.executable, "-m", "hyprec", *argv],
        capture_output=True,
        env={**os.environ, **(env or {})},
        timeout=120,
    )
    assert proc.returncode == expected["exit"]
    assert proc.stdout == expected["stdout"].encode()


@pytest.mark.parametrize("argv,env", _ENVIRONMENT)
def test_the_environment_changes_nothing(argv, env, capsys):
    case_id = next(case_id for case_id, case_argv, case_env in _CASES if (case_argv, case_env) == (argv, env))
    expected = _expected()[case_id]
    assert run_case(argv, None, capsys) == (expected["exit"], expected["stdout"])


def test_csv_rows_are_as_wide_as_their_header():
    # A field holding a comma, such as the branch tag "a+b<1,a+b<m", must be
    # quoted, or the row it sits in reads wider than its header.
    expected = _expected()
    for case_id, argv, _ in _CASES:
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else None
        if fmt != "csv" or expected[case_id]["exit"] != 0:
            continue
        header, *rows = csv.reader(io.StringIO(expected[case_id]["stdout"], newline=""))
        assert rows and all(len(row) == len(header) for row in rows), case_id


def test_failures_print_nothing():
    expected = _expected()
    for case_id, argv, _ in _CASES:
        if expected[case_id]["exit"] in (2, 3):
            assert expected[case_id]["stdout"] == "", case_id


#: The values the matrix held before internal evaluations at t >= 0.9 moved
#: to the 1 - t connection formula, for each json case that changed (the csv
#: and plain cases print the same numbers).  Keys: a scan report field, the t
#: of a near-one probe or Q profile point, or a verify record's name.
_BEFORE_CONNECTION = {
    "gm-scan --a 0.9 --b 0.5 --m 0 --format json": {
        "gm_max": 1.0146864592429472, 0.9: 0.9182722879071789,
        0.99: 1.0275639951858249, 0.999: 1.0395766571597287,
    },
    "gm-scan --a 0.9 --b 0.5 --m 0.97 --format json": {
        "gm_min": -0.042628395786707296, 0.9: -0.03823034781498724,
        0.99: -0.034891160191787396, 0.999: 0.0055818732851344866,
    },
    "gm-scan --a 0.2 --b 0.6 --m 1.4 --tgrid 0.1, 0.5,0.9 --sign-tol 1e-6 --format json": {
        "gm_min": -6.584716867415352, 0.9: -6.584716867415352,
        0.99: -45.360518230195815, 0.999: -228.50076380374537,
    },
    "qprofile --a 0.3 --b 1.1 --format json": {
        0.9: 1.0262221575072161, 0.92: 1.0338412235085708, 0.9400000000000001: 1.0453588466838768,
        0.96: 1.0648709499136382, 0.98: 1.107003472367265,
    },
    "qprofile --a 0.9 --b 0.4 --format json": {
        0.9: 1.000000000000323, 0.92: 1.0000000000006644, 0.9400000000000001: 1.0000000000013438,
        0.96: 1.0000000000012452, 0.98: 1.0000000000023326,
    },
    "verify --suite regions --seed 42 --format json": {"gm-representation-agreement": 1.481836875427689e-11},
    "verify --suite monotone-ratio --seed 42 --format json": {"q-constant-at-half-gap": 3.2307490016592055e-13},
}


def _flags(case_id):
    argv = next(argv for cid, argv, _ in _CASES if cid == case_id)
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}


@pytest.mark.parametrize("case_id", list(_BEFORE_CONNECTION))
def test_moved_values_are_no_farther_from_mpmath(case_id):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    before = _BEFORE_CONNECTION[case_id]
    now = json.loads(_expected()[case_id]["stdout"])
    if case_id.startswith("verify"):
        # A verify margin is itself a worst deviation from an exact identity.
        margins = {r["name"]: r["margin"] for r in now["results"]}
        for name, old in before.items():
            assert margins[name] <= old, name
        return
    flags = _flags(case_id)
    a, b = mpmath.mpf(float(flags["a"])), mpmath.mpf(float(flags["b"]))
    if case_id.startswith("gm-scan"):
        m = mpmath.mpf(float(flags["m"]))

        def exact(t):
            t = mpmath.mpf(t)
            return mpmath.hyp2f1(1 - a, b, 2 * b + 1, t) - (1 - t) ** (1 - m) * mpmath.hyp2f1(1 - a, b + 1, 2 * b + 1, t)

        raw = flags.get("tgrid")
        grid = DEFAULT_T_GRID if raw is None else [float(p) for p in raw.split(",") if p.strip()]
        exact_grid = [exact(t) for t in grid]
        pairs = {"gm_min": (now["gm_min"], min(exact_grid)), "gm_max": (now["gm_max"], max(exact_grid))}
        pairs.update({t: (g, exact(t)) for t, g in now["near_one"]})
    else:

        def exact(t):
            t = mpmath.mpf(t)
            ratio = mpmath.hyp2f1(a, b, 2 * b + 1, t) / mpmath.hyp2f1(a, b + 1, 2 * b + 1, t)
            return (1 - t) ** (-a / (2 * b + 1)) * ratio

        pairs = {t: (q, exact(t)) for t, q in now["q"]}
    for key, old in before.items():
        value, ref = pairs[key]
        assert abs(value - ref) <= abs(old - ref), key


def test_mean_at_ratio_1e6_matches_mpmath():
    # Exited 3 (NonConvergence) while t = 1 - 1e-6 went to the direct series.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    case_id = "mean --a 0.3 --b 0.45 --x 1 --y 1e6 --method series --format json"
    assert _expected()[case_id]["exit"] == 0
    value = float(json.loads(_expected()[case_id]["stdout"])["series"])
    a, b = mpmath.mpf(0.3), mpmath.mpf(0.45)
    ref = 10**6 * mpmath.hyp2f1(-a, b, 2 * b, 1 - mpmath.mpf(10) ** -6) ** (1 / a)
    assert abs(value - ref) <= 1e-12 * ref


@pytest.mark.parametrize(
    "case_id",
    [
        "mean --a 0.5 --b 0.1 --x 1 --y 100 --method quadrature --format json",
        "mean --a 0.5 --b 0.3 --x 1 --y 1000 --method both --format json",
        "mean --a 0.5 --b 0.6 --x 1 --y 10000 --method quadrature --format json",
    ],
)
def test_mean_quadrature_at_large_ratios_matches_mpmath(case_id):
    # Exited 3 (NonConvergence) while one Gauss-Jacobi rule spanned (0, 1).
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    assert _expected()[case_id]["exit"] == 0
    value = float(json.loads(_expected()[case_id]["stdout"])["quadrature"])
    flags = _flags(case_id)
    a, b, y = (mpmath.mpf(float(flags[k])) for k in ("a", "b", "y"))
    ref = y * mpmath.hyp2f1(-a, b, 2 * b, 1 - 1 / y) ** (1 / a)
    assert abs(value - ref) <= 1e-14 * ref


if __name__ == "__main__":
    golden = {}
    for case_id, argv, env in cases():
        code, out = run_case(argv, env)
        golden[case_id] = {"exit": code, "stdout": out}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=False) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}", file=sys.stderr)
