import argparse
import csv
import gc
import io
import itertools
import json
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hyprec.cli import main


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_proc(*argv, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "hyprec", *argv],
        capture_output=True,
        text=True,
        env=full_env,
    )


class TestCoeffs:
    def test_csv_reference_rows(self, capsys):
        code, out, _ = run_main(
            capsys,
            "coeffs", "--a", "0.3", "--b", "0.7", "--c", "1.5",
            "--p", "2", "--theta", "0.5", "--n", "10", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,u_n"
        assert len(lines) == 12  # header + 11 coefficient rows
        assert float(lines[1].split(",")[1]) == 1.0
        assert float(lines[2].split(",")[1]) == pytest.approx(-0.86, abs=1e-15)

    def test_rational_literal_routes_exact(self, capsys):
        code, out, _ = run_main(
            capsys,
            "coeffs", "--a", "1", "--b", "1", "--c", "2",
            "--p", "1/3", "--theta", "1", "--n", "3", "--format", "csv",
        )
        assert code == 0
        values = [line.split(",")[1] for line in out.splitlines()[1:]]
        assert values[0] == "1/1"
        assert Fraction(values[1]) == Fraction(1, 6)

    def test_rational_flag_with_decimals(self, capsys):
        code, out, _ = run_main(
            capsys,
            "coeffs", "--a", "0.3", "--b", "0.7", "--c", "1.5",
            "--p", "2", "--theta", "0.5", "--n", "1", "--rational",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["coeffs"][1] == "-43/50"

    def test_families_agree(self, capsys):
        base = run_main(
            capsys,
            "coeffs", "--a", "0.3", "--b", "0.7", "--c", "1.5",
            "--p", "0.5", "--theta", "1", "--n", "8",
        )[1]
        plus = run_main(
            capsys,
            "coeffs", "--a", "0.3", "--b", "0.7", "--c", "1.5",
            "--p", "0.5", "--family", "theta1", "--n", "8",
        )[1]
        general = [float(v) for v in json.loads(base)["coeffs"]]
        reduced = [float(v) for v in json.loads(plus)["coeffs"]]
        assert general == pytest.approx(reduced, abs=1e-13)

    def test_oracle_family(self, capsys):
        code, out, _ = run_main(
            capsys,
            "coeffs", "--a", "0.3", "--b", "0.7", "--c", "1.5",
            "--p", "2", "--theta", "0.5", "--n", "6", "--family", "oracle",
        )
        assert code == 0
        assert json.loads(out)["method"] == "cauchy-oracle"

    def test_log_family_rejects_p(self, capsys):
        code, _, err = run_main(
            capsys,
            "coeffs", "--a", "1", "--b", "1", "--c", "2",
            "--p", "2", "--family", "log",
        )
        assert code == 2
        assert "log-product" in err

    def test_log_family_values(self, capsys):
        code, out, _ = run_main(
            capsys,
            "coeffs", "--a", "1", "--b", "1", "--c", "2", "--family", "log",
            "--n", "3", "--format", "csv",
        )
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert values == pytest.approx([0.0, -1.0, -1.0, -11 / 12], abs=1e-14)


class TestValidation:
    def test_invalid_c_exits_2(self, capsys):
        code, _, err = run_main(
            capsys, "coeffs", "--a", "1", "--b", "1", "--c", "-2", "--n", "4"
        )
        assert code == 2
        assert "negative integer" in err

    def test_near_integer_c_rejected(self, capsys):
        code, _, err = run_main(
            capsys, "coeffs", "--a", "1", "--b", "1", "--c", "-1.999999999999999", "--n", "4"
        )
        assert code == 2

    def test_theta_range(self, capsys):
        code, _, err = run_main(
            capsys,
            "coeffs", "--a", "1", "--b", "1", "--c", "2", "--theta", "1.5", "--n", "4",
        )
        assert code == 2
        assert "theta" in err

    def test_n_cap(self, capsys):
        code, _, err = run_main(
            capsys, "coeffs", "--a", "1", "--b", "1", "--c", "2", "--n", "10001"
        )
        assert code == 2
        assert "cap" in err

    def test_mean_params_validated(self, capsys):
        code, _, err = run_main(
            capsys, "classify", "--a", "1.5", "--b", "0.5", "--m", "0"
        )
        assert code == 2
        assert "(0, 1)" in err

    def test_rational_rejected_outside_supported(self, capsys):
        code, _, err = run_main(
            capsys,
            "mean", "--a", "0.5", "--b", "0.5", "--x", "1", "--y", "2", "--rational",
        )
        assert code == 2
        assert "--rational" in err

    def test_out_of_disc_x_exits_2(self, capsys):
        code, _, err = run_main(
            capsys, "eval", "--a", "1", "--b", "1", "--c", "2", "--x", "1.5"
        )
        assert code == 2
        assert "|x| < 1" in err

    def test_numerical_failure_exits_3(self, capsys):
        code, _, err = run_main(
            capsys, "eval", "--a", "0.5", "--b", "0.5", "--c", "1", "--x", "0.9999"
        )
        assert code == 3
        assert "numerical failure" in err

    def test_bad_literal(self, capsys):
        code, _, err = run_main(
            capsys, "eval", "--a", "one", "--b", "1", "--c", "2", "--x", "0.5"
        )
        assert code == 2


class TestEvalAndNearOne:
    def test_eval_json(self, capsys):
        code, out, _ = run_main(
            capsys, "eval", "--a", "1", "--b", "1", "--c", "2", "--x", "0.5"
        )
        assert code == 0
        payload = json.loads(out)
        assert float(payload["value"]) == pytest.approx(1.3862943611198906, abs=1e-12)
        assert payload["terms_used"] > 1

    def test_eval_derivative(self, capsys):
        code, out, _ = run_main(
            capsys,
            "eval", "--a", "0.3", "--b", "0.7", "--c", "1.5", "--x", "0", "--deriv",
        )
        assert code == 0
        assert float(json.loads(out)["value"]) == pytest.approx(0.14, abs=1e-15)

    def test_near_one_value(self, capsys):
        code, out, _ = run_main(
            capsys,
            "near-one", "--case", "value-at-one", "--a", "0.5", "--b", "0.5", "--c", "2",
        )
        assert code == 0
        import math

        assert float(json.loads(out)["value"]) == pytest.approx(4 / math.pi, abs=1e-12)

    def test_near_one_zero_balanced_requires_x(self, capsys):
        code, _, err = run_main(
            capsys, "near-one", "--case", "zero-balanced", "--a", "0.5", "--b", "0.5"
        )
        assert code == 2
        assert "--x" in err

    def test_near_one_euler(self, capsys):
        code, out, _ = run_main(
            capsys,
            "near-one", "--case", "euler", "--a", "0.7", "--b", "0.9", "--c", "1.2",
            "--x", "0.5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == "euler"
        direct = run_main(
            capsys, "eval", "--a", "0.7", "--b", "0.9", "--c", "1.2", "--x", "0.5"
        )[1]
        assert float(payload["value"]) == pytest.approx(
            float(json.loads(direct)["value"]), abs=1e-10
        )

    def test_near_one_gauss_domain_error(self, capsys):
        code, _, err = run_main(
            capsys,
            "near-one", "--case", "value-at-one", "--a", "0.5", "--b", "0.5", "--c", "1",
        )
        assert code == 2
        assert "c > a+b" in err


class TestExitCodes:
    """Overflow in a double is a numerical failure (exit 3), never an internal error (exit 1)."""

    #: near-one cases where a double overflows on the way to the value, and
    #: the quantity each error names.  All but the last exited 1 with a bare
    #: OverflowError or ZeroDivisionError, and the last printed inf.
    NEAR_ONE_OVERFLOWS = {
        ("value-at-one", "--a", "1", "--b", "1", "--c", "1e308"):
            "ln Gamma(c) + ln Gamma(c-a-b) - ln Gamma(c-a) - ln Gamma(c-b)",
        ("zero-balanced", "--a", "1e-320", "--b", "1", "--x", "0.5"): "R(a, b)",
        ("zero-balanced", "--a", "1e-308", "--b", "1e-308", "--x", "0.5"): "R(a, b)",
        ("zero-balanced", "--a", "3", "--b", "1e300", "--x", "0.5"): "(R(a, b) - ln(1-x)) / B(a, b)",
        ("euler", "--a", "300", "--b", "300", "--c", "1", "--x", "0.999"): "(1-x)^(c-a-b)",
        ("euler", "--a", "3", "--b", "300", "--c=-0.5", "--x", "0.9"): "(1-x)^(c-a-b) F(c-a,c-b;c;x)",
    }

    @pytest.mark.parametrize("case", list(NEAR_ONE_OVERFLOWS), ids=" ".join)
    def test_near_one_overflow_exits_3_naming_the_quantity(self, case, capsys):
        code, out, err = run_main(capsys, "near-one", "--case", *case)
        assert (code, out) == (3, "")
        assert err.startswith(f"numerical failure: {self.NEAR_ONE_OVERFLOWS[case]} ")
        assert "overflows a double" in err

    #: Literals at the edges of the double range and of each parameter domain.
    EXTREMES = ("1e-320", "1e-308", "1e-300", "0.5", "3", "200", "1e300", "1e308", "-300.5", "-0.5")

    #: Each subcommand that takes a numeric literal, in each of its modes: its
    #: fixed arguments and its literal flags.  verify takes none, and its exit
    #: code counts failing properties.
    VARIANTS = (
        (("coeffs", "--n", "8"), ("a", "b", "c", "p", "theta")),
        (("coeffs", "--n", "8", "--family", "oracle"), ("a", "b", "c", "p", "theta")),
        (("coeffs", "--n", "8", "--family", "log"), ("a", "b", "c")),
        (("coeffs", "--n", "8", "--family", "theta1"), ("a", "b", "c", "p")),
        (("coeffs", "--n", "8", "--family", "theta-1"), ("a", "b", "c", "p")),
        (("eval",), ("a", "b", "c", "x")),
        (("eval", "--deriv"), ("a", "b", "c", "x")),
        (("near-one", "--case", "value-at-one"), ("a", "b", "c")),
        (("near-one", "--case", "zero-balanced"), ("a", "b", "x")),
        (("near-one", "--case", "euler"), ("a", "b", "c", "x")),
        (("classify",), ("a", "b", "m")),
        (("classify", "--fuzz"), ("a", "b", "m")),
        (("mean", "--method", "both"), ("a", "b", "x", "y")),
        (("gm-scan",), ("a", "b", "m")),
        (("qprofile",), ("a", "b")),
    )

    #: A number printed as inf or nan, in any of the three formats.
    NON_FINITE = re.compile(r"\b(inf|nan)\b", re.IGNORECASE)

    @pytest.mark.parametrize("fixed, flags", VARIANTS, ids=[" ".join(fixed) for fixed, _ in VARIANTS])
    def test_extreme_literals_never_exit_1(self, fixed, flags, capsys):
        # A fixed sample of 100 points of the grid EXTREMES ** len(flags).
        # Outside coeffs, whose float families still print inf and nan, an
        # exit of 0 also prints no non-finite number.
        grid = list(itertools.product(self.EXTREMES, repeat=len(flags)))
        internal = []
        non_finite = []
        for values in random.Random(0).sample(grid, min(100, len(grid))):
            argv = [*fixed, *(f"--{flag}={value}" for flag, value in zip(flags, values))]
            code, out, err = run_main(capsys, *argv)
            if code == 1:
                internal.append((" ".join(argv), err))
            if code == 0 and fixed[0] != "coeffs" and self.NON_FINITE.search(out):
                non_finite.append((" ".join(argv), out))
        assert internal == []
        assert non_finite == []

    #: Invocations that once printed inf at exit 0: 1/a overflows to inf at a
    #: subnormal a, and the quadrature's (integral / B(b, b))^(1/a) with it.
    NON_FINITE_AT_EXIT_0 = (
        ("mean", "--a", "1e-320", "--b", "0.5", "--x", "0.9", "--y", "1e-320", "--method", "quadrature"),
        ("mean", "--a", "1e-320", "--b", "0.5", "--x", "0.9", "--y", "1e-320", "--method", "both"),
    )

    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    @pytest.mark.parametrize("argv", NON_FINITE_AT_EXIT_0, ids=" ".join)
    def test_exit_0_prints_no_non_finite_number(self, argv, fmt, capsys):
        code, out, err = run_main(capsys, *argv, "--format", fmt)
        assert (code, out) == (3, "")
        assert "overflows a double" in err


class TestClassifyAndScans:
    def test_classify_reference_json(self, capsys):
        code, out, _ = run_main(capsys, "classify", "--a", "0.9", "--b", "0.5", "--m", "0")
        assert code == 0
        assert out == '{"branch": "a+b>=1>m", "label": "E+", "m0": 0.95}\n'

    def test_classify_rational_mode(self, capsys):
        code, out, _ = run_main(
            capsys,
            "classify", "--a", "1/4", "--b", "1/4", "--m", "1/2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["label"] == "E+"
        assert payload["branch"] == "E+:m=a+b<=1/2|E-:1/2<=m=a+b<1"
        assert payload["m0"] == "1/2"

    def test_classify_fuzz(self, capsys):
        code, out, _ = run_main(
            capsys, "classify", "--a", "0.9", "--b", "0.5", "--m", "0.95", "--fuzz"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["boundary"] is True

    def test_classify_csv_and_plain(self, capsys):
        code, out, _ = run_main(
            capsys, "classify", "--a", "0.9", "--b", "0.5", "--m", "0", "--format", "csv"
        )
        assert code == 0
        header, row = out.splitlines()
        assert header == "branch,label,m0"
        assert row == "a+b>=1>m,E+,0.95"
        code, out, _ = run_main(
            capsys, "classify", "--a", "0.9", "--b", "0.5", "--m", "0", "--format", "plain"
        )
        assert code == 0
        assert "label = E+" in out

    def test_near_one_plain_format(self, capsys):
        code, out, _ = run_main(
            capsys,
            "near-one", "--case", "euler", "--a", "0.7", "--b", "0.9", "--c", "1.2",
            "--x", "0.5", "--format", "plain",
        )
        assert code == 0
        assert out.startswith("case = euler\nvalue = ")
        assert "terms_used = " in out

    def test_gm_scan_csv(self, capsys):
        code, out, _ = run_main(
            capsys,
            "gm-scan", "--a", "0.9", "--b", "0.5", "--m", "0", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "a,b,m,label,branch,gm_min,gm_max,consistent,sign_change_t,warning"
        assert lines[1].split(",")[3] == "E+"

    @pytest.mark.parametrize(
        "a,b,m",
        [("0.9", "0.5", "0"), ("0.9", "0.5", "0.97"), ("0.2", "0.2", "0.1"), ("0.9", "0.5", "1.0")],
    )
    def test_gm_scan_csv_carries_the_json_fields(self, capsys, a, b, m):
        # Every field of the JSON report but the near-one probes, with None
        # written as "-" as plain output writes it.
        argv = ("gm-scan", "--a", a, "--b", b, "--m", m, "--format")
        _, out, _ = run_main(capsys, *argv, "csv")
        header, row = csv.reader(io.StringIO(out))
        _, payload, _ = run_main(capsys, *argv, "json")
        report = json.loads(payload)
        assert set(header) == set(report) - {"near_one"}
        fields = dict(zip(header, row))
        assert fields["consistent"] == str(report["consistent"])
        assert fields["warning"] == (report["warning"] or "-")
        sign_change = report["sign_change_t"]
        assert fields["sign_change_t"] == ("-" if sign_change is None else str(sign_change))

    def test_qprofile_constant(self, capsys):
        code, out, _ = run_main(
            capsys,
            "qprofile", "--a", "0.9", "--b", "0.4", "--tgrid", "0.2,0.5,0.8",
            "--format", "csv",
        )
        assert code == 0
        for line in out.splitlines()[1:]:
            assert float(line.split(",")[1]) == pytest.approx(1.0, abs=1e-10)

    def test_mean_both(self, capsys):
        code, out, _ = run_main(
            capsys,
            "mean", "--a", "0.5", "--b", "0.5", "--x", "1", "--y", "2",
            "--method", "both",
        )
        assert code == 0
        payload = json.loads(out)
        assert float(payload["abs_difference"]) <= 1e-8


def _script_entry():
    """The ``module:function`` the ``hyprec`` console script runs, from pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    return tomllib.loads(pyproject.read_text())["project"]["scripts"]["hyprec"]


class TestProcessEntry:
    """The process entry freezes the import-time heap; in-process ``main`` leaves the collector alone."""

    EVAL = ("eval", "--a", "0.5", "--b", "0.5", "--c", "1.5", "--x", "0.3")

    # Wraps ``hyprec.cli.main`` to report the collector's state as the
    # command starts, then runs the command through the given entry.
    PROBE = """
import gc, importlib, runpy, sys
import hyprec.cli as cli
real = cli.main
def main(argv=None):
    print(gc.get_freeze_count(), gc.isenabled(), file=sys.stderr)
    return real(argv)
cli.main = main
sys.argv = ["hyprec", *sys.argv[1:]]
entry = {entry!r}
if entry == "-m":
    runpy.run_module("hyprec", run_name="__main__", alter_sys=True)
else:
    module, _, function = entry.partition(":")
    sys.exit(getattr(importlib.import_module(module), function)())
"""

    @pytest.mark.parametrize("entry", ["-m", "script"])
    def test_entry_runs_the_command_with_the_heap_frozen(self, entry, capsys):
        spec = "-m" if entry == "-m" else _script_entry()
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE.format(entry=spec), *self.EVAL],
            capture_output=True,
            text=True,
            timeout=120,
        )
        frozen, enabled = proc.stderr.split()
        assert int(frozen) > 0
        assert enabled == "True"
        assert (proc.returncode, proc.stdout) == (main(list(self.EVAL)), capsys.readouterr().out)

    @pytest.mark.parametrize(
        "argv,code",
        [
            (EVAL, 0),
            (("eval", "--a", "one", "--b", "1", "--c", "2", "--x", "0.5"), 2),
            (("eval", "--a", "0.5", "--b", "0.5", "--c", "1", "--x", "0.9999"), 3),
        ],
    )
    def test_main_leaves_the_collector_as_it_was(self, argv, code, capsys):
        before = (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count())
        assert main(list(argv)) == code
        assert (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()) == before


class TestProcessLevel:
    def test_term_cap_env(self):
        # The cap is the constant 100000: 0.9999 fails at it, and the
        # variable that once set it neither lowers nor raises it.
        argv = ("eval", "--a", "0.5", "--b", "0.5", "--c", "1", "--x")
        for env in (None, {"HYPREC_TERM_CAP": "10"}, {"HYPREC_TERM_CAP": "1000000"}):
            proc = run_proc(*argv, "0.9999", env=env)
            assert proc.returncode == 3
            assert "within 100000 terms" in proc.stderr
        plain = run_proc(*argv, "0.9")
        lowered = run_proc(*argv, "0.9", env={"HYPREC_TERM_CAP": "10"})
        assert (lowered.returncode, lowered.stdout) == (plain.returncode, plain.stdout)
        assert plain.returncode == 0

    def test_quad_tol_env_changes_nothing(self):
        argv = ("mean", "--a", "0.5", "--b", "0.5", "--x", "1", "--y", "2", "--method", "quadrature")
        plain = run_proc(*argv)
        bogus = run_proc(*argv, env={"HYPREC_QUAD_TOL": "bogus"})
        assert (bogus.returncode, bogus.stdout) == (plain.returncode, plain.stdout)
        assert plain.returncode == 0

    def test_verify_exit_zero(self):
        proc = run_proc("verify", "--suite", "mean", "--seed", "3")
        assert proc.returncode == 0


#: Every subcommand's options as (option strings, dest, default, required,
#: choices, type name, hidden): the parser's contract, whichever way
#: ``build_parser`` states it.  "-h/--help" is argparse's own and left out.
_FORMAT_CHOICES = ("json", "csv", "plain")
_LITERAL = "_Literal"
_PARSER_CONTRACT = {
    "coeffs": {
        (("--a",), "a", None, True, None, _LITERAL, False),
        (("--b",), "b", None, True, None, _LITERAL, False),
        (("--c",), "c", None, True, None, _LITERAL, False),
        (("--p",), "p", None, False, None, _LITERAL, False),
        (("--theta",), "theta", None, False, None, _LITERAL, False),
        (("--n",), "n", 64, False, None, "int", False),
        (("--family",), "family", "general", False, ("general", "theta1", "theta-1", "log", "oracle"), None, False),
        (("--rational",), "rational", False, False, None, None, False),
        (("--format",), "format", "json", False, _FORMAT_CHOICES, None, False),
    },
    "eval": {
        (("--a",), "a", None, True, None, _LITERAL, False),
        (("--b",), "b", None, True, None, _LITERAL, False),
        (("--c",), "c", None, True, None, _LITERAL, False),
        (("--x",), "x", None, True, None, _LITERAL, False),
        (("--tol",), "tol", 1e-12, False, None, "float", False),
        (("--deriv",), "deriv", False, False, None, None, False),
        (("--rational",), "rational", False, False, None, None, True),
        (("--format",), "format", "json", False, _FORMAT_CHOICES, None, False),
    },
    "near-one": {
        (("--case",), "case", None, True, ("value-at-one", "zero-balanced", "euler"), None, False),
        (("--a",), "a", None, True, None, _LITERAL, False),
        (("--b",), "b", None, True, None, _LITERAL, False),
        (("--c",), "c", None, False, None, _LITERAL, False),
        (("--x",), "x", None, False, None, _LITERAL, False),
        (("--tol",), "tol", 1e-12, False, None, "float", False),
        (("--rational",), "rational", False, False, None, None, True),
        (("--format",), "format", "json", False, _FORMAT_CHOICES, None, False),
    },
    "classify": {
        (("--a",), "a", None, True, None, _LITERAL, False),
        (("--b",), "b", None, True, None, _LITERAL, False),
        (("--m",), "m", None, True, None, _LITERAL, False),
        (("--fuzz",), "fuzz", False, False, None, None, False),
        (("--rational",), "rational", False, False, None, None, False),
        (("--format",), "format", "json", False, _FORMAT_CHOICES, None, False),
    },
    "mean": {
        (("--a",), "a", None, True, None, _LITERAL, False),
        (("--b",), "b", None, True, None, _LITERAL, False),
        (("--x",), "x", None, True, None, _LITERAL, False),
        (("--y",), "y", None, True, None, _LITERAL, False),
        (("--method",), "method", "series", False, ("series", "quadrature", "both"), None, False),
        (("--tol",), "tol", None, False, None, "float", False),
        (("--rational",), "rational", False, False, None, None, True),
        (("--format",), "format", "json", False, _FORMAT_CHOICES, None, False),
    },
    "gm-scan": {
        (("--a",), "a", None, True, None, _LITERAL, False),
        (("--b",), "b", None, True, None, _LITERAL, False),
        (("--m",), "m", None, True, None, _LITERAL, False),
        (("--tgrid",), "tgrid", None, False, None, None, False),
        (("--tol",), "tol", 1e-12, False, None, "float", False),
        (("--sign-tol",), "sign_tol", 1e-8, False, None, "float", False),
        (("--rational",), "rational", False, False, None, None, True),
        (("--format",), "format", "json", False, _FORMAT_CHOICES, None, False),
    },
    "qprofile": {
        (("--a",), "a", None, True, None, _LITERAL, False),
        (("--b",), "b", None, True, None, _LITERAL, False),
        (("--tgrid",), "tgrid", None, False, None, None, False),
        (("--tol",), "tol", 1e-12, False, None, "float", False),
        (("--rational",), "rational", False, False, None, None, True),
        (("--format",), "format", "json", False, _FORMAT_CHOICES, None, False),
    },
    "verify": {
        (
            ("--suite",), "suite", "all", False,
            ("all", "recurrence", "corollaries", "special-cases", "mean", "regions", "monotone-ratio"),
            None, False,
        ),
        (("--seed",), "seed", 42, False, None, "int", False),
        (("--rational",), "rational", False, False, None, None, True),
        (("--format",), "format", "plain", False, _FORMAT_CHOICES, None, False),
    },
}


def _subcommands():
    """The subparsers of ``build_parser()`` by name, in the order they were added."""
    from hyprec.cli import build_parser

    parser = build_parser()
    (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return sub.choices


class TestParserContract:
    def test_subcommands(self):
        assert list(_subcommands()) == list(_PARSER_CONTRACT)

    @pytest.mark.parametrize("command", list(_PARSER_CONTRACT))
    def test_options(self, command):
        options = {
            (
                tuple(action.option_strings),
                action.dest,
                action.default,
                action.required,
                None if action.choices is None else tuple(action.choices),
                getattr(action.type, "__name__", action.type),
                action.help == argparse.SUPPRESS,
            )
            for action in _subcommands()[command]._actions
            if action.dest != "help"
        }
        assert options == _PARSER_CONTRACT[command]

    def test_option_count(self):
        assert sum(len(options) for options in _PARSER_CONTRACT.values()) == 57

    @pytest.mark.parametrize("command", list(_PARSER_CONTRACT))
    def test_help_renders(self, command, capsys):
        # argparse %-formats each help string, so a stray "%" fails here.
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.strip()

    @pytest.mark.parametrize("command", list(_PARSER_CONTRACT))
    def test_switches_take_no_value(self, command):
        switches = {action.dest for action in _subcommands()[command]._actions if action.nargs == 0}
        assert switches == {"help", "rational", *{"eval": ("deriv",), "classify": ("fuzz",)}.get(command, ())}


def test_top_level_help_lists_each_subcommand_with_its_help(capsys):
    # A subcommand's help string renders here, not in its own --help.
    from hyprec.cli import COMMANDS

    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    for name, command in COMMANDS.items():
        assert f"{name} {command.help}" in out
