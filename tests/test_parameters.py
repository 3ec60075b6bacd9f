"""Parameter-domain validation: one rule, one place, one error type.

Construction-time checks, and the domain checks of the evaluation entry
points, raise ParameterError (a DomainError), which the CLI maps to exit
code 2; NonConvergence and any other DomainError stay numerical failures
(exit code 3).
"""

import math
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from hyprec import (
    HypParams,
    euler_transform_eval,
    MeanParams,
    RegionTriple,
    WeightedSeriesSpec,
    classify_region,
    g_m,
    g_m_series_reduction_residual,
    gauss_value_at_one,
    gm_sign_scan,
    hyp2f1,
    hyp2f1_derivative,
    mean_quadrature,
    mean_series,
    q_p0_profile,
    schur_condition_sample,
    schur_grid_scan,
    u_general,
    v_log_product,
    zero_balanced_asymptote,
)
from hyprec.cli import main
from hyprec.coeffrec import MAX_N
from hyprec.errors import DomainError, ParameterError


def test_parameter_error_is_a_domain_error():
    assert issubclass(ParameterError, DomainError)


class TestHypParamsPoles:
    def test_near_pole_rejected(self):
        with pytest.raises(ParameterError):
            HypParams(1, 1, -1 + 1e-15)

    @pytest.mark.parametrize("c", [0, 0.0, -0.0, -3, -2.0, 1e-13, -5 - 5e-13])
    def test_poles_rejected(self, c):
        with pytest.raises(ParameterError):
            HypParams(1, 1, c)

    @pytest.mark.parametrize("c", [-1 + 1e-11, -0.5, 1e-11, 2.0, 3])
    def test_clear_of_poles_accepted(self, c):
        assert HypParams(1, 1, c).c == c

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, c):
        with pytest.raises(ParameterError):
            HypParams(1, 1, c)

    def test_fraction_poles_exact(self):
        with pytest.raises(ParameterError):
            HypParams(1, 1, Fraction(-2))
        tiny = Fraction(1, 10**30)
        assert HypParams(1, 1, Fraction(-1) + tiny).c == Fraction(-1) + tiny
        assert HypParams(1, 1, tiny).c == tiny


@pytest.mark.parametrize(
    "build",
    [
        lambda: MeanParams(1.5, 0.5),
        lambda: MeanParams(0.5, 0.0),
        lambda: MeanParams(0.5, math.inf),
        lambda: WeightedSeriesSpec(HypParams(1, 1, 2), 1, 1.5),
        lambda: u_general(WeightedSeriesSpec(HypParams(1, 1, 2), 1, 0.5), -1),
        lambda: u_general(WeightedSeriesSpec(HypParams(1, 1, 2), 1, 0.5), MAX_N + 1),
        lambda: g_m(1.0, RegionTriple(MeanParams(0.5, 0.5), 0.5)),
        lambda: mean_series(0.0, 1.0, MeanParams(0.5, 0.5)),
        lambda: mean_quadrature(1.0, -1.0, MeanParams(0.5, 0.5)),
        lambda: schur_condition_sample(-1.0, 1.0, RegionTriple(MeanParams(0.5, 0.5), 0.5)),
        lambda: HypParams(math.nan, 0.5, 1.5),
        lambda: HypParams(0.5, math.inf, 1.5),
        lambda: HypParams(-math.inf, 0.5, 1.5),
        lambda: u_general(WeightedSeriesSpec(HypParams(1, 1, 2), math.nan, 0.5), 8),
        lambda: v_log_product(HypParams(math.nan, 1, 2), 8),
        lambda: classify_region(RegionTriple(MeanParams(0.5, 0.5), math.nan)),
        lambda: RegionTriple(MeanParams(0.5, 0.5), math.inf),
        lambda: mean_series(math.inf, 1.0, MeanParams(0.5, 0.5)),
        lambda: mean_quadrature(1.0, math.inf, MeanParams(0.5, 0.5)),
        lambda: schur_condition_sample(1.0, math.inf, RegionTriple(MeanParams(0.5, 0.5), 0.5)),
    ],
    ids=["mean-a", "mean-b", "mean-b-inf", "theta", "n-negative", "n-cap", "t", "series-x", "quad-y", "schur-x",
         "hyp-a-nan", "hyp-b-inf", "hyp-a-minus-inf", "u-general-p-nan", "log-product-a-nan", "classify-m-nan",
         "triple-m-inf", "series-x-inf", "quad-y-inf", "schur-y-inf"],
)
def test_construction_checks_raise_parameter_error(build):
    with pytest.raises(ParameterError):
        build()


def test_mean_series_accepts_tiny_b():
    # The internal c = 2b sits within the near-pole tolerance of 0 but is no
    # pole: F(-a,b;2b;t) stays well conditioned and tends to its b -> 0 limit.
    triple = RegionTriple(MeanParams(0.5, 1e-13), 0.5)
    assert mean_series(1.0, 2.0, triple.mean) == pytest.approx(((1 + 2**0.5) / 2) ** 2, rel=1e-12)
    assert abs(g_m_series_reduction_residual(0.5, triple)) < 1e-11


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: hyp2f1(HypParams(1, 1, 2), 1.5),
        lambda: gauss_value_at_one(HypParams(0.5, 0.5, 1)),
        lambda: gauss_value_at_one(HypParams(3, -3, 1)),
        lambda: euler_transform_eval(HypParams(0.7, 0.9, 1.2), -1.0),
        lambda: zero_balanced_asymptote(0.0, 0.5, 0.9),
        lambda: zero_balanced_asymptote(0.5, -0.5, 0.9),
        lambda: zero_balanced_asymptote(0.5, 0.5, 1.0),
        lambda: hyp2f1(HypParams(0.5, 0.5, 1.5), math.nan),
        lambda: hyp2f1_derivative(HypParams(0.5, 0.5, 1.5), math.nan),
        lambda: euler_transform_eval(HypParams(0.5, 0.5, 1.5), math.nan),
    ],
    ids=["hyp2f1-x", "value-at-one", "value-at-one-gamma-arg", "euler-x", "zero-balanced-a",
         "zero-balanced-b", "zero-balanced-x", "hyp2f1-x-nan", "derivative-x-nan", "euler-x-nan"],
)
def test_evaluation_domain_checks_raise_parameter_error(evaluate):
    with pytest.raises(ParameterError):
        evaluate()


def test_t_rounding_to_one_is_a_numerical_failure(capsys):
    # y = 1e-17 is a legal argument, but t = 1 - y rounds to 1 and a + b = 1
    # keeps the mean on the direct series, which cannot answer there.
    code = main(["mean", "--a", "0.5", "--b", "0.5", "--x", "1", "--y", "1e-17"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "numerical failure" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--a", "1", "--b", "1", "--c", "nan", "--x", "0.5"),
        ("eval", "--a", "1", "--b", "1", "--c=-inf", "--x", "0.5"),
        ("eval", "--a", "nan", "--b", "1", "--c", "2", "--x", "0.5"),
        ("classify", "--a", "0.5", "--b", "inf", "--m", "0"),
        ("mean", "--a", "0.5", "--b", "0.5", "--x", "inf", "--y", "2"),
        ("near-one", "--case", "zero-balanced", "--a", "inf", "--b", "0.5", "--x", "0.99"),
        ("near-one", "--case", "zero-balanced", "--a", "0.5", "--b", "nan", "--x", "0.99"),
    ],
    ids=["c-nan", "c-minus-inf", "a-nan", "classify-b-inf", "mean-x-inf", "zero-balanced-a-inf",
         "zero-balanced-b-nan"],
)
def test_non_finite_flags_exit_2(argv, capsys):
    # The CLI parses "nan" and "inf" as floats; the library refuses them.
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "must be finite" in captured.err


#: A valid invocation of each subcommand (each near-one case apart) and
#: every numeric flag it accepts, whether or not it reads it.
_NUMERIC_INVOCATIONS = {
    "coeffs": (("coeffs",), {"a": "0.3", "b": "0.7", "c": "1.5", "p": "2", "theta": "0.5"}),
    "eval": (("eval",), {"a": "1", "b": "1", "c": "2", "x": "0.5"}),
    "value-at-one": (("near-one", "--case", "value-at-one"), {"a": "0.5", "b": "0.5", "c": "2", "x": None}),
    "zero-balanced": (("near-one", "--case", "zero-balanced"), {"a": "0.5", "b": "0.5", "c": None, "x": "0.99"}),
    "euler": (("near-one", "--case", "euler"), {"a": "0.7", "b": "0.9", "c": "1.2", "x": "0.5"}),
    "classify": (("classify",), {"a": "0.9", "b": "0.5", "m": "0"}),
    "mean": (("mean",), {"a": "0.5", "b": "0.5", "x": "1", "y": "2"}),
    "gm-scan": (("gm-scan",), {"a": "0.9", "b": "0.5", "m": "0", "tgrid": "0.5"}),
    "qprofile": (("qprofile",), {"a": "0.9", "b": "0.4", "tgrid": "0.5"}),
}


def _numeric_argv(name, **override):
    prefix, flags = _NUMERIC_INVOCATIONS[name]
    flags = {**flags, **override}
    return [*prefix, *(f"--{flag}={raw}" for flag, raw in flags.items() if raw is not None)]


@pytest.mark.parametrize("name", list(_NUMERIC_INVOCATIONS))
def test_numeric_invocations_answer(name, capsys):
    assert main(_numeric_argv(name)) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("raw", ["bogus", "1/0"])
@pytest.mark.parametrize(
    "name,flag",
    [
        (name, flag)
        for name, (_, flags) in _NUMERIC_INVOCATIONS.items()
        for flag in flags
        if flag != "tgrid"
    ],
)
def test_malformed_literal_in_any_numeric_flag_exits_2(name, flag, raw, capsys):
    # Every numeric flag is converted before the subcommand runs, so a literal
    # in a flag that the near-one case ignores is refused too.
    code = main(_numeric_argv(name, **{flag: raw}))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "cannot parse numeric literal" in captured.err


@pytest.mark.parametrize("b", [1e308, sys.float_info.max])
@pytest.mark.parametrize(
    "evaluate",
    [
        lambda mp: mean_series(1.0, 2.0, mp),
        lambda mp: g_m_series_reduction_residual(0.5, RegionTriple(mp, 0.5)),
        lambda mp: g_m(0.5, RegionTriple(mp, 0.5)),
        lambda mp: gm_sign_scan(RegionTriple(mp, 0.5), [0.5]),
        lambda mp: schur_grid_scan([mp.a], [mp.b], [0.5], [0.5]),
        lambda mp: q_p0_profile(mp, [0.5]),
    ],
    ids=["mean-series", "reduction-residual", "g-m", "gm-scan", "grid-scan", "qprofile"],
)
def test_b_whose_series_c_overflows_is_named(evaluate, b):
    # The series' c = 2b (or 2b + 1) overflows to inf from b of about 9e307;
    # the error names b, which the caller gave, not that derived c.
    with pytest.raises(ParameterError, match=re.escape(f"b={b!r} is too large")):
        evaluate(MeanParams(0.5, b))


@pytest.mark.parametrize(
    "argv",
    [
        ("mean", "--a", "0.5", "--b", "1e308", "--x", "1", "--y", "2"),
        ("gm-scan", "--a", "0.5", "--b", "1e308", "--m", "0.5"),
        ("qprofile", "--a", "0.5", "--b", "1e308"),
    ],
    ids=["mean", "gm-scan", "qprofile"],
)
def test_b_whose_series_c_overflows_exits_2(argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "b=1e+308 is too large" in captured.err
    assert "c must be finite" not in captured.err
    # classify forms no series, and answers at the same b.
    assert main(["classify", "--a", "0.5", "--b", "1e308", "--m", "0.5"]) == 0
    assert '"label": "E+"' in capsys.readouterr().out


def _scan_cell_args():
    return RegionTriple(MeanParams(0.9, 0.5), 0.0), [0.5]


@pytest.mark.parametrize("sign_tol", [-1.0, math.nan, -math.inf])
def test_negative_or_nan_sign_tol_is_a_parameter_error(sign_tol):
    # With a negative sign_tol every sampled sign would contradict the label.
    triple, grid = _scan_cell_args()
    with pytest.raises(ParameterError, match="sign_tol must be nonnegative"):
        gm_sign_scan(triple, grid, sign_tol=sign_tol)
    with pytest.raises(ParameterError, match="sign_tol must be nonnegative"):
        schur_grid_scan([0.9], [0.5], [0.0], grid, sign_tol=sign_tol)


@pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan])
@pytest.mark.parametrize(
    "evaluate",
    [
        lambda tol: hyp2f1(HypParams(1, 1, 2), 0.5, tol),
        lambda tol: mean_quadrature(1.0, 2.0, MeanParams(0.5, 0.5), tol),
        lambda tol: mean_quadrature(2.0, 2.0, MeanParams(0.5, 0.5), tol),
        lambda tol: mean_series(1.0, 2.0, MeanParams(0.5, 0.5), tol),
        lambda tol: gm_sign_scan(*_scan_cell_args(), tol=tol),
    ],
    ids=["hyp2f1", "mean-quadrature", "mean-quadrature-equal-args", "mean-series", "gm-scan"],
)
def test_tolerance_not_positive_is_a_parameter_error(evaluate, tol):
    with pytest.raises(ParameterError, match="tol must be positive"):
        evaluate(tol)


@pytest.mark.parametrize("raw", ["0", "-1", "nan", "1e-12", "inf"])
def test_cli_and_library_accept_the_same_tolerances(raw, capsys):
    def refused(evaluate):
        try:
            evaluate()
        except ParameterError:
            return True
        return False

    value = float(raw)
    refuses_tol = refused(lambda: hyp2f1(HypParams(1, 1, 2), 0.5, value))
    refuses_sign_tol = refused(lambda: gm_sign_scan(*_scan_cell_args(), sign_tol=value))
    eval_code = main(["eval", "--a", "1", "--b", "1", "--c", "2", "--x", "0.5", f"--tol={raw}"])
    scan_code = main(["gm-scan", "--a", "0.9", "--b", "0.5", "--m", "0", "--tgrid", "0.5", f"--sign-tol={raw}"])
    capsys.readouterr()
    assert (eval_code, scan_code) == (2 if refuses_tol else 0, 2 if refuses_sign_tol else 0)


def test_eval_tol_zero_exits_2(capsys):
    # The library refuses the value, so main returns 2 rather than argparse exiting.
    code = main(["eval", "--a", "1", "--b", "1", "--c", "2", "--x", "0.5", "--tol", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "tol must be positive" in captured.err


@pytest.mark.parametrize("raw", ["abc", "1.5", "0", "-5", "10"])
def test_term_cap_env_changes_nothing(raw, monkeypatch, capsys):
    # The term cap is a library constant: no value of the variable that once
    # set it, malformed or lowered, changes an output or an exit code.
    argv = ["eval", "--a", "0.5", "--b", "0.5", "--c", "1", "--x", "0.9"]
    plain = (main(argv), capsys.readouterr().out)
    monkeypatch.setenv("HYPREC_TERM_CAP", raw)
    assert (main(argv), capsys.readouterr().out) == plain
    assert plain[0] == 0


def test_import_defers_scipy_and_numpy():
    probe = "import sys, hyprec.cli; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_gm_scan_and_mean_series_load_no_scipy():
    probe = (
        "import sys; from hyprec.cli import main; "
        "main(['gm-scan', '--a', '0.3', '--b', '0.9', '--m', '0.5']); "
        "main(['mean', '--a', '0.3', '--b', '0.45', '--x', '1', '--y', '1e6']); "
        "print(sorted({'numpy', 'scipy'} & set(sys.modules)), file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert proc.stderr.strip() == "[]"


def test_quadrature_zero_balanced_and_verify_load_no_scipy():
    # The mean's quadrature and digamma are native, so no subcommand needs
    # scipy or numpy; verify --suite all runs every property, both mean
    # representations included.
    probe = (
        "import sys; from hyprec.cli import main; "
        "main(['mean', '--a', '0.5', '--b', '0.3', '--x', '1', '--y', '1000', '--method', 'both']); "
        "main(['near-one', '--case', 'zero-balanced', '--a', '0.5', '--b', '0.5', '--x', '0.99']); "
        "main(['verify', '--suite', 'all']); "
        "print(sorted({'numpy', 'scipy'} & set(sys.modules)), file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert proc.stderr.strip() == "[]"
