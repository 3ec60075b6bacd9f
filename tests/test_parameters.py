"""Parameter-domain validation: one rule, one place, one error type.

Construction-time checks, and the domain checks of the evaluation entry
points, raise ParameterError (a DomainError), which the CLI maps to exit
code 2; NonConvergence and any other DomainError stay numerical failures
(exit code 3).
"""

import math
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
    g_m,
    g_m_series_reduction_residual,
    gauss_value_at_one,
    hyp2f1,
    mean_quadrature,
    mean_series,
    schur_condition_sample,
    u_general,
    zero_balanced_asymptote,
)
from hyprec.cli import main
from hyprec.coeffrec import MAX_N
from hyprec.errors import DomainError, ParameterError
from hyprec.hypergeom import TERM_CAP_ENV, term_cap


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
    ],
    ids=["mean-a", "mean-b", "mean-b-inf", "theta", "n-negative", "n-cap", "t", "series-x", "quad-y", "schur-x"],
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
    ],
    ids=["hyp2f1-x", "value-at-one", "value-at-one-gamma-arg", "euler-x", "zero-balanced-a",
         "zero-balanced-b", "zero-balanced-x"],
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
    ],
    ids=["c-nan", "c-minus-inf", "a-nan", "classify-b-inf", "mean-x-inf"],
)
def test_non_finite_flags_exit_2(argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "not finite" in captured.err


@pytest.mark.parametrize("raw", ["abc", "1.5", "0", "-5"])
def test_bad_term_cap_is_a_parameter_error(raw, monkeypatch, capsys):
    monkeypatch.setenv(TERM_CAP_ENV, raw)
    with pytest.raises(ParameterError):
        term_cap()
    code = main(["eval", "--a", "1", "--b", "1", "--c", "2", "--x", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert TERM_CAP_ENV in captured.err


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
