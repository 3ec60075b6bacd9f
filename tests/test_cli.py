import csv
import io
import json
import subprocess
import sys
from fractions import Fraction

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

    def test_numerical_failure_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPREC_TERM_CAP", "10")
        code, _, err = run_main(
            capsys, "eval", "--a", "0.5", "--b", "0.5", "--c", "1", "--x", "0.9"
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


class TestProcessLevel:
    def test_term_cap_env(self):
        proc = run_proc(
            "eval", "--a", "0.5", "--b", "0.5", "--c", "1", "--x", "0.9",
            env={"HYPREC_TERM_CAP": "10"},
        )
        assert proc.returncode == 3
        ok = run_proc("eval", "--a", "0.5", "--b", "0.5", "--c", "1", "--x", "0.9")
        assert ok.returncode == 0

    def test_quad_tol_env_validated(self):
        proc = run_proc(
            "mean", "--a", "0.5", "--b", "0.5", "--x", "1", "--y", "2",
            "--method", "quadrature",
            env={"HYPREC_QUAD_TOL": "bogus"},
        )
        assert proc.returncode == 2

    def test_verify_exit_zero(self):
        proc = run_proc("verify", "--suite", "mean", "--seed", "3")
        assert proc.returncode == 0
