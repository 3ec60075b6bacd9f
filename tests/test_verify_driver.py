import json
from fractions import Fraction

import pytest

from hyprec import verify
from hyprec.cli import main
from hyprec.coeffrec import WeightedSeriesSpec
from hyprec.errors import ParameterError
from hyprec.hypergeom import HypParams


def render(monkeypatch, capsys, summary, fmt):
    """What ``hyprec verify`` prints in the given format when its driver returns ``summary``."""
    monkeypatch.setattr(verify, "verify_driver", lambda suite, seed: summary)
    code = main(["verify", "--suite", summary.suite, "--seed", str(summary.seed), "--format", fmt])
    assert code == summary.exit_code
    return capsys.readouterr().out


def test_deterministic_rendering(verify_run, monkeypatch, capsys):
    # A fresh --suite all run against the fixture's one run per suite: the
    # two are independent, and equal output also shows that each single-suite
    # run is exactly its slice of the full run.
    fresh = verify.verify_driver("all", verify_run.seed)
    for fmt in ("plain", "json", "csv"):
        expected = render(monkeypatch, capsys, verify_run.summary(), fmt)
        assert render(monkeypatch, capsys, fresh, fmt) == expected


@pytest.mark.parametrize("suite", verify.SUITES)
def test_each_record_carries_its_suite(suite):
    summary = verify.verify_driver(suite, 42)
    assert summary.suite == suite
    assert summary.results
    assert all(r.suite == suite for r in summary.results)


def test_an_all_run_names_each_property_once():
    summary = verify.verify_driver("all", 42)
    names = [r.name for r in summary.results]
    assert len(names) == 32
    assert len(set(names)) == len(names)
    assert tuple(dict.fromkeys(r.suite for r in summary.results)) == verify.SUITES


def test_seed_changes_samples_not_correctness():
    for seed in (1, 7, 2024):
        assert verify.verify_driver("mean", seed).failures == 0


def test_json_shape(verify_run, monkeypatch, capsys):
    payload = json.loads(render(monkeypatch, capsys, verify_run.summary("recurrence"), "json"))
    assert payload["failures"] == 0
    assert payload["suite"] == "recurrence"
    assert all(set(r) == {"suite", "name", "status", "margin", "note"} for r in payload["results"])


def test_csv_shape(verify_run, monkeypatch, capsys):
    text = render(monkeypatch, capsys, verify_run.summary("mean"), "csv")
    lines = text.splitlines()
    assert lines[0] == "suite,property,status,margin,note"
    assert len(lines) >= 3


#: A summary with every status, two failures (one without a margin) and
#: notes that hold commas.
_MIXED = verify.VerifySummary("all", 7, (
    verify.PropertyResult("recurrence", "holds", "pass", 0.0, note="fine"),
    verify.PropertyResult("recurrence", "breaks", "fail", None, note="no number, so no margin"),
    verify.PropertyResult("regions", "wobbles", "warn", -0.5),
    verify.PropertyResult("regions", "differs", "note", 0.25, note="known, and kept"),
    verify.PropertyResult("regions", "breaks-too", "fail", 3.0),
))


def test_failures_and_warnings_render_in_every_format(monkeypatch, capsys):
    assert render(monkeypatch, capsys, _MIXED, "plain") == (
        "verification suite=all seed=7\n"
        "[recurrence]\n"
        "  PASS  holds                            margin=0.0\n"
        "        fine\n"
        "  FAIL  breaks                           margin=-\n"
        "        no number, so no margin\n"
        "[regions]\n"
        "  WARN  wobbles                          margin=-0.5\n"
        "  NOTE  differs                          margin=0.25\n"
        "        known, and kept\n"
        "  FAIL  breaks-too                       margin=3.0\n"
        "summary: 5 properties, 2 failures, 1 warnings\n"
    )
    assert render(monkeypatch, capsys, _MIXED, "csv") == (
        "suite,property,status,margin,note\n"
        "recurrence,holds,pass,0.0,fine\n"
        'recurrence,breaks,fail,-,"no number, so no margin"\n'
        "regions,wobbles,warn,-0.5,\n"
        'regions,differs,note,0.25,"known, and kept"\n'
        "regions,breaks-too,fail,3.0,\n"
    )
    payload = json.loads(render(monkeypatch, capsys, _MIXED, "json"))
    assert (payload["suite"], payload["seed"], payload["failures"], payload["warnings"]) == ("all", 7, 2, 1)
    assert [r["status"] for r in payload["results"]] == ["pass", "fail", "warn", "note", "fail"]
    assert payload["results"][1]["margin"] is None


def test_exit_code_is_the_failure_count_capped_at_99(monkeypatch, capsys):
    # render asserts that main returns the summary's exit code.
    assert _MIXED.exit_code == 2
    render(monkeypatch, capsys, _MIXED, "plain")
    failing = verify.PropertyResult("mean", "breaks", "fail", None)
    many = verify.VerifySummary("mean", 42, (failing,) * 120)
    assert (many.failures, many.exit_code) == (120, 99)
    assert render(monkeypatch, capsys, many, "plain").endswith("summary: 120 properties, 120 failures, 0 warnings\n")


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify.verify_driver("nonsense", 42)
    with pytest.raises(ParameterError):
        verify.verify_driver("nonsense", 42)



def _box(exact, thetas):
    """The box's specs, written out apart from verify's sampler: (a, b, c) x p x theta.

    A set: c - a - b repeats another exponent at two of the four triples.
    """
    one = Fraction(1) if exact else 1.0
    return {
        WeightedSeriesSpec(HypParams(a, b, c), p, theta)
        for a, b, c in (verify.PARAM_BOX_EXACT if exact else verify.PARAM_BOX)
        for p in (-one, 0 * one, one / 2, 2 * one, c - a - b)
        for theta in thetas
    }


def _general_calls(monkeypatch, suite):
    """The (spec, N) of each call the suite makes to verify's u_general, float and exact apart.

    A float spec and an exact one can compare equal, (1.0, 1.0, 2.0) against
    (1, 1, 2), so the two modes are told apart by the type of a.
    """
    calls = {False: [], True: []}
    general = verify.u_general

    def recorder(spec, n):
        calls[isinstance(spec.params.a, Fraction)].append((spec, n))
        return general(spec, n)

    monkeypatch.setattr(verify, "u_general", recorder)
    assert verify.verify_driver(suite, 42).failures == 0
    return calls


def test_recurrence_suite_checks_the_whole_box(monkeypatch):
    # 4 triples x 5 exponents x 5 thetas, in floats and as exact rationals.
    calls = _general_calls(monkeypatch, "recurrence")
    assert len(calls[False]) == len(calls[True]) == 100
    assert set(calls[False]) == {(spec, 30) for spec in _box(False, verify.THETAS)}
    assert set(calls[True]) == {(spec, 30) for spec in _box(True, verify.THETAS_EXACT)}


def test_corollaries_suite_checks_both_specializations_over_the_box(monkeypatch):
    # 4 triples x 5 exponents at theta = -1 and at theta = +1: N = 30 in
    # floats, N = 20 exact.
    calls = _general_calls(monkeypatch, "corollaries")
    assert len(calls[False]) == len(calls[True]) == 40
    assert set(calls[False]) == {(spec, 30) for spec in _box(False, (-1.0, 1.0))}
    assert set(calls[True]) == {(spec, 20) for spec in _box(True, (Fraction(-1), Fraction(1)))}
