import json

import pytest

from hyprec import verify
from hyprec.cli import main
from hyprec.errors import ParameterError


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


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify.verify_driver("nonsense", 42)
    with pytest.raises(ParameterError):
        verify.verify_driver("nonsense", 42)
