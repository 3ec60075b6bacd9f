import json

import pytest

from hyprec import verify
from hyprec.errors import ParameterError


def test_deterministic_rendering(verify_run):
    # A fresh --suite all run against the fixture's one run per suite: the
    # two are independent, and equal output also shows that each single-suite
    # run is exactly its slice of the full run.
    fresh = verify.verify_driver("all", verify_run.seed)
    for fmt in ("plain", "json", "csv"):
        assert verify.render(fresh, fmt) == verify.render(verify_run.summary(), fmt)


def test_seed_changes_samples_not_correctness():
    for seed in (1, 7, 2024):
        assert verify.verify_driver("mean", seed).failures == 0


def test_json_shape(verify_run):
    payload = json.loads(verify.render(verify_run.summary("recurrence"), "json"))
    assert payload["failures"] == 0
    assert payload["suite"] == "recurrence"
    assert all(set(r) == {"suite", "name", "status", "margin", "note"} for r in payload["results"])


def test_csv_shape(verify_run):
    text = verify.render(verify_run.summary("mean"), "csv")
    lines = text.splitlines()
    assert lines[0] == "suite,property,status,margin,note"
    assert len(lines) >= 3


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify.verify_driver("nonsense", 42)
    with pytest.raises(ParameterError):
        verify.verify_driver("nonsense", 42)
