"""Every committed benchmark record (``BENCH_*.json``) is well formed.

A record names the parent and change commits it compares, and per workload
and end-to-end metric the quartiles of each side.  Its workloads and metrics
must be the ones ``BENCHMARK.json`` defines, so a renamed metric or a typo
cannot leave a record that no benchmark run could reproduce.  A record may
carry a further run set (such as a confirmation on other seeds) as a nested
object with its own ``workloads``; those are checked the same way.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _run_sets(record: dict):
    """(label, workloads) for the record's own runs and every nested run set."""
    yield "top level", record["workloads"]
    for key, value in record.items():
        if isinstance(value, dict) and "workloads" in value:
            yield key, value["workloads"]


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_names_parent_and_change(path):
    record = json.loads(path.read_text())
    for side in ("parent", "change"):
        assert isinstance(record.get(side), str) and record[side].strip(), side


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_workloads_and_metrics_exist_in_benchmark(path):
    record = json.loads(path.read_text())
    for label, workloads in _run_sets(record):
        assert workloads, label
        assert set(workloads) <= WORKLOADS, (label, set(workloads) - WORKLOADS)
        for name, metrics in workloads.items():
            assert set(metrics) <= END_TO_END, (label, name, set(metrics) - END_TO_END)


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_quartiles_are_ordered(path):
    record = json.loads(path.read_text())
    for label, workloads in _run_sets(record):
        for name, metrics in workloads.items():
            for metric, entry in metrics.items():
                for side in ("parent", "change"):
                    q = entry[side]
                    assert q["q1"] <= q["median"] <= q["q3"], (label, name, metric, side)
