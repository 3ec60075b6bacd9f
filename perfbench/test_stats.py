"""Tests of the benchmark's own arithmetic: tail picker, self time, compare rule, tracer."""

import pytest

from perfbench import stats, tracing


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (226, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_picker_keeps_ten_samples_beyond(n, expected):
    pct = stats.pick_tail_percentile(n)
    assert pct == expected
    if pct is not None:
        assert stats.samples_beyond(n, pct) >= stats.TAIL_MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = list(range(1, 21))
    assert stats.percentile(values, 50) == 10
    assert stats.percentile(values, 95) == 19
    assert stats.percentile([5.0], 99.9) == 5.0


def _span(sid, parent, start, end, ext=0.0):
    return {"id": sid, "parent": parent, "start": start, "end": end, "ext": ext}


def test_self_time_subtracts_children_once():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),
        _span(3, 0, 6.0, 7.0),
    ]
    selfs = stats.self_times(spans)
    assert selfs == {0: pytest.approx(6.0), 1: pytest.approx(2.0), 2: pytest.approx(1.0), 3: pytest.approx(1.0)}


def test_self_time_merges_overlaps_clips_and_subtracts_ext():
    spans = [
        _span(0, None, 0.0, 10.0, ext=1.5),
        _span(1, 0, 2.0, 5.0),
        _span(2, 0, 4.0, 6.0),
        _span(3, 0, 9.0, 12.0),
    ]
    # children cover [2, 6] and [9, 10] inside the parent: 5 units
    assert stats.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.5)
    assert stats.covered(0.0, 10.0, [(2, 5), (4, 6), (9, 12)]) == pytest.approx(5.0)


def test_compare_detects_gain_regression_and_unresolved():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    faster = [v * 0.8 for v in parent]
    assert stats.compare_metric(parent, faster, "lower", 0.1)["verdict"] == "gain"
    slower = [v * 1.2 for v in parent]
    assert stats.compare_metric(parent, slower, "lower", 0.1)["verdict"] == "regression"
    assert stats.compare_metric(parent, slower, "higher", 0.1)["verdict"] == "gain"
    same = list(reversed(parent))
    assert stats.compare_metric(parent, same, "lower", 0.1)["verdict"] == "same"
    noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0, 70.0, 130.0]
    assert stats.compare_metric(parent, noisy, "lower", 0.1)["verdict"] == "unresolved"


def test_compare_needs_nine_tenths_of_pairs_for_a_gain():
    parent = [100.0] * 10
    change = [80.0] * 8 + [101.0, 101.0]
    res = stats.compare_metric(parent, change, "lower", 0.1)
    assert res["won"] == pytest.approx(0.8)
    assert res["verdict"] != "gain"


def test_tracer_wraps_consumer_bindings_and_restores_them():
    hyprec = pytest.importorskip("hyprec")
    import hyprec.schurmean as schurmean

    original = schurmean.hyp2f1
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert schurmean.hyp2f1 is not original
        mp = hyprec.MeanParams(0.5, 0.5)
        hyprec.mean_series(1.0, 2.0, mp)
        hyprec.mean_quadrature(1.0, 2.0, mp)
    finally:
        tracer.uninstall()
    assert schurmean.hyp2f1 is original
    records = tracer.records()
    names = [r["name"] for r in records]
    assert names.count("schurmean.mean_series") == 1
    hyp = next(r for r in records if r["name"] == "hypergeom.hyp2f1")
    assert names[hyp["parent"]] == "schurmean.mean_series"
    metrics = tracing.layer_metrics(records)
    assert metrics["hypergeom.hyp2f1.calls"] == 1
    assert metrics["hypergeom.hyp2f1.terms"] == hyp["terms"] > 0
    assert metrics["numkit.quad.calls"] == 1
    assert 0 < metrics["numkit.quad.useful_frac"] < 1
    assert metrics["numkit.quad.integrand_s"] > 0
    quad = next(r for r in records if r["name"] == "numkit.weighted_quad")
    assert metrics["numkit.quad.self_s"] == pytest.approx(quad["end"] - quad["start"] - quad["ext"])
    assert metrics["specfn.calls"] >= 1
