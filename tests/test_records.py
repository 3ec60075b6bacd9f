"""The package's twelve frozen records, and what importing the CLI loads.

Each record keeps the behaviour callers rely on: its repr (pinned below as
literal strings, character for character), equality and hashing by its
fields, no assignment or deletion, pickle and copy round trips that do
not rerun the constructor's checks, and a rebuild field by field through
``field_setters``.  The import test pins that a fresh
``hyprec.cli`` loads none of the heavy standard-library modules that used to
cost every CLI process its cold start.
"""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hyprec import (
    CoeffSequence,
    EvalResult,
    GmScanReport,
    HypParams,
    LogProductSpec,
    MeanParams,
    Method,
    QuadResult,
    Region,
    RegionLabel,
    RegionTriple,
    WeightedSeriesSpec,
)
from hyprec._record import as_dict, field_setters
from hyprec.errors import ParameterError
from hyprec.verify import PropertyResult, VerifySummary

SRC = Path(__file__).resolve().parent.parent / "src"

THIRDS = (Fraction(1, 3), Fraction(2, 5), Fraction(3, 2))
LOG_SPEC = LogProductSpec(HypParams(1, 1, 2))
PASSED = PropertyResult("recurrence", "u-general-vs-oracle", "pass", 2.5e-15)


def _gm_report(warning):
    return GmScanReport(0.5, 0.25, 0.75, "E+", "m >= m0", 0.01, 0.2, True, None, ((0.9, 0.3), (0.99, 0.4)), warning)


#: name -> (make, make an unequal one, the repr the record printed as a frozen dataclass)
CASES = {
    "HypParams": (
        lambda: HypParams(0.5, 0.5, 1.5),
        lambda: HypParams(0.5, 0.5, 2.5),
        "HypParams(a=0.5, b=0.5, c=1.5)",
    ),
    "HypParams-derived": (
        lambda: HypParams._derived(0.5, 0.25, 1e-13),
        lambda: HypParams._derived(0.5, 0.25, 2e-13),
        "HypParams(a=0.5, b=0.25, c=1e-13)",
    ),
    "HypParams-exact": (
        lambda: HypParams(*THIRDS),
        lambda: HypParams(Fraction(1, 3), Fraction(2, 5), Fraction(5, 2)),
        "HypParams(a=Fraction(1, 3), b=Fraction(2, 5), c=Fraction(3, 2))",
    ),
    "EvalResult": (
        lambda: EvalResult(1.25, 3e-17, 7),
        lambda: EvalResult(1.25, 3e-17, 8),
        "EvalResult(value=1.25, error_bound=3e-17, terms_used=7)",
    ),
    "QuadResult": (
        lambda: QuadResult(0.5, 2e-15, 72),
        lambda: QuadResult(0.5, 3e-15, 72),
        "QuadResult(value=0.5, error_estimate=2e-15, evaluations=72)",
    ),
    "WeightedSeriesSpec": (
        lambda: WeightedSeriesSpec(HypParams(*THIRDS), Fraction(15, 2), Fraction(1)),
        lambda: WeightedSeriesSpec(HypParams(*THIRDS), Fraction(15, 2), Fraction(-1)),
        "WeightedSeriesSpec(params=HypParams(a=Fraction(1, 3), b=Fraction(2, 5), c=Fraction(3, 2)),"
        " p=Fraction(15, 2), theta=Fraction(1, 1))",
    ),
    "LogProductSpec": (
        lambda: LogProductSpec(HypParams(1, 1, 2)),
        lambda: LogProductSpec(HypParams(1, 1, 3)),
        "LogProductSpec(params=HypParams(a=1, b=1, c=2))",
    ),
    "CoeffSequence": (
        lambda: CoeffSequence(LOG_SPEC, (0, -1.0, -1.0), Method.CAUCHY_ORACLE),
        lambda: CoeffSequence(LOG_SPEC, (0, -1.0, -1.0), Method.RECURRENCE),
        "CoeffSequence(spec=LogProductSpec(params=HypParams(a=1, b=1, c=2)), coeffs=(0, -1.0, -1.0),"
        " method=<Method.CAUCHY_ORACLE: 'cauchy-oracle'>)",
    ),
    "MeanParams": (
        lambda: MeanParams(0.5, 0.25),
        lambda: MeanParams(0.25, 0.5),
        "MeanParams(a=0.5, b=0.25)",
    ),
    "RegionTriple": (
        lambda: RegionTriple(MeanParams(0.5, 0.25), 0.75),
        lambda: RegionTriple(MeanParams(0.5, 0.25), 0.5),
        "RegionTriple(mean=MeanParams(a=0.5, b=0.25), m=0.75)",
    ),
    "RegionLabel": (
        lambda: RegionLabel(Region.EPLUS, 0.5, "m >= m0"),
        lambda: RegionLabel(Region.EMINUS, 0.5, "m >= m0"),
        "RegionLabel(label=<Region.EPLUS: 'E+'>, m0=0.5, branch='m >= m0')",
    ),
    "GmScanReport": (
        lambda: _gm_report(None),
        lambda: _gm_report("no sign change"),
        "GmScanReport(a=0.5, b=0.25, m=0.75, label='E+', branch='m >= m0', gm_min=0.01, gm_max=0.2,"
        " consistent=True, sign_change_t=None, near_one=((0.9, 0.3), (0.99, 0.4)), warning=None)",
    ),
    "PropertyResult": (
        lambda: PropertyResult("recurrence", "u-general-vs-oracle", "pass", 2.5e-15),
        lambda: PropertyResult("recurrence", "u-general-vs-oracle", "pass", 2.5e-15, "slow"),
        "PropertyResult(suite='recurrence', name='u-general-vs-oracle', status='pass', margin=2.5e-15, note='')",
    ),
    "PropertyResult-note": (
        lambda: PropertyResult("mean", "series-vs-quadrature", "warn", None, "slow"),
        lambda: PropertyResult("mean", "series-vs-quadrature", "fail", None, "slow"),
        "PropertyResult(suite='mean', name='series-vs-quadrature', status='warn', margin=None, note='slow')",
    ),
    "VerifySummary": (
        lambda: VerifySummary("recurrence", 42, (PASSED,)),
        lambda: VerifySummary("recurrence", 43, (PASSED,)),
        "VerifySummary(suite='recurrence', seed=42, results=(PropertyResult(suite='recurrence',"
        " name='u-general-vs-oracle', status='pass', margin=2.5e-15, note=''),))",
    ),
}

cases = pytest.mark.parametrize("make, other, text", list(CASES.values()), ids=list(CASES))


@cases
def test_repr_is_pinned(make, other, text):
    assert repr(make()) == text


@cases
def test_equal_fields_compare_and_hash_equal(make, other, text):
    r, twin = make(), make()
    assert r is not twin
    assert r == twin and not r != twin
    assert hash(r) == hash(twin)
    assert r != other() and not r == other()


@cases
def test_hash_is_the_field_tuples_and_other_types_are_not_equal(make, other, text):
    r = make()
    values = tuple(getattr(r, name) for name in type(r).__slots__)
    assert hash(r) == hash(values)
    assert r != values
    assert r.__eq__(values) is NotImplemented
    assert r.__eq__(object()) is NotImplemented


@cases
def test_fields_cannot_be_assigned_or_deleted(make, other, text):
    r = make()
    for name in type(r).__slots__:
        with pytest.raises(AttributeError):
            setattr(r, name, 0)
        with pytest.raises(AttributeError):
            delattr(r, name)
    with pytest.raises(AttributeError):
        r.extra = 0
    assert repr(r) == text


@cases
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(make, other, text, protocol):
    r = make()
    back = pickle.loads(pickle.dumps(r, protocol))
    assert type(back) is type(r) and back == r and repr(back) == text


@cases
@pytest.mark.parametrize("how", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
def test_copy_round_trip(make, other, text, how):
    r = make()
    back = how(r)
    assert type(back) is type(r) and back == r and repr(back) == text


@cases
def test_field_setters_store_each_field_in_order(make, other, text):
    r = make()
    back = object.__new__(type(r))
    for setter, value in zip(field_setters(type(r)), as_dict(r).values(), strict=True):
        setter(back, value)
    assert back == r and repr(back) == text


def test_derived_params_survive_pickle_and_copy_without_the_public_check():
    with pytest.raises(ParameterError):
        HypParams(0.5, 0.25, 1e-13)
    derived = HypParams._derived(0.5, 0.25, 1e-13)
    for back in (pickle.loads(pickle.dumps(derived)), copy.copy(derived), copy.deepcopy(derived)):
        assert (back.a, back.b, back.c) == (0.5, 0.25, 1e-13)


def test_keyword_construction_and_default_note():
    assert PropertyResult(suite="s", name="n", status="pass", margin=None) == PropertyResult("s", "n", "pass", None, "")
    assert EvalResult(value=1.0, error_bound=0.0, terms_used=1) == EvalResult(1.0, 0.0, 1)


def test_match_takes_the_fields_positionally():
    match RegionTriple(MeanParams(0.5, 0.25), 0.75):
        case RegionTriple(MeanParams(a, b), m):
            assert (a, b, m) == (0.5, 0.25, 0.75)
        case _:
            pytest.fail("no match")


def test_as_dict_keeps_field_order_and_values():
    report = _gm_report("w")
    fields = as_dict(report)
    assert list(fields) == [
        "a", "b", "m", "label", "branch", "gm_min", "gm_max", "consistent", "sign_change_t", "near_one", "warning",
    ]
    assert fields["near_one"] == ((0.9, 0.3), (0.99, 0.4)) and fields["warning"] == "w"
    assert as_dict(PASSED) == {
        "suite": "recurrence", "name": "u-general-vs-oracle", "status": "pass", "margin": 2.5e-15, "note": "",
    }


def test_cli_import_loads_no_heavy_stdlib_module():
    """``python -S`` (no site, so nothing preloaded) imports the CLI without these."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import hyprec.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing', 'ast') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-W", "error", "-c", code, str(SRC)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
