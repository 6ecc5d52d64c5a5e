"""The report serializer: the one place that writes loose rationals as strings."""

import json
from fractions import Fraction

import pytest

from comaxlab.report import FAIL, PASS, VerificationReport
from comaxlab.seqspace import ramp

F = Fraction


def written(**fields):
    """The parsed ``to_json`` text of a passing report with the given fields."""
    return json.loads(VerificationReport(claim_id="c", status=PASS, **fields).to_json())


@pytest.mark.parametrize(
    "value, text",
    [(F(2, 4), "1/2"), (F(4, 2), "2"), (F(-1, 2), "-1/2"), (F(0), "0"), (F(1), "1")],
    ids=["2/4", "4/2", "-1/2", "0", "1"],
)
def test_fraction_is_written_in_lowest_terms(value, text):
    assert written(witnesses=[{"x": value}])["witnesses"] == [{"x": text}]


def test_fractions_are_written_inside_lists_tuples_dicts_counts_and_the_echo():
    report = written(
        counts={"exact": F(6, 4), "tally": 3},
        witnesses=[{"args": (F(1, 3), F(2, 4)), "nested": {"pair": [F(0), {"deep": F(5, 10)}]}}],
        config_echo={"grid": (F(0), F(1, 2), F(1)), "seed": 0},
    )
    assert report["counts"] == {"exact": "3/2", "tally": 3}
    assert report["witnesses"] == [
        {"args": ["1/3", "1/2"], "nested": {"pair": ["0", {"deep": "1/2"}]}}
    ]
    assert report["config_echo"] == {"grid": ["0", "1/2", "1"], "seed": 0}


def test_other_values_are_written_as_json_writes_them():
    report = written(witnesses=[{"n": 2, "ok": True, "none": None, "s": "1/2"}])
    assert report["witnesses"] == [{"n": 2, "ok": True, "none": None, "s": "1/2"}]


@pytest.mark.parametrize("value", [{F(1, 2)}, ramp(F(0))], ids=["set", "SeqFn"])
def test_a_value_json_cannot_write_is_refused(value):
    report = VerificationReport(claim_id="c", status=PASS, witnesses=[{"x": value}])
    with pytest.raises(TypeError, match="cannot serialize"):
        report.to_json()


@pytest.mark.parametrize(
    "fields",
    [
        {"counts": {"x": 0.5}},
        {"counts": {"y": float("nan")}},
        {"config_echo": {"bound": float("inf")}},
        {"witnesses": [{"pair": [F(1, 2), {"deep": (F(0), 0.25)}]}]},
        {"witnesses": [{0.5: "key"}]},
    ],
    ids=["count", "nan", "inf", "nested-in-a-witness", "key"],
)
def test_a_float_anywhere_is_refused(fields):
    report = VerificationReport(claim_id="c", status=PASS, **fields)
    with pytest.raises(TypeError, match="cannot serialize float"):
        report.to_json()


@pytest.mark.parametrize(
    "status, witnesses, message",
    [("passed", [], "unknown status 'passed'"), (FAIL, [], "a failing report must carry a witness")],
)
def test_a_report_refuses_an_unknown_status_and_a_failure_without_witness(status, witnesses, message):
    with pytest.raises(ValueError) as exc:
        VerificationReport(claim_id="c", status=status, witnesses=witnesses)
    assert str(exc.value) == message
    assert VerificationReport("c", FAIL, witnesses=[{"kind": "x"}]).counts == {}
