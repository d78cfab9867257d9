"""Curve file parsing/emission and report serialization."""

import dataclasses
import json

import pytest

from paritykit.cli import run
from paritykit.congruence import check_congruence
from paritykit.io import (
    CurveRecord,
    emit_curve_file,
    emit_report,
    parse_curve_file,
    report_object,
)
from paritykit.parity import DeducedRank, parity_relation
from paritykit.weierstrass import CurveModel

E69 = CurveModel(1, 0, 1, -1, -1)
E897 = CurveModel(1, 0, 1, 130884, -59725523)

SAMPLE = """\
# two curves congruent mod 5
69a  69  [1,0,1,-1,-1]  0
897d 897 [1,0,1,130884,-59725523] 1   # trailing comment
mystery ? [0,0,1,-7,6] ?
"""


def make_report(**kwargs):
    verdict = check_congruence(E69, E897, 5)
    defaults = dict(rank1=0, rank2=1, verdict=verdict)
    defaults.update(kwargs)
    return parity_relation(E69, E897, 5, **defaults)


def test_parse_curve_file():
    records = parse_curve_file(SAMPLE.splitlines())
    assert len(records) == 3
    assert records[0] == CurveRecord("69a", E69, 69, 0)
    assert records[1].rank == 1
    assert records[2].conductor is None
    assert records[2].rank is None
    assert records[2].curve == CurveModel(0, 0, 1, -7, 6)


def test_parse_emit_round_trip():
    records = parse_curve_file(SAMPLE.splitlines())
    text = emit_curve_file(records)
    assert parse_curve_file(text.splitlines()) == records
    # emission is stable
    assert emit_curve_file(parse_curve_file(text.splitlines())) == text


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_curve_file(["69a 69 [1,0,1,-1,-1] 0", "bogus line here"])
    with pytest.raises(ValueError, match="expected 'label conductor"):
        parse_curve_file(["x 5 1,2,3,4,5 0"])
    with pytest.raises(ValueError, match=r"line 1 \(x\): malformed curve literal"):
        parse_curve_file(["x 5 [1,2] 0"])


def test_parse_rejects_singular_curve():
    with pytest.raises(ValueError, match="singular"):
        parse_curve_file(["cusp ? [0,0,0,0,0] ?"])


def test_parse_rejects_conductor_mismatch():
    with pytest.raises(ValueError, match="conductor mismatch: file says 70, computed 69"):
        parse_curve_file(["69a 70 [1,0,1,-1,-1] 0"])


def test_parse_rejects_duplicate_label():
    lines = ["a ? [1,0,1,-1,-1] 0", "# comment", "b ? [0,0,1,-7,6] ?", "a ? [1,0,1,130884,-59725523] 1"]
    with pytest.raises(ValueError, match=r"^line 4 \(a\): duplicate label, first on line 1$"):
        parse_curve_file(lines)
    # the same curve under a second label is fine
    assert len(parse_curve_file(lines[:3] + ["c ? [1,0,1,-1,-1] 0"])) == 3


def test_report_schema_shape():
    obj = report_object(make_report())
    assert list(obj) == [
        "schema_version",
        "curves",
        "p",
        "congruence",
        "sigma",
        "sigma0",
        "drop_evidence",
        "tau",
        "s1",
        "s2",
        "ranks",
        "relation",
        "hypotheses",
    ]
    assert obj["schema_version"] == "1"
    assert obj["curves"][0]["conductor"] == 69
    assert obj["curves"][1]["coefficients"] == [1, 0, 1, 130884, -59725523]
    assert obj["p"] == 5
    assert obj["congruence"]["status"] == "Verified"
    assert obj["sigma"] == [3, 5, 13, 23]
    assert obj["sigma0"] == [13]
    assert obj["s1"] == [13] and obj["s2"] == []
    assert obj["ranks"]["known"] == {"e1": 0, "e2": 1}
    assert obj["relation"] == {"holds": True, "lhs_parity": 1, "rhs_parity": 1}
    assert obj["tau"]["e1"]["13"]["tau"] == 1
    assert obj["tau"]["e2"]["13"]["parity"] == 0
    assert obj["drop_evidence"]["13"]["in_sigma0"] is True
    assert [h["id"] for h in obj["hypotheses"]][0] == "mu_plus_minus_zero"


def test_report_deduced_block():
    report = make_report(rank2=None)
    report.deduced = dataclasses.replace(
        DeducedRank("odd", 1, (1,)), curve="e2"
    )
    obj = report_object(report)
    assert obj["ranks"]["deduced"] == {
        "curve": "e2",
        "parity": "odd",
        "exact": 1,
        "candidates": [1],
    }
    assert obj["ranks"]["known"]["e2"] is None
    assert obj["relation"]["holds"] is None


def test_emit_report_byte_deterministic():
    a = emit_report(make_report())
    b = emit_report(make_report())
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a)["sigma0"] == [13]


def test_emit_report_big_integers_as_strings():
    report = make_report()
    report.congruence = dataclasses.replace(report.congruence, level=2**60 + 3)
    text = emit_report(report)
    obj = json.loads(text)
    assert obj["congruence"]["level"] == str(2**60 + 3)
    # smaller integers stay numeric, booleans stay booleans
    assert obj["congruence"]["bound"] == 6720
    assert obj["relation"]["holds"] is True


def test_cli_json_big_integers_as_strings(capsys):
    # level, bound and conductor exceed 2^53 for y^2 = x^3 - 100000007x
    big = "[0,0,0,-100000007,0]"
    assert run(["congruent", "--e1", big, "--e2", "[0,0,0,-1,0]", "-p", "3", "--json"]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["level"] == "5760000806400028224"
    assert obj["bound"] == "1920000288000010752"
    assert obj["checked_primes"] == 1 and obj["witness"] == [5, -4, -2]
    assert run(["local-info", "--curve", big, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["conductor"] == "640000089600003136"
    assert [row["ell"] for row in obj["local"]] == [2, 100000007]


def test_emit_report_valid_json_and_parseable():
    obj = json.loads(emit_report(make_report()))
    assert obj["curves"][0]["label"] == "E1"
    assert isinstance(obj["hypotheses"], list)
    assert all(set(h) == {"id", "detail"} for h in obj["hypotheses"])
