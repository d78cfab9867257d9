"""The record classes: named tuples with fixed fields, defaults, methods and properties.

Every record is a tuple subclass: equal to, and hashed as, the tuple of its
fields; _replace and unpickling give back the same class; repr names each
field.  Only CurveRecord has a __dict__, where its data is cached.
"""

import pickle
from fractions import Fraction

import pytest

from paritykit import (
    CongruenceVerdict,
    CurveData,
    CurveModel,
    CurveRecord,
    DeducedRank,
    DropEvidence,
    EulerPoly,
    Hypothesis,
    Invariants,
    Isomorphism,
    LocalData,
    ParityReport,
    SigmaData,
    TauRecord,
    check_congruence,
    euler_poly,
    invariants,
    parity_relation,
    tate_local,
    transform,
)

E69 = CurveModel(1, 0, 1, -1, -1)
E897 = CurveModel(1, 0, 1, 130884, -59725523)


def report():
    return parity_relation(E69, E897, 5, rank1=0, rank2=1, verdict=check_congruence(E69, E897, 5))


def check_curve_model(c):
    assert c.coefficients() == [1, 0, 1, -1, -1]
    assert str(c) == "[1,0,1,-1,-1]"


def check_isomorphism(iso):
    assert all(type(v) is Fraction for v in iso)
    assert iso.inverse() == Isomorphism.of(Fraction(1, 2), Fraction(-1, 4), 0, Fraction(-3, 8))
    assert type(iso.inverse()) is Isomorphism and iso.inverse().inverse() == iso
    assert not iso.is_identity() and Isomorphism.of(1).is_identity()
    moved = CurveModel(0, 0, 0, -1, 0)
    assert transform(transform(moved, Isomorphism.of(1, 1, 0, 3)), Isomorphism.of(1, 1, 0, 3).inverse()) == moved


def check_local_data(d):
    # 69a is split multiplicative at 3 with v_3(min disc) = 2, prime to 5, so
    # E[5] is ramified there; at its good prime 2 nothing ramifies.
    assert d.mod_p_cond_exp(5) == 1
    with pytest.raises(ValueError):
        d.mod_p_cond_exp(3)
    assert tate_local(E69, 2).mod_p_cond_exp(5) == 0


def check_euler_poly(e):
    assert str(e) == "1 - X"
    assert str(EulerPoly((1, -2, 5))) == "1 - 2X + 5X^2"
    assert str(EulerPoly((1, 1, 7))) == "1 + X + 7X^2"
    assert str(EulerPoly((1,))) == "1" and str(EulerPoly(())) == "0"


def check_drop_evidence(ev):
    assert ev.in_sigma0 is True
    assert DropEvidence(7, (), (), ()).in_sigma0 is False
    assert DropEvidence(7, ("r",), (), ()).in_sigma0 is True


def check_parity_report(r):
    assert r.parities == ((0 + len(r.s1)) % 2, (1 + len(r.s2)) % 2) == (1, 1)
    assert r._replace(ranks=(None, 1)).parities == (None, 1)
    assert (r.labels, r.deduced) == (("E1", "E2"), None)


def check_deduced_rank(d):
    assert d.curve is None
    assert DeducedRank("even", 0, (0,), "E2").curve == "E2"


def check_curve_record(rec):
    data = rec.data
    assert type(data) is CurveData and data.model == rec.curve and rec.data is data
    assert rec.__dict__ == {"data": data}
    assert "data" not in rec._replace(rank=1).__dict__


# (class, the instance under test, _fields, _field_defaults, method and property check)
CASES = [
    (CurveModel, lambda: E69, ("a1", "a2", "a3", "a4", "a6"), {}, check_curve_model),
    (Invariants, lambda: invariants(E69),
     ("b2", "b4", "b6", "b8", "c4", "c6", "disc", "j_num", "j_den"), {}, None),
    (Isomorphism, lambda: Isomorphism.of(2, 1, 0, 3), ("u", "r", "s", "t"), {}, check_isomorphism),
    (LocalData, lambda: tate_local(E69, 3),
     ("ell", "red_type", "cond_exp", "v_disc", "trace", "kodaira"), {}, check_local_data),
    (EulerPoly, lambda: euler_poly(tate_local(E69, 3)), ("coeffs",), {}, check_euler_poly),
    (CongruenceVerdict, lambda: check_congruence(E69, E897, 5),
     ("status", "level", "bound", "checked_primes", "witness", "caveat"), {}, None),
    (DropEvidence, lambda: report().sigma_data.evidence[13],
     ("ell", "e1_reasons", "e2_reasons", "warnings"), {}, check_drop_evidence),
    (SigmaData, lambda: report().sigma_data, ("p", "sigma", "sigma0", "evidence"), {}, None),
    (TauRecord, lambda: report().tau1[1], ("ell", "tau", "delta_parity", "matched_case"), {}, None),
    (Hypothesis, lambda: report().hypotheses[0], ("id", "detail"), {}, None),
    (DeducedRank, lambda: DeducedRank("odd", None, None), ("parity", "exact", "candidates", "curve"),
     {"curve": None}, check_deduced_rank),
    (ParityReport, report,
     ("curves", "conductors", "p", "sigma_data", "tau1", "tau2", "s1", "s2", "ranks", "relation_holds",
      "hypotheses", "congruence", "labels", "deduced"),
     {"labels": ("E1", "E2"), "deduced": None}, check_parity_report),
    (CurveRecord, lambda: CurveRecord("69a", E69, 69, 0), ("label", "curve", "conductor", "rank"), {},
     check_curve_record),
]


@pytest.mark.parametrize("cls, make, fields, defaults, check", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_class(cls, make, fields, defaults, check):
    record = make()
    assert type(record) is cls and isinstance(record, tuple)
    assert cls._fields == fields and tuple(getattr(record, f) for f in fields) == tuple(record)
    assert cls._field_defaults == defaults
    assert hasattr(record, "__dict__") is (cls is CurveRecord)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)

    as_tuple = tuple(record)
    assert record == as_tuple and cls(*as_tuple) == record and cls._make(as_tuple) == record
    try:
        expected_hash = hash(as_tuple)
    except TypeError:  # a dict among the fields, as in SigmaData and ParityReport
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected_hash

    same = record._replace(**{fields[0]: getattr(record, fields[0])})
    assert type(same) is cls and same == record and same is not record
    changed = record._replace(**{fields[-1]: "changed"})
    assert type(changed) is cls and changed[-1] == "changed" and changed[:-1] == record[:-1]

    shown = ", ".join("%s=%r" % (f, getattr(record, f)) for f in fields)
    assert repr(record) == "%s(%s)" % (cls.__name__, shown)

    if check is not None:
        check(record)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record

