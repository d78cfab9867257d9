"""Models, invariants, coordinate changes, minimal models."""

import random
from fractions import Fraction

import pytest

from paritykit.weierstrass import (
    CurveModel,
    Isomorphism,
    discriminant,
    invariants,
    minimal_model,
    minimal_model_at,
    parse_curve,
    transform,
)

# Reduced models as published in standard tables; each is globally minimal.
MINIMAL_CANARIES = [
    CurveModel(0, -1, 1, -10, -20),  # conductor 11
    CurveModel(1, 0, 1, 4, -6),  # 14
    CurveModel(1, 1, 1, -10, -10),  # 15
    CurveModel(0, 0, 1, 0, -7),  # 27
    CurveModel(0, 0, 0, -1, 0),  # 32
    CurveModel(0, 0, 1, -1, 0),  # 37
    CurveModel(1, -1, 0, -2, -1),  # 49
    CurveModel(0, 0, 0, -4, 0),  # 64
    CurveModel(1, 0, 1, -1, -1),  # 69
    CurveModel(1, 0, 1, 130884, -59725523),  # 897
    CurveModel(0, 0, 1, -7, 6),  # 5077
]


def random_curve(rng, span=40):
    while True:
        c = CurveModel(*(rng.randrange(-span, span + 1) for _ in range(5)))
        if discriminant(c) != 0:
            return c


def random_scale_up(rng):
    # u = 1/m scales an integral model to a larger integral one
    m = rng.choice([1, 2, 3, 5, 6])
    return Isomorphism.of(
        Fraction(1, m),
        rng.randrange(-8, 9),
        rng.randrange(-8, 9),
        rng.randrange(-8, 9),
    )


def test_parse_round_trip():
    c = parse_curve("[1,0,1,-1,-1]")
    assert c == CurveModel(1, 0, 1, -1, -1)
    assert str(c) == "[1,0,1,-1,-1]"
    assert parse_curve(" [ 0 , -1 ,1, -10, -20 ] ") == CurveModel(0, -1, 1, -10, -20)
    assert parse_curve(str(c)) == c


def test_parse_rejects_malformed():
    for bad in ("[1,2,3,4]", "[1,2,3,4,5,6]", "1,2,3,4,5", "[1,2,3,4,x]", "", "[1;2;3;4;5]"):
        with pytest.raises(ValueError):
            parse_curve(bad)


def test_invariants_conductor_11_curve():
    inv = invariants(CurveModel(0, -1, 1, -10, -20))
    assert (inv.b2, inv.b4, inv.b6, inv.b8) == (-4, -20, -79, -21)
    assert (inv.c4, inv.c6) == (496, 20008)
    assert inv.disc == -(11**5)
    assert (inv.j_num, inv.j_den) == (-122023936, 161051)


def test_invariant_identities_random():
    rng = random.Random(11)
    for _ in range(500):
        c = random_curve(rng)
        i = invariants(c)
        # recomputed from scratch as the oracle
        b2 = c.a1**2 + 4 * c.a2
        b4 = 2 * c.a4 + c.a1 * c.a3
        b6 = c.a3**2 + 4 * c.a6
        b8 = c.a1**2 * c.a6 + 4 * c.a2 * c.a6 - c.a1 * c.a3 * c.a4 + c.a2 * c.a3**2 - c.a4**2
        assert (i.b2, i.b4, i.b6, i.b8) == (b2, b4, b6, b8)
        assert 4 * i.b8 == i.b2 * i.b6 - i.b4**2
        assert i.c4**3 - i.c6**2 == 1728 * i.disc
        assert i.j_den > 0
        assert i.j_num * i.disc == i.j_den * i.c4**3


def test_transform_inverse_round_trip():
    rng = random.Random(3)
    for _ in range(300):
        c = random_curve(rng)
        iso = random_scale_up(rng)
        moved = transform(c, iso)
        assert transform(moved, iso.inverse()) == c


def test_transform_scales_invariants():
    rng = random.Random(5)
    for _ in range(200):
        c = random_curve(rng)
        iso = random_scale_up(rng)
        m = int(1 / iso.u)
        a, b = invariants(c), invariants(transform(c, iso))
        assert b.c4 == a.c4 * m**4
        assert b.c6 == a.c6 * m**6
        assert b.disc == a.disc * m**12
        assert (b.j_num, b.j_den) == (a.j_num, a.j_den)


def test_transform_identity_and_bad_u():
    c = CurveModel(1, 2, 3, 4, 5)
    assert transform(c, Isomorphism.of(1)) == c
    assert Isomorphism.of(1).is_identity()
    with pytest.raises(ValueError):
        transform(c, Isomorphism.of(0))


def test_transform_rejects_non_integral_result():
    # scaling [0,0,0,-1,0] down by u=2 would need 16 | c4
    with pytest.raises(ValueError):
        transform(CurveModel(0, 0, 0, -1, 0), Isomorphism.of(2))


def test_minimal_model_fixes_reduced_canaries():
    for c in MINIMAL_CANARIES:
        minimal, iso = minimal_model(c)
        assert minimal == c
        assert iso.is_identity()


def test_minimal_model_quartic_twist_form():
    minimal, iso = minimal_model(CurveModel(0, 0, 0, -16, 0))
    assert minimal == CurveModel(0, 0, 0, -1, 0)
    assert iso.u == 2
    assert transform(CurveModel(0, 0, 0, -16, 0), iso) == minimal


def test_minimal_discriminant_conductor_897_curve():
    c = CurveModel(1, 0, 1, 130884, -59725523)
    assert discriminant(c) == -(3**12) * 13**10 * 23


def test_minimal_model_idempotent_and_canonical():
    rng = random.Random(17)
    for base in MINIMAL_CANARIES:
        for _ in range(12):
            moved = transform(base, random_scale_up(rng))
            minimal, iso = minimal_model(moved)
            assert minimal == base
            assert transform(moved, iso) == minimal
        again, iso2 = minimal_model(minimal_model(base)[0])
        assert again == base and iso2.is_identity()


def test_minimal_model_canonical_on_random_curves():
    rng = random.Random(23)
    for _ in range(40):
        c = random_curve(rng, span=15)
        minimal, iso = minimal_model(c)
        assert transform(c, iso) == minimal
        # any further rescaling attempt must leave the model fixed
        assert minimal_model(minimal)[0] == minimal
        moved = transform(c, random_scale_up(rng))
        assert minimal_model(moved)[0] == minimal


def test_minimal_model_rejects_singular():
    with pytest.raises(ValueError):
        minimal_model(CurveModel(0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        minimal_model_at(CurveModel(1, 0, 0, 0, 0), 2)


def test_minimal_model_at_single_prime():
    c = CurveModel(0, 0, 0, -1, 0)
    # scale by u = 1/6, then strip the 2-part only
    big = transform(c, Isomorphism.of(Fraction(1, 6)))
    at2 = minimal_model_at(big, 2)
    inv = invariants(at2)
    assert inv.disc == discriminant(c) * 3**12
    assert minimal_model_at(at2, 3) == minimal_model(big)[0]
    assert minimal_model_at(c, 2) == c
    for ell in (4, -5, 1):
        with pytest.raises(ValueError, match="not a prime"):
            minimal_model_at(c, ell)
