"""The one-parameter family sharing its mod-3 representation with y^2 = x^3 - Dx."""

import pytest

from paritykit.family import base_curve, member
from paritykit.local import is_supersingular
from paritykit.weierstrass import CurveModel, discriminant


def test_base_curve():
    assert base_curve(1) == CurveModel(0, 0, 0, -1, 0)
    assert base_curve(7) == CurveModel(0, 0, 0, -7, 0)


def test_member_at_zero_is_base():
    for D in range(1, 101):
        assert member(D, 0) == base_curve(D)


def test_member_coefficients_closed_form():
    for D, t in ((1, 1), (1, -2), (3, 5), (10, -7)):
        c = member(D, t)
        assert c.a1 == c.a2 == c.a3 == 0
        assert c.a4 == D * (27 * D**2 * t**4 - 18 * D * t**2 - 1)
        assert c.a6 == 4 * D**2 * t * (27 * D**2 * t**4 + 1)


def test_member_frozen_specialization():
    assert member(1, 207) == CurveModel(0, 0, 0, 49572222344, 41046438723984)


def test_member_sign_symmetry_in_t():
    # a4 is even in t, a6 odd
    for t in (1, 2, 5, 11):
        plus, minus = member(2, t), member(2, -t)
        assert plus.a4 == minus.a4
        assert plus.a6 == -minus.a6


def test_members_nonsingular():
    for D in range(1, 30):
        for t in range(-12, 13):
            assert discriminant(member(D, t)) != 0


def test_members_supersingular_at_3():
    for t in (0, 3, -3, 6, -6, 9, -9, 12, -12):
        assert is_supersingular(member(1, t), 3), t


def test_rejects_nonpositive_D():
    for D in (0, -1, -10):
        with pytest.raises(ValueError, match="positive"):
            base_curve(D)
        with pytest.raises(ValueError, match="positive"):
            member(D, 1)
