"""Local data: point counts, Tate's algorithm, conductors, supersingularity."""

import random

import pytest

from paritykit.errors import ComputationLimitError
from paritykit.local import (
    LocalData,
    ReductionType,
    bad_reduction_data,
    conductor,
    count_points,
    euler_poly,
    is_supersingular,
    max_counting_prime,
    tate_local,
)
from paritykit.weierstrass import CurveModel, discriminant, minimal_model_at

E11 = CurveModel(0, -1, 1, -10, -20)
E14 = CurveModel(1, 0, 1, 4, -6)
E15 = CurveModel(1, 1, 1, -10, -10)
E27 = CurveModel(0, 0, 1, 0, -7)
E32 = CurveModel(0, 0, 0, -1, 0)
E37 = CurveModel(0, 0, 1, -1, 0)
E49 = CurveModel(1, -1, 0, -2, -1)
E64 = CurveModel(0, 0, 0, -4, 0)
E69 = CurveModel(1, 0, 1, -1, -1)
E897 = CurveModel(1, 0, 1, 130884, -59725523)
E5077 = CurveModel(0, 0, 1, -7, 6)


def brute_count(c, ell):
    """Exhaustive count on the full model, used as the counting oracle."""
    n = 1
    for x in range(ell):
        for y in range(ell):
            lhs = y * y + c.a1 * x * y + c.a3 * y
            rhs = x**3 + c.a2 * x * x + c.a4 * x + c.a6
            if (lhs - rhs) % ell == 0:
                n += 1
    return n


def good_primes(c, limit):
    d = discriminant(c)
    return [p for p in range(2, limit) if is_prime_naive(p) and d % p]


def is_prime_naive(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_count_points_matches_enumeration():
    rng = random.Random(101)
    curves = [E11, E37, E69, E897]
    for _ in range(30):
        c = CurveModel(*(rng.randrange(-6, 7) for _ in range(5)))
        if discriminant(c) != 0:
            curves.append(c)
    for c in curves:
        for ell in good_primes(c, 60):
            assert count_points(c, ell) == brute_count(c, ell), (c, ell)


def test_count_points_uses_local_minimal_model():
    # globally non-minimal at 2 but fine at 5: counting still works
    big = CurveModel(0, 0, 0, -16, 0)
    small = minimal_model_at(big, 2)
    for ell in (5, 7, 11, 13):
        assert count_points(big, ell) == count_points(small, ell)


def test_count_points_frozen_traces():
    # a_ell = ell + 1 - #E(F_ell)
    assert 5 + 1 - count_points(E69, 5) == 0
    assert 5 + 1 - count_points(E897, 5) == 0
    assert 2 + 1 - count_points(E69, 2) == 1
    assert 13 + 1 - count_points(E69, 13) == -6
    assert 37 + 1 - count_points(E32, 37) == -2
    assert 83 + 1 - count_points(E32, 83) == 0
    assert 5 + 1 - count_points(E11, 5) == 1


def test_count_points_hasse_bound_random():
    rng = random.Random(103)
    primes = [p for p in range(5, 3000) if is_prime_naive(p)]
    for _ in range(150):
        c = CurveModel(*(rng.randrange(-50, 51) for _ in range(5)))
        if discriminant(c) == 0:
            continue
        ell = rng.choice(primes)
        if discriminant(c) % ell == 0:
            continue
        a = ell + 1 - count_points(c, ell)
        assert a * a <= 4 * ell


def test_count_points_input_gates():
    with pytest.raises(ValueError, match="not a prime"):
        count_points(E11, 10)
    with pytest.raises(ValueError, match="tate_local"):
        count_points(E11, 11)


def test_counting_ceiling(monkeypatch):
    assert max_counting_prime() == 10**8
    monkeypatch.setenv("PARITYKIT_MAX_ELL", "100")
    assert max_counting_prime() == 100
    message = "prime too large for naive counting: 101 exceeds the ceiling 100"
    tate_local.cache_clear()
    try:
        for probe in (count_points, tate_local, is_supersingular):
            with pytest.raises(ComputationLimitError, match=message):
                probe(E11, 101)
    finally:
        tate_local.cache_clear()
    assert count_points(E11, 97) > 0
    monkeypatch.setenv("PARITYKIT_MAX_ELL", "4")
    with pytest.raises(ValueError):
        max_counting_prime()


def test_tate_good_prime():
    d = tate_local(E11, 7)
    assert d == LocalData(7, ReductionType.GOOD, 0, 0, -2, "I0")


def test_multiplicative_types_and_split_oracle():
    # on a nodal reduction the projective point count is ell (split)
    # or ell + 2 (nonsplit): smooth part ell -+ 1 plus the node
    cases = [
        (E11, 11),
        (E14, 2),
        (E14, 7),
        (E15, 3),
        (E15, 5),
        (E37, 37),
        (E69, 3),
        (E69, 23),
        (E897, 3),
        (E897, 13),
        (E897, 23),
        (E5077, 5077),
    ]
    for c, ell in cases:
        d = tate_local(c, ell)
        assert d.red_type.is_multiplicative
        assert d.cond_exp == 1
        assert d.kodaira == "I%d" % d.v_disc
        if ell < 200:
            projective = brute_count(c, ell)
            if d.red_type is ReductionType.SPLIT_MULTIPLICATIVE:
                assert projective == ell, (c, ell)
                assert d.trace == 1
            else:
                assert projective == ell + 2, (c, ell)
                assert d.trace == -1


def test_frozen_split_assignments():
    assert tate_local(E14, 2).red_type is ReductionType.NONSPLIT_MULTIPLICATIVE
    assert tate_local(E15, 3).red_type is ReductionType.NONSPLIT_MULTIPLICATIVE
    assert tate_local(E15, 5).red_type is ReductionType.SPLIT_MULTIPLICATIVE
    assert tate_local(E11, 11).red_type is ReductionType.SPLIT_MULTIPLICATIVE


def test_additive_types():
    d27 = tate_local(E27, 3)
    assert (d27.red_type, d27.kodaira, d27.cond_exp, d27.v_disc) == (
        ReductionType.ADDITIVE,
        "IV*",
        3,
        9,
    )
    d32 = tate_local(E32, 2)
    assert (d32.kodaira, d32.cond_exp, d32.v_disc) == ("III", 5, 6)
    d49 = tate_local(E49, 7)
    assert d49.red_type is ReductionType.ADDITIVE
    assert d49.cond_exp == 2
    d64 = tate_local(E64, 2)
    assert (d64.kodaira, d64.cond_exp, d64.v_disc) == ("I2*", 6, 12)
    for d in (d27, d32, d49, d64):
        assert d.trace == 0


def test_conductor_canaries():
    expected = {
        E11: 11,
        E14: 14,
        E15: 15,
        E27: 27,
        E32: 32,
        E37: 37,
        E49: 49,
        E64: 64,
        E69: 69,
        E897: 897,
        E5077: 5077,
    }
    for c, n in expected.items():
        assert conductor(c) == n, c


def test_conductor_model_independent():
    from paritykit.weierstrass import Isomorphism, transform
    from fractions import Fraction

    rng = random.Random(107)
    for c in (E11, E27, E64, E69):
        for _ in range(5):
            iso = Isomorphism.of(
                Fraction(1, rng.choice([1, 2, 3])),
                rng.randrange(-5, 6),
                rng.randrange(-5, 6),
                rng.randrange(-5, 6),
            )
            assert conductor(transform(c, iso)) == conductor(c)


def test_ogg_relation_on_canaries():
    # v(min disc) = f + m - 1 with m the component count determined by the type
    components = {"I0": 1, "II": 1, "III": 2, "IV": 3, "I0*": 5, "IV*": 7, "III*": 8, "II*": 9}
    for c in (E11, E14, E15, E27, E32, E37, E49, E64, E69, E897):
        for d in bad_reduction_data(c):
            k = d.kodaira
            if k.startswith("I") and k[1:].rstrip("*").isdigit() and k not in ("I0", "I0*"):
                n = int(k[1:].rstrip("*"))
                m = n if not k.endswith("*") else n + 5
            else:
                m = components[k]
            assert d.v_disc == d.cond_exp + m - 1, (c, d)


def test_bad_reduction_data():
    data = bad_reduction_data(E69)
    assert [d.ell for d in data] == [3, 23]
    assert all(d.red_type.is_multiplicative for d in data)
    assert bad_reduction_data(E69)[0].v_disc == 2


def test_supersingular():
    assert is_supersingular(E69, 5)
    assert is_supersingular(E897, 5)
    assert not is_supersingular(E11, 5)
    assert is_supersingular(E11, 19)  # a_19 = 0
    assert 19 + 1 - count_points(E11, 19) == 0
    assert is_supersingular(E32, 3)


def test_supersingular_gates():
    with pytest.raises(ValueError, match="odd prime"):
        is_supersingular(E11, 2)
    with pytest.raises(ValueError, match="odd prime"):
        is_supersingular(E11, 9)
    with pytest.raises(ValueError, match="good prime"):
        is_supersingular(E11, 11)


def test_euler_poly():
    assert euler_poly(tate_local(E11, 7)).coeffs == (1, 2, 7)
    assert euler_poly(tate_local(E11, 11)).coeffs == (1, -1)
    assert euler_poly(tate_local(E14, 2)).coeffs == (1, 1)
    assert euler_poly(tate_local(E27, 3)).coeffs == (1,)
    assert euler_poly(tate_local(E69, 13)).coeffs == (1, 6, 13)


def test_euler_poly_str():
    assert str(euler_poly(tate_local(E11, 7))) in ("1 + 2X + 7X^2", "7X^2 + 2X + 1")


def test_trace_respects_sign_convention():
    # split: a = +1 and ell - 1 points on the smooth part; spot-checked above,
    # here just the stored trace against euler_poly's linear coefficient
    for c, ell in ((E11, 7), (E69, 13), (E897, 2)):
        d = tate_local(c, ell)
        p = euler_poly(d)
        if d.red_type is ReductionType.GOOD:
            assert p.coeffs[1] == -d.trace
