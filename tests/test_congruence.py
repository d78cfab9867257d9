"""Congruence verification and Sturm bounds."""

import random
from math import lcm

import pytest

import paritykit.congruence
from paritykit import arith
from paritykit.arith import factor
from paritykit.cli import run
from paritykit.congruence import (
    CongruenceStatus,
    check_congruence,
    sturm_bound,
)
from paritykit.family import base_curve, member
from paritykit.local import ReductionType, conductor, count_points, tate_local
from paritykit.weierstrass import CurveModel, discriminant

E32 = CurveModel(0, 0, 0, -1, 0)
E69 = CurveModel(1, 0, 1, -1, -1)
E897 = CurveModel(1, 0, 1, 130884, -59725523)


def naive_index(level):
    # [SL2(Z) : Gamma_0(level)] = level * prod over ell | level of (1 + 1/ell)
    index = level
    m = level
    d = 2
    while d * d <= m:
        if m % d == 0:
            index = index // d * (d + 1)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        index = index // m * (m + 1)
    return index


def test_sturm_bound_frozen_values():
    assert sturm_bound(1) == 1
    assert sturm_bound(11) == 2
    assert sturm_bound(897) == 224
    assert sturm_bound(22425) == 6720
    assert sturm_bound(288) == 96
    assert sturm_bound(55200) == 23040


def test_sturm_bound_matches_index_formula():
    rng = random.Random(31)
    for _ in range(200):
        level = rng.randrange(1, 5000)
        expected = -(-naive_index(level) // 6)
        assert sturm_bound(level) == expected, level


def test_sturm_bound_rejects_nonpositive():
    with pytest.raises(ValueError):
        sturm_bound(0)
    with pytest.raises(ValueError):
        sturm_bound(-4)


def test_verified_pair_mod_5():
    v = check_congruence(E69, E897, 5)
    assert v.status is CongruenceStatus.VERIFIED
    assert v.level == 22425
    assert v.bound == 6720
    assert v.checked_primes == 864
    assert v.witness is None
    assert "semisimplified" in v.caveat


def test_verified_pair_is_symmetric():
    v = check_congruence(E897, E69, 5)
    assert v.status is CongruenceStatus.VERIFIED
    assert (v.level, v.bound, v.checked_primes) == (22425, 6720, 864)


def test_verified_pair_mod_3_reduced_level():
    v = check_congruence(E32, member(1, 207), 3)
    assert v.status is CongruenceStatus.VERIFIED
    assert v.level == 288
    assert v.bound == 96
    assert v.checked_primes == 22
    assert v.witness is None
    assert "reduced level" in v.caveat


def test_failed_pair_has_smallest_witness():
    v = check_congruence(E69, E32, 5)
    assert v.status is CongruenceStatus.FAILED
    assert v.witness == (2, 1, 0)
    assert "mismatch at ell = 2" in v.caveat
    # swap order: compared values swap with it
    w = check_congruence(E32, E69, 5)
    assert w.status is CongruenceStatus.FAILED
    assert w.witness == (2, 0, 1)


def test_failed_witness_values_recomputable():
    v = check_congruence(E69, E32, 5)
    ell, x1, x2 = v.witness
    assert (x1 - x2) % 5 != 0
    # E69 is good at 2, E32 additive: the compared values are a_2 and 0
    assert x1 == 2 + 1 - count_points(E69, 2)
    assert tate_local(E32, 2).red_type.value == "Additive"
    assert x2 == 0


def test_failed_beyond_cap_is_still_sound():
    # level lcm(69, 32, 25) gives a bound past the scan cap; a mismatch below
    # the cap disproves congruence regardless
    v = check_congruence(E69, E32, 5)
    assert v.bound > 20000
    assert v.status is CongruenceStatus.FAILED


def test_status_witness_consistency():
    pairs = [
        (E69, E897, 5),
        (E69, E32, 5),
        (E32, member(1, 207), 3),
        (E32, member(1, 3), 3),
    ]
    for c1, c2, p in pairs:
        v = check_congruence(c1, c2, p)
        assert (v.status is CongruenceStatus.FAILED) == (v.witness is not None)
        if v.witness is not None:
            ell, x1, x2 = v.witness
            assert (x1 - x2) % p != 0
            assert ell != p


def test_rejects_bad_modulus():
    for p in (2, 4, 9, 1, 0, -5):
        with pytest.raises(ValueError, match="odd prime"):
            check_congruence(E69, E897, p)


def test_ceiling_abort_is_inconclusive(monkeypatch):
    monkeypatch.setenv("PARITYKIT_MAX_ELL", "5")
    tate_local.cache_clear()
    try:
        v = check_congruence(E69, E897, 5)
        assert v.status is CongruenceStatus.INCONCLUSIVE
        assert "aborted" in v.caveat
    finally:
        monkeypatch.undo()
        tate_local.cache_clear()


def test_family_members_congruent_to_base_mod_3():
    for t in (3, -3, 6, -6, 9, -9, 12, -12):
        v = check_congruence(E32, member(1, t), 3)
        assert v.status is CongruenceStatus.VERIFIED, t
        assert v.level == 288
        assert v.bound == 96


def reduced_conductor(c, p):
    # Reference for the reduced level, computed from the factored
    # discriminant: drop multiplicative ell != p with p | v_ell(min disc).
    n = 1
    for q, _ in factor(discriminant(c)):
        d = tate_local(c, q)
        if d.red_type is ReductionType.GOOD:
            continue
        if d.red_type.is_multiplicative and q != p and d.v_disc % p == 0:
            continue
        n *= q**d.cond_exp
    return n


def random_curve(rng):
    while True:
        c = CurveModel(rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1),
                       rng.randint(-300, 300), rng.randint(-300, 300))
        if discriminant(c) != 0:
            return c


def level_cases():
    yield E69, E897, 5
    yield E32, member(1, 207), 3
    for D in (1, 2, 5, 7, 35):
        yield base_curve(D), member(D, 3), 3
    yield base_curve(2), member(2, -6), 3
    rng = random.Random(2016)
    for p in (3, 5):
        for _ in range(25):
            yield random_curve(rng), random_curve(rng), p


def test_level_matches_lcm_of_conductors():
    reduced_seen = 0
    for c1, c2, p in level_cases():
        v = check_congruence(c1, c2, p)
        level = lcm(conductor(c1), conductor(c2), p * p)
        if sturm_bound(level) > paritykit.congruence._BOUND_CAP:
            level = lcm(reduced_conductor(c1, p), reduced_conductor(c2, p), p * p)
            reduced_seen += 1
            assert "reduced level %d" % level in v.caveat
        assert (v.level, v.bound) == (level, sturm_bound(level)), (c1, c2, p)
    assert reduced_seen >= 3


def test_level_needs_no_factoring_of_the_lcm(monkeypatch):
    def refuse(n, *args, **kwargs):
        raise AssertionError("factor(%d) called" % n)

    monkeypatch.setattr(paritykit.congruence, "factor", refuse)
    v = check_congruence(E69, E897, 5)
    assert v.status is CongruenceStatus.VERIFIED
    assert (v.level, v.bound) == (22425, 6720)


def test_readme_analyze_sieves_nothing(monkeypatch, capsys):
    # The one prime table is built at import; no request sieves again.
    def refuse(limit):
        raise AssertionError("sieve_primes(%d) called" % limit)

    monkeypatch.setattr(arith, "sieve_primes", refuse)
    monkeypatch.setattr(arith, "_factor_cache", {})
    argv = ["analyze", "--e1", "[1,0,1,-1,-1]", "--e2", "[1,0,1,130884,-59725523]",
            "-p", "5", "--rank1", "0", "--rank2", "1"]
    assert run(argv) == 0
    assert "level 22425, Sturm bound 6720" in capsys.readouterr().out


def test_scan_cap_within_prime_table():
    # The Sturm scan walks arith._PRIMES, which ends at the trial limit.
    assert paritykit.congruence._BOUND_CAP <= arith._TRIAL_LIMIT
    assert arith._PRIMES == arith.sieve_primes(arith._TRIAL_LIMIT)
