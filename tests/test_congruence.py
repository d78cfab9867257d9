"""Congruence verification and Sturm bounds."""

import gc
import pathlib
import random
import sys
import tracemalloc
from math import lcm

import pytest

import paritykit.congruence
from paritykit import arith, local, weierstrass
from paritykit.arith import factor
from paritykit.cli import run
from paritykit.congruence import (
    CongruenceStatus,
    check_congruence,
    sturm_bound,
)
from paritykit.family import base_curve, member
from paritykit.local import CurveData, ReductionType, conductor, count_points, tate_local
from paritykit.weierstrass import CurveModel, discriminant, invariants

DATA = pathlib.Path(__file__).parent / "data"
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
    v = check_congruence(E69, E897, 5)
    assert v.status is CongruenceStatus.INCONCLUSIVE
    assert "aborted" in v.caveat


def test_additive_against_good_is_never_verified(monkeypatch):
    # 27a is additive at 3 and 32a at 2.  With every good trace forced to
    # agree, each comparison up to the bound 8640 passes, yet the scan must
    # not certify the pair at p = 5: the first such prime, 2, rules it out.
    monkeypatch.setattr(CurveData, "trace", lambda self, ell, ceiling: 0)
    v = check_congruence(CurveModel(0, 0, 1, 0, -7), E32, 5)
    assert (v.status, v.level, v.bound, v.witness) == (CongruenceStatus.INCONCLUSIVE, 21600, 8640, None)
    assert v.caveat.endswith(
        "Traces agree up to the bound, but ell = 2 is additive for one curve and good "
        "for the other, which rules out an isomorphism of mod-5 representations."
    )


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
    argv = ["analyze", "--e1", "[1,0,1,-1,-1]", "--e2", "[1,0,1,130884,-59725523]",
            "-p", "5", "--rank1", "0", "--rank2", "1"]
    assert run(argv) == 0
    assert "level 22425, Sturm bound 6720" in capsys.readouterr().out


def test_scan_cap_within_prime_table():
    # The Sturm scan walks arith._PRIMES, which ends at the trial limit.
    assert paritykit.congruence._BOUND_CAP <= arith._TRIAL_LIMIT
    assert arith._PRIMES == arith.sieve_primes(arith._TRIAL_LIMIT)


E69_NONMINIMAL = CurveModel(7, 0, 343, -2401, -117649)  # 69a scaled by u = 7


def reference_scan(c1, c2, p, limit, hits):
    """(checked primes, witness) of the comparison rules, walked with tate_local."""
    checked = 0
    for ell in arith._PRIMES:
        if ell > limit:
            break
        if ell == p:
            hits["ell = p"] += 1
            continue
        d1, d2 = tate_local(c1, ell), tate_local(c2, ell)
        good1 = d1.red_type is ReductionType.GOOD
        good2 = d2.red_type is ReductionType.GOOD
        if not good1 and not good2:
            hits["bad for both"] += 1
            continue
        a1, a2 = d1.trace, d2.trace
        if not good1 or not good2:
            bad = d2 if good1 else d1
            if bad.red_type.is_multiplicative:
                hits["multiplicative against good"] += 1
                b = bad.trace * (ell + 1)
            elif p == 3:
                hits["additive against good"] += 1
                continue
            else:
                hits["additive against good"] += 1
                b = 0
            a1, a2 = (a1, b) if good1 else (b, a2)
        checked += 1
        if (a1 - a2) % p:
            return checked, (ell, a1, a2)
    return checked, None


def reference_cases():
    yield E69, E897, 5
    yield E32, member(1, 207), 3
    yield E69_NONMINIMAL, E897, 5
    for D in (1, 2, 5, 7):
        yield base_curve(D), member(D, 3), 3
    rng = random.Random(8)
    for p in (3, 5, 7):
        for _ in range(150):
            yield random_curve(rng), random_curve(rng), p


def test_scan_matches_reference_rules():
    hits = {rule: 0 for rule in ("ell = p", "bad for both", "multiplicative against good",
                                 "additive against good")}
    for c1, c2, p in reference_cases():
        v = check_congruence(c1, c2, p)
        limit = min(v.bound, paritykit.congruence._BOUND_CAP)
        assert (v.checked_primes, v.witness) == reference_scan(c1, c2, p, limit, hits), (c1, c2, p)
    assert all(hits.values()), hits


def patch_everywhere(monkeypatch, module, name, wrapper):
    """Replace module.name in every paritykit module that binds it."""
    original = getattr(module, name)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("paritykit") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapper(original))


def recorder(seen):
    def wrap(fn):
        def wrapped(*args, **kwargs):
            seen.append(args)
            return fn(*args, **kwargs)

        return wrapped

    return wrap


def direct_primes(c1, c2, p, bound):
    """Scanned primes >= 5 other than p that divide neither discriminant."""
    d = discriminant(c1) * discriminant(c2)
    return {ell for ell in arith._PRIMES if 5 <= ell <= bound and ell != p and d % ell}


@pytest.mark.parametrize("c1, c2, p", [
    (E69, E897, 5),
    (E69_NONMINIMAL, E897, 5),
    (base_curve(5), member(5, 6), 3),
])
def test_good_primes_skip_primality_and_minimal_models(c1, c2, p, monkeypatch):
    primes, models = [], []
    patch_everywhere(monkeypatch, arith, "is_prime", recorder(primes))
    patch_everywhere(monkeypatch, weierstrass, "_minimal_at", recorder(models))
    v = check_congruence(c1, c2, p)
    assert v.status is CongruenceStatus.VERIFIED
    direct = direct_primes(c1, c2, p, v.bound)
    assert len(direct) > 100
    seen_primes = {args[0] for args in primes}
    seen_models = {args[2] for args in models}
    assert seen_models, "the recorder saw no call: the patch missed"
    assert not seen_primes & direct
    assert not seen_models & direct


def test_nonminimal_model_bad_discriminant_prime_uses_tate():
    # 7 divides the discriminant of the scaled model although the curve is
    # good there, so ell = 7 goes through Tate's algorithm.
    assert discriminant(E69_NONMINIMAL) % 7 == 0
    v = check_congruence(E69_NONMINIMAL, E897, 5)
    assert (v.status, v.level, v.bound, v.checked_primes) == (CongruenceStatus.VERIFIED, 22425, 6720, 864)
    assert tate_local(E69_NONMINIMAL, 7).red_type is ReductionType.GOOD
    assert tate_local(E69_NONMINIMAL, 7).trace == tate_local(E69, 7).trace


def test_failed_pair_counts_nothing_past_its_witness(monkeypatch):
    counted = []
    patch_everywhere(monkeypatch, local, "_count_good", recorder(counted))
    data = CurveData(E69), CurveData(CurveModel(1, 0, 1, 33, -53))
    v = check_congruence(*data, 5)
    assert v.status is CongruenceStatus.FAILED
    assert v.witness == (17, 4, -3)
    assert counted and max(args[0] for args in counted) == 17
    # the trace stores end at the witness: nothing was filled ahead
    for d in data:
        assert max(d.traces) == 17


def test_stored_traces_match_tate_local():
    data = [CurveData(c) for c in (E32, member(1, 3), member(1, 6))]
    for d2 in data[1:]:
        check_congruence(data[0], d2, 3)
    for d in data:
        assert len(d.traces) > 10
        for ell, a in d.traces.items():
            assert a == tate_local(d.model, ell).trace, (d.model, ell)


def test_traces_at_2_and_3_are_stored_like_any_good_prime(monkeypatch):
    # 11a and 37a are good at 2 and 3: the scan counts each there with one
    # kernel call, stores the traces, and runs Tate's algorithm only at the
    # primes dividing a discriminant.
    e11, e37 = CurveModel(0, -1, 1, -10, -20), CurveModel(0, 0, 1, -1, 0)
    data = CurveData(e11), CurveData(e37)
    counted, tate = [], []
    patch_everywhere(monkeypatch, local, "_count_good", recorder(counted))
    patch_everywhere(monkeypatch, local, "tate_local", recorder(tate))
    v = check_congruence(*data, 5)
    assert v.witness == (3, -1, -3)
    assert [(m, ell) for ell, m, _ in counted] == [(e11, 2), (e37, 2), (e11, 3), (e37, 3)]
    # Tate's algorithm ran once each, at 11 and at 37, on the CurveData passed in
    assert tate == [(data[0], 11), (data[1], 37)]
    for d, traces in zip(data, ([-2, -1], [-2, -3])):
        assert d.traces == dict(zip((2, 3), traces))
        assert traces == [tate_local(d.model, ell).trace for ell in (2, 3)]


def test_later_pairs_reuse_stored_traces(monkeypatch):
    counted = []
    patch_everywhere(monkeypatch, local, "_count_good", recorder(counted))
    e32, m3, m6 = (CurveData(c) for c in (E32, member(1, 3), member(1, 6)))
    first = check_congruence(e32, m3, 3)
    assert {m for _, m, _ in counted} == {e32.model, m3.model}
    counted.clear()
    second = check_congruence(e32, m6, 3)
    assert {m for _, m, _ in counted} == {m6.model}
    counted.clear()
    assert check_congruence(e32, m3, 3) == first
    assert check_congruence(m6, e32, 3).checked_primes == second.checked_primes
    assert counted == []


@pytest.mark.parametrize("argv", [
    ["analyze", "--e1", "[1,0,1,-1,-1]", "--e2", "[1,0,1,130884,-59725523]",
     "-p", "5", "--rank1", "0", "--rank2", "1"],
    ["scan", "--file", str(DATA / "family_d1.curves"), "-p", "3", "--json"],
])
def test_one_request_counts_each_trace_once(argv, monkeypatch, capsys):
    # The scan, the supersingularity gate at p and sigma0 read one trace
    # store per curve, so no (model, ell) is counted twice.
    counted = []
    patch_everywhere(monkeypatch, local, "_count_good", recorder(counted))
    assert run(argv) == 0
    capsys.readouterr()
    keys = [(m, ell) for ell, m, _ in counted]
    assert len(keys) > 100
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("argv", [
    ["scan", "--file", str(DATA / "congruent_pair.curves"), "-p", "5"],
    ["analyze", "--e1", "[1,0,1,-1,-1]", "--e2", "[1,0,1,130884,-59725523]",
     "-p", "5", "--ranks-file", str(DATA / "congruent_pair.curves")],
])
def test_stated_conductors_are_computed_once(argv, monkeypatch, capsys):
    # The file states both conductors; checking them fills the bad-prime data
    # that the request then reads, so Tate's algorithm runs once per (model, ell).
    seen = []
    patch_everywhere(monkeypatch, local, "tate_local", recorder(seen))
    assert run(argv) == 0
    capsys.readouterr()
    keys = [(getattr(c, "model", c), ell) for c, ell in seen]  # c is a CurveData or a model
    assert {ell for _, ell in keys} >= {3, 13, 23}
    assert len(keys) == len(set(keys))


def test_j1728_forms_skip_the_general_counters(monkeypatch):
    # The base curve y^2 = x^3 - 7x has B = 0 in its short form, so its traces
    # come from the j = 1728 formula.  The member's forms reach the character
    # sum below the crossover and Shanks-Mestre above it, except at the few
    # primes where their B vanishes too.
    seen = []
    for name in ("_shanks_mestre", "_character_sum"):
        patch_everywhere(monkeypatch, local, name, recorder(seen))
    base, other = base_curve(7), member(7, 3)
    v = check_congruence(base, other, 3)
    assert v.status is CongruenceStatus.VERIFIED
    forms = [(args[-3], args[-2], args[-1]) for args in seen]
    assert all(b % ell for _, b, ell in forms)
    A, B = local._short_form(invariants(other))
    general = {ell for a, b, ell in forms if (a, b) == (A % ell, B % ell)}
    expected = {ell for ell in direct_primes(base, other, 3, v.bound) if B % ell}
    assert general == expected
    assert min(general) < local._BSGS_MIN_ELL <= max(general)
    assert len(forms) == len(expected)


def test_ceiling_aborts_at_the_same_prime_with_warm_tables(monkeypatch):
    # 13 is multiplicative for 897d, so ceiling 12 stops at a prime bad for one curve.
    # The warm run reuses the CurveData objects that the full scan filled.
    for ceiling, ell in ((5, 7), (12, 13)):
        data = CurveData(E69), CurveData(E897)
        monkeypatch.setenv("PARITYKIT_MAX_ELL", str(ceiling))
        cold = check_congruence(*data, 5)
        monkeypatch.delenv("PARITYKIT_MAX_ELL")
        assert check_congruence(*data, 5).status is CongruenceStatus.VERIFIED
        assert all(len(d.traces) > 800 for d in data)
        monkeypatch.setenv("PARITYKIT_MAX_ELL", str(ceiling))
        warm = check_congruence(*data, 5)
        assert warm == cold
        assert warm.status is CongruenceStatus.INCONCLUSIVE
        assert warm.caveat.endswith(
            "Scan aborted at %d: prime too large for point counting: %d exceeds the "
            "ceiling %d; raise PARITYKIT_MAX_ELL." % (ell, ell, ceiling)
        )


def test_prime_bad_for_the_other_curve_reuses_the_stored_trace(monkeypatch):
    # 13 is multiplicative for 897d and good for 69a; the trace of 69a counted
    # there is stored once and read back when 13 is good for both curves.
    e69 = CurveData(E69)
    check_congruence(e69, E897, 5)
    counted = []
    patch_everywhere(monkeypatch, local, "_count_good", recorder(counted))
    assert check_congruence(e69, E69_NONMINIMAL, 5).status is CongruenceStatus.VERIFIED
    at_13 = [(m, inv) for ell, m, inv in counted if ell == 13]
    assert at_13 == [(E69_NONMINIMAL, invariants(E69_NONMINIMAL))]


def retained_by(call):
    """(result, bytes still allocated after call returns)."""
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        gc.collect()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_scan_memory_stays_bounded():
    v, retained = retained_by(lambda: check_congruence(E69, E897, 5))
    assert v.status is CongruenceStatus.VERIFIED
    assert retained < 64 * 1024, retained
    # Passed in, the CurveData objects keep one trace per good prime scanned
    # and bad-prime data only at primes dividing a discriminant: {3, 23} for
    # 69a and {3, 13, 23} for 897d.
    data = CurveData(E69), CurveData(E897)
    v, retained = retained_by(lambda: check_congruence(*data, 5))
    scanned = [ell for ell in arith._PRIMES if ell <= v.bound and ell != 5]
    assert [sorted(d.traces) for d in data] == [[ell for ell in scanned if ell not in d.bad] for d in data]
    assert [sorted(d.bad) for d in data] == [[3, 23], [3, 13, 23]]
    assert retained < 64 * 1024 * len(data), retained
