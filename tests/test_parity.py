"""sigma0 computation, tau parities, S-sets, the rank relation, deductions."""

import math
import random

import pytest

from paritykit.congruence import check_congruence
from paritykit.local import CurveData, LocalData, ReductionType, euler_poly, is_supersingular, tate_local
from paritykit.parity import (
    compute_sigma0,
    deduce_rank,
    parity_relation,
    s_set,
    tau,
)
from paritykit.family import base_curve, member
from paritykit.weierstrass import CurveModel

E14 = CurveModel(1, 0, 1, 4, -6)
E27 = CurveModel(0, 0, 1, 0, -7)
E32 = CurveModel(0, 0, 0, -1, 0)
E69 = CurveModel(1, 0, 1, -1, -1)
E897 = CurveModel(1, 0, 1, 130884, -59725523)
E207 = member(1, 207)


def good_local(ell, a):
    return LocalData(ell, ReductionType.GOOD, 0, 0, a, "I0")


def mult_local(ell, split):
    t = ReductionType.SPLIT_MULTIPLICATIVE if split else ReductionType.NONSPLIT_MULTIPLICATIVE
    return LocalData(ell, t, 1, 1, 1 if split else -1, "I1")


def additive_local(ell):
    return LocalData(ell, ReductionType.ADDITIVE, 2, 2, 0, "II")


def oracle_tau(d, p):
    """Closed-form case split, independent of the synthetic-division code."""
    ell = d.ell
    if d.red_type is ReductionType.ADDITIVE:
        return 0
    if d.red_type is ReductionType.GOOD:
        if (d.trace - (ell + 1)) % p != 0:
            return 0
        if ell % p == 1 and d.trace % p == 2:
            return 2
        return 1
    want = 1 if d.red_type is ReductionType.SPLIT_MULTIPLICATIVE else -1
    return 1 if (ell - want) % p == 0 else 0


def small_primes(limit):
    return [n for n in range(2, limit) if all(n % d for d in range(2, n))]


def test_tau_exhaustive_against_closed_form():
    for p in (3, 5, 7, 11, 13):
        for ell in small_primes(60):
            if ell == p:
                continue
            hasse = int(2 * math.isqrt(ell) + 1)
            for a in range(-hasse, hasse + 1):
                rec = tau(good_local(ell, a), p)
                assert rec.tau == oracle_tau(good_local(ell, a), p), (p, ell, a)
                assert rec.delta_parity == rec.tau % 2
            for split in (True, False):
                d = mult_local(ell, split)
                assert tau(d, p).tau == oracle_tau(d, p), (p, ell, split)
            assert tau(additive_local(ell), p).tau == 0


def root_multiplicity(coeffs, x0, p):
    """Multiplicity of x0 as a root mod p of the polynomial with ascending coeffs.

    Divides by X - x0 (synthetic division) while the value at x0 is 0; shares
    nothing with tau's case split.
    """
    cs = [c % p for c in reversed(coeffs)]
    mult = 0
    while any(cs):
        value = 0
        for c in cs:
            value = (value * x0 + c) % p
        if value:
            break
        quotient, acc = [], 0
        for c in cs[:-1]:
            acc = (acc * x0 + c) % p
            quotient.append(acc)
        cs = quotient
        mult += 1
    return mult


def test_tau_is_the_root_multiplicity_in_every_residue_class():
    # Every class of ell mod p, through the first two primes in it, and every
    # class of a_ell mod p; the Euler factor is euler_poly's.
    for p in (3, 5, 7, 11, 13):
        primes = [ell for ell in small_primes(400) if ell != p]
        for r in range(1, p):
            for ell in [ell for ell in primes if ell % p == r][:2]:
                cases = [good_local(ell, a) for a in range(-p, p)]
                cases += [mult_local(ell, True), mult_local(ell, False), additive_local(ell)]
                for d in cases:
                    expected = root_multiplicity(euler_poly(d).coeffs, pow(ell, -1, p), p)
                    rec = tau(d, p)
                    assert (rec.ell, rec.tau, rec.delta_parity) == (ell, expected, expected % 2), (p, d)


def test_tau_double_root_case():
    # ell = 1 (mod p) and a = 2 (mod p): (1 - X)^2 up to the leading unit
    rec = tau(good_local(11, 2), 5)
    assert rec.tau == 2
    assert rec.delta_parity == 0
    assert "double root" in rec.matched_case


def test_tau_rejects_ell_equal_p():
    with pytest.raises(ValueError, match="undefined at ell = p"):
        tau(good_local(5, 1), 5)


def test_tau_matched_case_strings():
    assert "additive" in tau(additive_local(7), 5).matched_case
    assert "split multiplicative" in tau(mult_local(11, True), 5).matched_case
    assert "nonsplit" in tau(mult_local(13, False), 7).matched_case


def test_sigma_pair_mod_5():
    data = compute_sigma0(E69, E897, 5)
    assert data.sigma == (3, 5, 13, 23)
    assert data.sigma0 == (13,)
    ev = data.evidence[13]
    assert ev.e1_reasons == ()
    assert len(ev.e2_reasons) == 2  # unramified criterion and good-for-E1
    assert ev.warnings == ()  # E[5] is unramified at 13 for both curves
    assert data.evidence[3].in_sigma0 is False
    assert data.evidence[23].in_sigma0 is False


def test_sigma_pair_mod_3():
    data = compute_sigma0(E32, E207, 3)
    assert data.sigma == (2, 3, 37, 83, 4035637)
    assert data.sigma0 == (37, 83, 4035637)
    # both curves additive at 2 (III and III*, exponent 5) with p = 3: inertia
    # acts through no group of order 3, so E[3] has exponent 5 for both
    ev2 = data.evidence[2]
    assert ev2.in_sigma0 is False
    assert ev2.warnings == ()
    for ell in (37, 83, 4035637):
        assert data.evidence[ell].in_sigma0


def test_sigma0_support_is_the_bad_primes():
    # conductor 2^6 * 1000000007^2: the support comes from the factored
    # discriminant, so no search up to the square root of the conductor
    c = CurveModel(0, 0, 0, -1000000007, 0)
    data = compute_sigma0(c, c, 3)
    assert data.sigma == (2, 3, 1000000007)
    assert data.sigma0 == ()


def test_sigma0_requires_supersingularity():
    with pytest.raises(ValueError, match="not supersingular"):
        compute_sigma0(CurveModel(0, -1, 1, -10, -20), E897, 5)
    with pytest.raises(ValueError, match="E2 is not supersingular"):
        compute_sigma0(E69, CurveModel(0, -1, 1, -10, -20), 5)


def test_sigma0_vacuous_drop_warning():
    # 3 is additive for E27 and good for E14; with p = 5 no congruence can
    # actually hold, and the evidence says so
    data = compute_sigma0(E27, E14, 5)
    ev = data.evidence[3]
    assert ev.in_sigma0
    assert any("vacuous" in w for w in ev.warnings)


def test_sigma0_both_multiplicative_disagreement_warning():
    c1 = CurveModel(1, -1, 0, -5, -5)
    c2 = CurveModel(1, -1, 0, -5, -3)
    data = compute_sigma0(c1, c2, 3)
    ev = data.evidence[2]
    assert ev.in_sigma0  # one side satisfies the unramified criterion
    assert ev.warnings == (
        "E1[3] has conductor exponent 1 here and E2[3] has 0: no mod-3 isomorphism "
        "can exist, so a drop here rests on a vacuous hypothesis",
    )


def mod_p_exponents(e, p):
    """{ell: conductor exponent of E[p]} at the bad primes of e; absent is good."""
    return {ell: d.mod_p_cond_exp(p) for ell, d in e.bad.items() if ell != p}


def test_congruent_pairs_share_the_mod_p_conductor():
    # Isomorphic mod-p representations have the same conductor at every
    # ell != p.  The exponents come from the bad-prime data alone, so no
    # point is counted at a large good prime.
    pairs = [(E69, E897, 5)]
    for D in (1, 2, 5, 7, 35):
        base = CurveData(base_curve(D))
        for t in range(1, 31):
            e = CurveData(member(D, t))
            if is_supersingular(e, 3):
                pairs.append((base, e, 3))
    assert len(pairs) == 111
    for c1, c2, p in pairs:
        e1, e2 = CurveData.of(c1), CurveData.of(c2)
        f1, f2 = mod_p_exponents(e1, p), mod_p_exponents(e2, p)
        for ell in f1.keys() | f2.keys():
            assert f1.get(ell, 0) == f2.get(ell, 0), (e1.model, e2.model, ell)


def test_sigma0_takes_an_order_3_drop_at_an_additive_prime():
    # At 5, E1 is IV, so inertia acts through order 3 and E1[3] has exponent
    # 1, as does E2[3] at its I_n with 3 not dividing n: 5 is in sigma0 for
    # E1, and tau(E2, 5) joins S2.  Elsewhere one curve is good and the other
    # multiplicative with E[3] ramified, so no mod-3 isomorphism can exist and
    # each such prime carries the warning.
    e1, e2 = CurveModel(1, -1, 1, 95, -178), CurveModel(1, -1, 0, -140, -185)
    d1, d2 = tate_local(e1, 5), tate_local(e2, 5)
    assert (d1.kodaira, d1.cond_exp) == ("IV", 2)
    assert d2.red_type.is_multiplicative and d2.v_disc % 3
    data = compute_sigma0(e1, e2, 3)
    assert data.sigma0 == (5, 7, 31, 43, 3331, 105037)
    ev = data.evidence[5]
    assert ev.e1_reasons == (
        "additive with inertia acting through a group of order 3, which fixes a line of E[3]",
    )
    assert (ev.e2_reasons, ev.warnings) == ((), ())
    for ell in (7, 31, 43, 3331, 105037):
        (warning,) = data.evidence[ell].warnings
        assert "vacuous" in warning
    assert s_set(e2, data.sigma0, 3) == frozenset({5, 31, 3331})


def test_s_sets_pair_mod_5():
    sigma0 = compute_sigma0(E69, E897, 5).sigma0
    assert s_set(E69, sigma0, 5) == frozenset({13})
    assert s_set(E897, sigma0, 5) == frozenset()
    # parity_relation reads S1 and S2 off its own tau records.
    report = parity_relation(E69, E897, 5, assume_congruent=True)
    assert (report.s1, report.s2) == (frozenset({13}), frozenset())


def test_s_sets_pair_mod_3():
    sigma0 = compute_sigma0(E32, E207, 3).sigma0
    assert s_set(E32, sigma0, 3) == frozenset({83})
    assert s_set(E207, sigma0, 3) == frozenset()
    report = parity_relation(E32, E207, 3, assume_congruent=True)
    assert (report.s1, report.s2) == (frozenset({83}), frozenset())


def test_s_set_subset_of_sigma0():
    rng = random.Random(41)
    sigma0 = compute_sigma0(E69, E897, 5).sigma0
    assert s_set(E69, sigma0, 5) <= set(sigma0)
    assert s_set(E69, (), 5) == frozenset()


def test_deduce_rank_parity_only():
    d = deduce_rank(0, 1, 0)
    assert (d.parity, d.exact, d.candidates) == ("odd", None, None)
    assert deduce_rank(1, 1, 0).parity == "even"
    assert deduce_rank(2, 1, 1).parity == "even"
    assert deduce_rank(3, 0, 0).parity == "odd"


def test_deduce_rank_with_bound():
    d = deduce_rank(0, 1, 0, target_bound=1)
    assert (d.parity, d.exact, d.candidates) == ("odd", 1, (1,))
    d = deduce_rank(0, 0, 0, target_bound=2)
    assert (d.parity, d.exact, d.candidates) == ("even", None, (0, 2))
    d = deduce_rank(0, 0, 0, target_bound=0)
    assert d.exact == 0


def test_deduce_rank_contradiction():
    with pytest.raises(ValueError, match="parity contradicts bound"):
        deduce_rank(0, 1, 0, target_bound=0)


def test_deduce_rank_input_gates():
    with pytest.raises(ValueError):
        deduce_rank(-1, 0, 0)
    with pytest.raises(ValueError):
        deduce_rank(0, -2, 0)
    with pytest.raises(ValueError):
        deduce_rank(0, 0, 0, target_bound=-1)


def test_parity_relation_pair_mod_5():
    verdict = check_congruence(E69, E897, 5)
    report = parity_relation(E69, E897, 5, rank1=0, rank2=1, verdict=verdict)
    assert report.s1 == frozenset({13})
    assert report.s2 == frozenset()
    assert report.relation_holds is True
    assert report.ranks == (0, 1)
    ids = [h.id for h in report.hypotheses]
    assert ids == ["mu_plus_minus_zero", "congruence", "external_ranks"]


def test_parity_relation_pair_mod_3():
    verdict = check_congruence(E32, E207, 3)
    report = parity_relation(E32, E207, 3, rank1=0, verdict=verdict)
    assert report.relation_holds is None  # one rank missing
    deduced = deduce_rank(0, len(report.s1), len(report.s2), target_bound=1)
    assert (deduced.parity, deduced.exact) == ("odd", 1)


def test_parity_relation_requires_verdict_or_assumption():
    with pytest.raises(ValueError, match="congruence verdict is required"):
        parity_relation(E69, E897, 5)
    failed = check_congruence(E69, E32, 5)
    with pytest.raises(ValueError, match="not Verified"):
        parity_relation(E69, E32, 5, verdict=failed)


def test_parity_relation_assume_congruent():
    report = parity_relation(E69, E897, 5, rank1=0, rank2=1, assume_congruent=True)
    assert report.relation_holds is True
    cong = [h for h in report.hypotheses if h.id == "congruence"][0]
    assert "never verified" in cong.detail


def test_parity_relation_violation_detected():
    verdict = check_congruence(E69, E897, 5)
    report = parity_relation(E69, E897, 5, rank1=0, rank2=0, verdict=verdict)
    assert report.relation_holds is False


def test_relation_matches_manual_computation():
    verdict = check_congruence(E69, E897, 5)
    report = parity_relation(E69, E897, 5, rank1=0, rank2=1, verdict=verdict)
    lhs = (0 + len(report.s1)) % 2
    rhs = (1 + len(report.s2)) % 2
    assert report.relation_holds == (lhs == rhs)
    taus = {r.ell: r for r in report.tau1}
    assert taus[13].tau == 1
    assert taus[3].tau == 0 or taus[3].ell not in report.sigma_data.sigma0
