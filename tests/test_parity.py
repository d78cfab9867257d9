"""sigma0 computation, tau parities, S-sets, the rank relation, deductions."""

import math
import random

import pytest

from paritykit.congruence import check_congruence
from paritykit.local import LocalData, ReductionType, tate_local
from paritykit.parity import (
    compute_sigma0,
    deduce_rank,
    parity_relation,
    s_set,
    tau,
)
from paritykit.family import member
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
    assert not ev.undetermined
    assert data.evidence[3].in_sigma0 is False
    assert data.evidence[23].in_sigma0 is False


def test_sigma_pair_mod_3():
    data = compute_sigma0(E32, E207, 3)
    assert data.sigma == (2, 3, 37, 83, 4035637)
    assert data.sigma0 == (37, 83, 4035637)
    # both curves additive at 2 with p = 3: membership flagged undetermined
    ev2 = data.evidence[2]
    assert ev2.in_sigma0 is False
    assert ev2.undetermined is True
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
    assert any("only one" in w for w in ev.warnings)


def test_s_sets_pair_mod_5():
    sigma0 = compute_sigma0(E69, E897, 5).sigma0
    assert s_set(E69, sigma0, 5) == frozenset({13})
    assert s_set(E897, sigma0, 5) == frozenset()


def test_s_sets_pair_mod_3():
    sigma0 = compute_sigma0(E32, E207, 3).sigma0
    assert s_set(E32, sigma0, 3) == frozenset({83})
    assert s_set(E207, sigma0, 3) == frozenset()


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
