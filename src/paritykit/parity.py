"""Conductor-drop sets, local multiplicity parities, and the rank-parity relation.

For a pair of curves congruent mod p and supersingular at p, the primes where
the conductor of E[p] drops below the conductor of one of the curves form the
set sigma0.  LocalData.mod_p_cond_exp gives that exponent at each ell != p;
a curve bad where the other is good drops too, as the congruence leaves E[p]
unramified there, and exponents of E1[p] and E2[p] that differ carry the one
warning.  At each prime of sigma0 the parity of the local correction
delta(E, ell) equals the multiplicity of X = 1/ell as a root of the Euler
factor reduced mod p; the primes with odd parity form S_1 and S_2, and the
ranks satisfy r_1 + |S_1| = r_2 + |S_2| (mod 2).
"""

from __future__ import annotations

from typing import NamedTuple

from .congruence import CongruenceStatus, CongruenceVerdict
from .local import CurveData, LocalData, ReductionType, is_supersingular
from .weierstrass import CurveModel


class DropEvidence(NamedTuple):
    ell: int
    e1_reasons: tuple[str, ...]
    e2_reasons: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def in_sigma0(self) -> bool:
        return bool(self.e1_reasons or self.e2_reasons)


class SigmaData(NamedTuple):
    p: int
    sigma: tuple[int, ...]
    sigma0: tuple[int, ...]
    evidence: dict[int, DropEvidence]


class TauRecord(NamedTuple):
    ell: int
    tau: int
    delta_parity: int
    matched_case: str


class Hypothesis(NamedTuple):
    id: str
    detail: str


class DeducedRank(NamedTuple):
    parity: str
    exact: int | None
    candidates: tuple[int, ...] | None
    curve: str | None = None


class ParityReport(NamedTuple):
    curves: tuple[CurveModel, CurveModel]
    conductors: tuple[int, int]
    p: int
    sigma_data: SigmaData
    tau1: tuple[TauRecord, ...]
    tau2: tuple[TauRecord, ...]
    s1: frozenset[int]
    s2: frozenset[int]
    ranks: tuple[int | None, int | None]
    relation_holds: bool | None
    hypotheses: tuple[Hypothesis, ...]
    congruence: CongruenceVerdict | None
    labels: tuple[str, str] = ("E1", "E2")
    deduced: DeducedRank | None = None

    @property
    def parities(self) -> tuple[int | None, int | None]:
        """(r1 + |S1|, r2 + |S2|) mod 2, None where the rank is unknown."""
        return tuple(
            None if r is None else (r + len(s)) % 2 for r, s in zip(self.ranks, (self.s1, self.s2))
        )


_RULE_TATE = "multiplicative with p | v_ell(min disc): the mod-p representation is unramified"
_RULE_ORDER_3 = "additive with inertia acting through a group of order 3, which fixes a line of E[3]"
_RULE_OTHER_GOOD = "bad here but good for the other curve: the congruence forces the drop"


def outside_hypothesis(c: CurveModel | CurveData, p: int) -> str | None:
    """None when a_p(E) = 0, the relation's hypothesis, else why not: a_3 = +-3 is supersingular too."""
    e = CurveData.of(c)
    if is_supersingular(e, p):
        return None
    a = e.local(p).trace  # stored by is_supersingular: nothing is counted twice
    if a % p:
        return "not supersingular at %d" % p
    return "supersingular at %d, but a_%d = %d is outside the a_p = 0 hypothesis" % (p, p, a)


def check_supersingular_pair(c1: CurveModel | CurveData, c2: CurveModel | CurveData, p: int) -> None:
    """ValueError unless both curves are good at p with a_p = 0."""
    for name, e in (("E1", CurveData.of(c1)), ("E2", CurveData.of(c2))):
        why = outside_hypothesis(e, p)
        if why is not None:
            raise ValueError("%s is %s%s" % (name, why, " (a_p must be 0)" if e.local(p).trace % p else ""))


def compute_sigma0(c1: CurveModel | CurveData, c2: CurveModel | CurveData, p: int) -> SigmaData:
    """sigma = {p} + bad primes of either curve; sigma0 = conductor-drop primes."""
    e1, e2 = CurveData.of(c1), CurveData.of(c2)
    check_supersingular_pair(e1, e2, p)
    sigma = tuple(sorted({*e1.bad, *e2.bad, p}))
    evidence: dict[int, DropEvidence] = {}
    for ell in sorted({*e1.bad, *e2.bad} - {p}):
        d1, d2 = e1.local(ell), e2.local(ell)
        f1, f2 = d1.mod_p_cond_exp(p), d2.mod_p_cond_exp(p)
        reasons: tuple[list[str], list[str]] = ([], [])
        for i, (mine, other, f) in enumerate(((d1, d2, f1), (d2, d1, f2))):
            if f < mine.cond_exp:
                reasons[i].append(_RULE_TATE if mine.red_type.is_multiplicative else _RULE_ORDER_3)
            if mine.red_type is not ReductionType.GOOD and other.red_type is ReductionType.GOOD:
                reasons[i].append(_RULE_OTHER_GOOD)
        warnings = () if f1 == f2 else (
            "E1[%d] has conductor exponent %d here and E2[%d] has %d: no mod-%d isomorphism "
            "can exist, so a drop here rests on a vacuous hypothesis" % (p, f1, p, f2, p),
        )
        evidence[ell] = DropEvidence(ell, tuple(reasons[0]), tuple(reasons[1]), warnings)
    sigma0 = tuple(ell for ell, ev in evidence.items() if ev.in_sigma0)
    return SigmaData(p, sigma, sigma0, evidence)


def tau(d: LocalData, p: int) -> TauRecord:
    """Multiplicity of X = 1/ell as a root of the Euler factor reduced mod p.

    1 - a*X + ell*X^2 = (1 - X)(1 - ell*X) when a = ell + 1 (mod p), so 1/ell
    is a root iff a = ell + 1 and a double one iff also ell = 1 (mod p).
    1 -+ X has the root 1/ell iff ell = +-1 (mod p); 1 has no root.
    """
    ell = d.ell
    if ell == p:
        raise ValueError("tau is undefined at ell = p")
    if d.red_type is ReductionType.ADDITIVE:
        t, case = 0, "additive: Euler factor 1, no root"
    elif d.red_type is ReductionType.GOOD:
        if (d.trace - ell - 1) % p:
            t, case = 0, "good, 1/ell is not a root mod %d" % p
        elif ell % p == 1:
            t, case = 2, "good with ell = 1 and a_ell = 2 (mod %d): double root" % p
        else:
            t, case = 1, "good with ell+1 = a_ell and ell != 1 (mod %d)" % p
    else:
        kind = "split" if d.red_type is ReductionType.SPLIT_MULTIPLICATIVE else "nonsplit"
        if (ell - d.trace) % p:
            t, case = 0, "%s multiplicative, 1/ell is not a root mod %d" % (kind, p)
        else:
            t, case = 1, "%s multiplicative with ell = %d (mod %d)" % (kind, d.trace, p)
    return TauRecord(ell, t, t % 2, case)


def s_set(c: CurveModel | CurveData, sigma0, p: int) -> frozenset[int]:
    """Primes of sigma0 where the local multiplicity parity is odd.

    Callers are expected to pass a curve supersingular at p and a sigma0 that
    never contains p.
    """
    e = CurveData.of(c)
    return frozenset(ell for ell in sigma0 if tau(e.local(ell), p).delta_parity == 1)


def deduce_rank(known_rank: int, s1_size: int, s2_size: int, target_bound: int | None = None) -> DeducedRank:
    """Forced parity of the missing rank; exact value when the bound pins it down."""
    if known_rank < 0 or s1_size < 0 or s2_size < 0:
        raise ValueError("rank and set sizes must be non-negative")
    par = (known_rank + s1_size + s2_size) % 2
    name = "odd" if par else "even"
    if target_bound is None:
        return DeducedRank(name, None, None)
    if target_bound < 0:
        raise ValueError("target_bound must be non-negative")
    candidates = tuple(r for r in range(target_bound + 1) if r % 2 == par)
    if not candidates:
        raise ValueError("parity contradicts bound: no rank in [0, %d] is %s" % (target_bound, name))
    exact = candidates[0] if len(candidates) == 1 else None
    return DeducedRank(name, exact, candidates)


def parity_relation(
    c1: CurveModel | CurveData,
    c2: CurveModel | CurveData,
    p: int,
    rank1: int | None = None,
    rank2: int | None = None,
    verdict: CongruenceVerdict | None = None,
    assume_congruent: bool = False,
    labels: tuple[str, str] = ("E1", "E2"),
) -> ParityReport:
    """Assemble the full report: sigma data, tau records, S-sets, relation, ledger."""
    if verdict is None and not assume_congruent:
        raise ValueError(
            "a congruence verdict is required: pass check_congruence output or "
            "set assume_congruent=True"
        )
    if verdict is not None and verdict.status is not CongruenceStatus.VERIFIED and not assume_congruent:
        raise ValueError(
            "congruence verdict is %s, not Verified; set assume_congruent=True to proceed anyway"
            % verdict.status
        )
    e1, e2 = CurveData.of(c1), CurveData.of(c2)
    sigma_data = compute_sigma0(e1, e2, p)
    others = [ell for ell in sigma_data.sigma if ell != p]
    tau1 = tuple(tau(e1.local(ell), p) for ell in others)
    tau2 = tuple(tau(e2.local(ell), p) for ell in others)
    s1, s2 = s_set(e1, sigma_data.sigma0, p), s_set(e2, sigma_data.sigma0, p)
    relation_holds = None
    if rank1 is not None and rank2 is not None:
        relation_holds = (rank1 + len(s1)) % 2 == (rank2 + len(s2)) % 2
    hypotheses = [
        Hypothesis(
            "mu_plus_minus_zero",
            "The plus and minus Iwasawa mu-invariants of both curves at %d are "
            "assumed to vanish; this tool does not compute them." % p,
        )
    ]
    if verdict is not None:
        detail = "check_congruence returned %s (level %s, bound %s, %d primes compared). %s" % (
            verdict.status,
            verdict.level,
            verdict.bound,
            verdict.checked_primes,
            verdict.caveat,
        )
        if assume_congruent and verdict.status is not CongruenceStatus.VERIFIED:
            detail += " Proceeding anyway because the caller asserted the congruence."
        hypotheses.append(Hypothesis("congruence", detail))
    else:
        hypotheses.append(
            Hypothesis(
                "congruence",
                "Asserted by the caller (assume_congruent); never verified numerically.",
            )
        )
    if rank1 is not None or rank2 is not None:
        hypotheses.append(
            Hypothesis("external_ranks", "Rank values are supplied by the caller, not computed.")
        )
    return ParityReport(
        curves=(e1.model, e2.model),
        conductors=(e1.conductor, e2.conductor),
        p=p,
        sigma_data=sigma_data,
        tau1=tau1,
        tau2=tau2,
        s1=s1,
        s2=s2,
        ranks=(rank1, rank2),
        relation_holds=relation_holds,
        hypotheses=tuple(hypotheses),
        congruence=verdict,
        labels=labels,
    )
