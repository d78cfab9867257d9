"""Conductor-drop sets, local multiplicity parities, and the rank-parity relation.

For a pair of curves congruent mod p and supersingular at p, the primes where
the conductor of the mod-p representation drops below the conductor of one of
the curves form the set sigma0.  At each such prime the parity of the local
correction delta(E, ell) equals the multiplicity of X = 1/ell as a root of the
Euler factor reduced mod p; the primes with odd parity form S_1 and S_2, and
the ranks satisfy r_1 + |S_1| = r_2 + |S_2| (mod 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .congruence import CongruenceStatus, CongruenceVerdict
from .local import CurveData, LocalData, ReductionType, euler_poly, is_supersingular
from .weierstrass import CurveModel


@dataclass(frozen=True)
class DropEvidence:
    ell: int
    e1_reasons: tuple[str, ...]
    e2_reasons: tuple[str, ...]
    undetermined: bool
    warnings: tuple[str, ...]

    @property
    def in_sigma0(self) -> bool:
        return bool(self.e1_reasons or self.e2_reasons)


@dataclass(frozen=True)
class SigmaData:
    p: int
    sigma: tuple[int, ...]
    sigma0: tuple[int, ...]
    evidence: dict[int, DropEvidence]


@dataclass(frozen=True)
class TauRecord:
    ell: int
    tau: int
    delta_parity: int
    matched_case: str


@dataclass(frozen=True)
class Hypothesis:
    id: str
    detail: str


@dataclass(frozen=True)
class DeducedRank:
    parity: str
    exact: int | None
    candidates: tuple[int, ...] | None
    curve: str | None = None


@dataclass(kw_only=True)
class ParityReport:
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
_RULE_OTHER_GOOD = "bad here but good for the other curve: the congruence forces the drop"


def check_supersingular_pair(c1: CurveModel | CurveData, c2: CurveModel | CurveData, p: int) -> None:
    """ValueError unless both curves are good and supersingular at p."""
    for name, c in (("E1", c1), ("E2", c2)):
        if not is_supersingular(c, p):
            raise ValueError("%s is not supersingular at %d (a_p must be 0)" % (name, p))


def compute_sigma0(c1: CurveModel | CurveData, c2: CurveModel | CurveData, p: int) -> SigmaData:
    """sigma = {p} + bad primes of either curve; sigma0 = conductor-drop primes."""
    e1, e2 = CurveData.of(c1), CurveData.of(c2)
    check_supersingular_pair(e1, e2, p)
    sigma = tuple(sorted({*e1.bad, *e2.bad, p}))
    evidence: dict[int, DropEvidence] = {}
    sigma0 = []
    for ell in sigma:
        if ell == p:
            continue
        d1, d2 = e1.local(ell), e2.local(ell)
        reasons: tuple[list[str], list[str]] = ([], [])
        warnings: list[str] = []
        undetermined = False
        for i, (mine, other) in enumerate(((d1, d2), (d2, d1))):
            if mine.red_type is ReductionType.GOOD:
                continue
            if mine.unramified_mod(p):
                reasons[i].append(_RULE_TATE)
            if other.red_type is ReductionType.GOOD:
                reasons[i].append(_RULE_OTHER_GOOD)
                if mine.red_type is ReductionType.ADDITIVE and p >= 5:
                    warnings.append(
                        "additive for E%d yet good for E%d: no mod-%d isomorphism "
                        "can exist, so this drop rests on a vacuous hypothesis"
                        % (i + 1, 2 - i, p)
                    )
            if (
                mine.red_type is ReductionType.ADDITIVE
                and p == 3
                and other.red_type is not ReductionType.GOOD
            ):
                # The mod-3 inertia image at an additive prime can have order
                # divisible by 3, so a conductor drop cannot be ruled in or out
                # from reduction data alone.
                undetermined = True
        if d1.red_type.is_multiplicative and d2.red_type.is_multiplicative:
            dropped = [bool(r) for r in reasons]
            if dropped[0] != dropped[1]:
                warnings.append(
                    "multiplicative for both curves but the unramified criterion "
                    "holds for only one; under the congruence the reduced "
                    "conductors should agree"
                )
        ev = DropEvidence(ell, tuple(reasons[0]), tuple(reasons[1]), undetermined, tuple(warnings))
        evidence[ell] = ev
        if ev.in_sigma0:
            sigma0.append(ell)
    return SigmaData(p, sigma, tuple(sigma0), evidence)


def _root_multiplicity(coeffs: tuple[int, ...], x0: int, p: int) -> int:
    # Multiplicity of x0 as a root of the polynomial with ascending coeffs, mod p.
    cs = [c % p for c in reversed(coeffs)]
    mult = 0
    while len(cs) > 1 or (cs and cs[0] != 0):
        value = 0
        for c in cs:
            value = (value * x0 + c) % p
        if value != 0:
            break
        quotient = []
        acc = 0
        for c in cs[:-1]:
            acc = (acc * x0 + c) % p
            quotient.append(acc)
        cs = quotient
        mult += 1
    return mult


def tau(d: LocalData, p: int) -> TauRecord:
    """Multiplicity of X = 1/ell as a root of the Euler factor reduced mod p."""
    if d.ell == p:
        raise ValueError("tau is undefined at ell = p")
    x0 = pow(d.ell, -1, p)
    t = _root_multiplicity(euler_poly(d).coeffs, x0, p)
    return TauRecord(d.ell, t, t % 2, _describe_case(d, p, t))


def _describe_case(d: LocalData, p: int, t: int) -> str:
    ell = d.ell
    if d.red_type is ReductionType.ADDITIVE:
        return "additive: Euler factor 1, no root"
    if d.red_type is ReductionType.GOOD:
        if t == 1:
            return "good with ell+1 = a_ell and ell != 1 (mod %d)" % p
        if t == 2:
            return "good with ell = 1 and a_ell = 2 (mod %d): double root" % p
        return "good, 1/ell is not a root mod %d" % p
    sign = "1" if d.red_type is ReductionType.SPLIT_MULTIPLICATIVE else "-1"
    kind = "split" if d.red_type is ReductionType.SPLIT_MULTIPLICATIVE else "nonsplit"
    if t == 1:
        return "%s multiplicative with ell = %s (mod %d)" % (kind, sign, p)
    return "%s multiplicative, 1/ell is not a root mod %d" % (kind, p)


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
