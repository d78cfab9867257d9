"""paritykit: congruence and rank-parity toolkit for elliptic curves over Q.

Given two curves that are congruent mod an odd prime p and supersingular at p,
the package verifies the congruence numerically up to a Sturm bound, finds the
primes where the conductor of the shared mod-p representation drops, computes
the local parity sets S1 and S2, and applies the parity relation
r1 + |S1| = r2 + |S2| (mod 2) to check known ranks or deduce an unknown one.
"""

from .arith import factor, is_prime, jacobi, sieve_primes, valuation
from .congruence import CongruenceStatus, CongruenceVerdict, check_congruence, sturm_bound
from .errors import ComputationLimitError
from .family import base_curve, member
from .io import CurveRecord, emit_curve_file, emit_report, parse_curve_file, report_object
from .local import (
    CurveData,
    EulerPoly,
    LocalData,
    ReductionType,
    bad_reduction_data,
    conductor,
    count_points,
    euler_poly,
    is_supersingular,
    tate_local,
)
from .parity import (
    DeducedRank,
    DropEvidence,
    Hypothesis,
    ParityReport,
    SigmaData,
    TauRecord,
    compute_sigma0,
    deduce_rank,
    parity_relation,
    s_set,
    tau,
)
from .weierstrass import (
    CurveModel,
    Invariants,
    Isomorphism,
    discriminant,
    invariants,
    minimal_model,
    minimal_model_at,
    parse_curve,
    transform,
)

__version__ = "0.1.0"

__all__ = [
    "CongruenceStatus",
    "CongruenceVerdict",
    "ComputationLimitError",
    "CurveData",
    "CurveModel",
    "CurveRecord",
    "DeducedRank",
    "DropEvidence",
    "EulerPoly",
    "Hypothesis",
    "Invariants",
    "Isomorphism",
    "LocalData",
    "ParityReport",
    "ReductionType",
    "SigmaData",
    "TauRecord",
    "bad_reduction_data",
    "base_curve",
    "check_congruence",
    "compute_sigma0",
    "conductor",
    "count_points",
    "deduce_rank",
    "discriminant",
    "emit_curve_file",
    "emit_report",
    "euler_poly",
    "factor",
    "invariants",
    "is_prime",
    "is_supersingular",
    "jacobi",
    "member",
    "minimal_model",
    "minimal_model_at",
    "parse_curve",
    "parse_curve_file",
    "parity_relation",
    "report_object",
    "s_set",
    "sieve_primes",
    "sturm_bound",
    "tate_local",
    "tau",
    "transform",
    "valuation",
    "__version__",
]
