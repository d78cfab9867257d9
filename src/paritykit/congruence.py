"""Trace-congruence verification between two curves modulo an odd prime.

Two curves whose mod-p representations are isomorphic have congruent traces of
Frobenius away from bad primes.  The converse direction is certified up to a
Sturm bound: weight-2 forms on Gamma_0(L) that agree at every prime up to the
bound agree everywhere.  A Verified result therefore certifies congruence of
the semisimplified representations; irreducibility is not checked here.

The scan walks arith._PRIMES and branches only on each curve's reduction
type at ell, read off its bad-prime data: ell = p and primes bad for both
curves are skipped; at a prime good for both the traces are compared; at a
prime bad for one curve the good trace is compared with +-(ell + 1) if it is
multiplicative and with 0 if additive, where E[p] is ramified for every odd p
(LocalData.mod_p_cond_exp) and a clean scan ends Inconclusive.  Inertia of
order 3 is unipotent on E[3] and leaves the semisimplified trace unknown, so
such a prime is not compared.
Each curve is read through a local.CurveData, built here for a bare model; a
caller that passes its own keeps the bad primes and every trace counted for
later steps of the run.  CurveData.trace serves each good trace and checks the
counting ceiling, read once per call, even when the trace is stored.

A long scan uses a second core.  Once the walk has passed the primes below
local._BSGS_MIN_ELL with no mismatch, and when os.fork exists, the process may
run on two CPUs, it has no other live thread and the counts still to do are
worth a fork (_helper_split), it forks one child.  The child counts both
curves' traces from a split prime up to the bound or the ceiling and sends
them back over a pipe; the split halves the counting, weighted ell^(1/4) per
count.  The parent walks the primes below the split meanwhile, then reads the
child's counts and walks on in order, storing each through CurveData.trace as
it reaches it.  So the verdict, the stored traces and every error are those
of the serial walk: a prime the child did not send is counted by the parent,
and a mismatch, abort or exception before the split kills and reaps the
child.  There is no setting for this.
"""

from __future__ import annotations

import enum
import marshal
import os
import sys
from bisect import bisect_left, bisect_right
from math import prod
from typing import NamedTuple

from .arith import _PRIMES, factor, is_prime
from .errors import ComputationLimitError
from .local import _BSGS_MIN_ELL, CurveData, max_counting_prime
from .weierstrass import CurveModel

# A full scan costs roughly the sum of all primes below the bound in counting
# work, so bounds past a few tens of thousands stop being interactive.  The
# scan walks arith._PRIMES, so the cap must stay within arith._TRIAL_LIMIT.
_BOUND_CAP = 20000

# A helper process costs a fork, a pipe and a reap: 2.4 ms, the median of 30
# empty round trips after import paritykit.cli on a 2-vCPU VM.  Shanks-Mestre
# takes about 8 us * ell^(1/4) per count there, and a j = 1728 curve almost
# nothing, so this weight is 8-16 ms of counting: the family pair at D = 2
# (weight 793) ran slower forked, D = 5 (4425) faster.
_FORK_MIN_WORK = 2000.0
# Share of that weight, the top of the range, that the helper counts.
_HELPER_SHARE = 0.5


class CongruenceStatus(enum.Enum):
    VERIFIED = "Verified"
    FAILED = "Failed"
    INCONCLUSIVE = "Inconclusive"

    def __str__(self) -> str:
        return self.value


class CongruenceVerdict(NamedTuple):
    status: CongruenceStatus
    level: int | None
    bound: int | None
    checked_primes: int
    witness: tuple[int, int, int] | None
    caveat: str


def sturm_bound(level: int) -> int:
    """ceil(index / 6) where index = level * prod(1 + 1/ell) over ell | level."""
    if level < 1:
        raise ValueError("level must be a positive integer")
    return _sturm(dict(factor(level)))


def _sturm(level: dict[int, int]) -> int:
    # Sturm bound of a level given as {prime: exponent}, exponents >= 1.
    index = 1
    for ell, e in level.items():
        index *= ell ** (e - 1) * (ell + 1)
    return -(-index // 6)


def _sturm_level(bad1: dict, bad2: dict, p: int, reduced: bool) -> tuple[int, int]:
    """(level, Sturm bound) for lcm(N1, N2, p^2), read off the bad-prime data.

    The reduced level drops the primes ell != p where E[p] is unramified
    (LocalData.mod_p_cond_exp is 0: multiplicative with p | v_ell(min disc))
    and keeps everything else.
    """
    level = {p: 2}
    for d in (*bad1.values(), *bad2.values()):
        if reduced and d.ell != p and d.mod_p_cond_exp(p) == 0:
            continue
        level[d.ell] = max(level.get(d.ell, 0), d.cond_exp)
    return prod(ell**e for ell, e in level.items()), _sturm(level)


def _helper_split(
    e1: CurveData, e2: CurveData, p: int, primes: list[int], start: int, ceiling: int
) -> int | None:
    """Index into primes from which a helper process counts the scan, or None to stay serial.

    A helper needs os.fork, a second CPU this process may run on, and no
    other live thread (a forked child holds a copy of only the calling
    thread); threading is read from sys.modules, not imported.  A thread that
    threading does not know, such as a BLAS pool that numpy starts, is not
    seen; the child runs only Python arithmetic, a pipe write and os._exit,
    and takes no lock such a thread could hold.  It must also
    be worth its round trip: the traces not yet stored at primes[start:] up to
    the ceiling, weighted ell^(1/4) per count, must reach _FORK_MIN_WORK.
    """
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or len(cpus) < 2 or threading and threading.active_count() > 1:
        return None
    bad1, bad2 = e1.bad, e2.bad
    cumulative = []
    total = 0.0
    for ell in primes[start : bisect_right(primes, ceiling)]:
        n = (ell not in bad1 and ell not in e1.traces) + (ell not in bad2 and ell not in e2.traces)
        if ell != p and n:
            total += n * ell**0.25
        cumulative.append(total)
    if total < _FORK_MIN_WORK:
        return None
    return start + bisect_left(cumulative, total * (1 - _HELPER_SHARE)) + 1


def _fork_helper(e1: CurveData, e2: CurveData, p: int, primes: list[int], ceiling: int) -> _Helper | None:
    """A child that counts the traces at primes and sends {ell: (a1, a2)} for those compared.

    a1 or a2 is None where that curve is bad.  The child stops at the first
    error, the ceiling's included, and sends what it has; the parent counts
    the rest and meets the error itself.  It leaves through os._exit, so it
    runs no atexit handler and flushes no inherited buffer.  None when the
    fork fails.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the parent counts every prime
        os.close(r)
        os.close(w)
        return None
    if pid:
        os.close(w)
        return _Helper(pid, r)
    try:
        os.close(r)
        found = {}
        bad1, bad2 = e1.bad, e2.bad
        try:
            for ell in primes:
                d1, d2 = bad1.get(ell), bad2.get(ell)
                if ell != p and not (d1 and d2):
                    a1 = None if d1 else e1.trace(ell, ceiling)
                    found[ell] = (a1, None if d2 else e2.trace(ell, ceiling))
        except Exception:
            pass  # the parent counts from here and raises the same error
        data = memoryview(marshal.dumps(found))
        while data:
            data = data[os.write(w, data) :]
    finally:
        os._exit(0)


class _Helper:
    """The parent's end of _fork_helper: the child's pid and the pipe it writes to."""

    def __init__(self, pid: int, fd: int) -> None:
        self.pid, self.fd = pid, fd

    def result(self) -> dict:
        """What the child sent, read until it exits; {} if nothing readable."""
        chunks = []
        while chunk := os.read(self.fd, 1 << 16):
            chunks.append(chunk)
        self.close(kill=False)
        try:
            return marshal.loads(b"".join(chunks))
        except (EOFError, ValueError, TypeError):
            return {}

    def close(self, kill: bool = True) -> None:
        """Close the pipe and reap the child, killed first unless it is done; idempotent."""
        if self.fd is None:
            return
        fd, self.fd = self.fd, None
        os.close(fd)
        if kill:
            from signal import SIGKILL  # about 1 ms to import, so only on this path

            os.kill(self.pid, SIGKILL)
        os.waitpid(self.pid, 0)


def check_congruence(c1: CurveModel | CurveData, c2: CurveModel | CurveData, p: int) -> CongruenceVerdict:
    """Compare a_ell(E1) and a_ell(E2) mod p for all primes up to a Sturm bound.

    The bound is taken at level lcm(N1, N2, p^2) when that is small enough to
    scan; otherwise at the smaller level obtained by discarding multiplicative
    primes whose mod-p representation is unramified.  Primes bad for both
    curves and ell = p are skipped.
    """
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    e1, e2 = CurveData.of(c1), CurveData.of(c2)
    bad1, bad2 = e1.bad, e2.bad
    notes = [
        "Verified certifies congruence of semisimplified mod-%d representations "
        "up to the stated bound; primes bad for both curves and ell = %d are skipped."
        % (p, p)
    ]
    level, bound = _sturm_level(bad1, bad2, p, reduced=False)
    complete = True
    if bound > _BOUND_CAP:
        level, bound = _sturm_level(bad1, bad2, p, reduced=True)
        notes.append(
            "Bound taken at the reduced level %d (multiplicative primes with "
            "p | v_ell(min disc) discarded) because the full level gives an "
            "impractical bound." % level
        )
        if bound > _BOUND_CAP:
            # A single mismatch disproves the congruence without any Sturm
            # bound, so scan up to the cap anyway; only Verified needs the
            # full bound.
            complete = False
            notes.append(
                "Sturm bound %d exceeds the scan cap %d; scanned primes up to "
                "the cap for mismatches only." % (bound, _BOUND_CAP)
            )
    checked = 0
    structural = None
    primes = _PRIMES[: bisect_right(_PRIMES, bound if complete else _BOUND_CAP)]
    ceiling = max_counting_prime()
    start = bisect_left(primes, _BSGS_MIN_ELL)
    split = helper = None
    counted = {}
    try:
        for i, ell in enumerate(primes):
            if i == start:
                split = _helper_split(e1, e2, p, primes, start, ceiling)
                if split is not None:
                    helper = _fork_helper(e1, e2, p, primes[split:], ceiling)
            elif i == split and helper is not None:
                counted = helper.result()
            d1, d2 = bad1.get(ell), bad2.get(ell)
            if ell == p or d1 and d2:
                continue
            c1, c2 = counted.get(ell, (None, None))
            try:
                a1 = None if d1 else e1.trace(ell, ceiling, c1)
                a2 = None if d2 else e2.trace(ell, ceiling, c2)
            except ComputationLimitError as exc:
                notes.append("Scan aborted at %d: %s." % (ell, exc))
                return CongruenceVerdict(
                    CongruenceStatus.INCONCLUSIVE, level, bound, checked, None, " ".join(notes)
                )
            if d1 or d2:
                bad = d1 or d2
                if bad.red_type.is_multiplicative:
                    # Compare against the Frobenius trace of the unramified
                    # semisimplified representation at a multiplicative prime: +-(ell + 1).
                    b = bad.trace * (ell + 1)
                else:
                    structural = structural or ell
                    if bad.mod_p_cond_exp(p) < bad.cond_exp:
                        continue
                    b = 0
                a1, a2 = (b, a2) if d1 else (a1, b)
            checked += 1
            if (a1 - a2) % p != 0:
                notes.append("First mismatch at ell = %d." % ell)
                return CongruenceVerdict(
                    CongruenceStatus.FAILED, level, bound, checked, (ell, a1, a2), " ".join(notes)
                )
    finally:
        if helper is not None:
            helper.close()
    if structural is not None:
        notes.append(
            "Traces agree up to the bound, but ell = %d is additive for one "
            "curve and good for the other, which rules out an isomorphism of "
            "mod-%d representations." % (structural, p)
        )
        return CongruenceVerdict(
            CongruenceStatus.INCONCLUSIVE, level, bound, checked, None, " ".join(notes)
        )
    status = CongruenceStatus.VERIFIED if complete else CongruenceStatus.INCONCLUSIVE
    return CongruenceVerdict(status, level, bound, checked, None, " ".join(notes))
