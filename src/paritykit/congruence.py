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
later steps of the run.  CurveData.trace serves each good trace.

A long scan uses a second core.  Once the walk has passed the primes below
local._BSGS_MIN_ELL with no mismatch, and when _may_fork allows a helper
process (os.fork exists, the process may run on two CPUs, it has no other
live thread, and it neither has nor is a helper) and the counts still to do
are worth a fork (_helper_pays), it forks one child.  The child counts both
curves' traces from the bound down, and writes each compared prime's (ell,
a1, a2) to a pipe as it goes.  The parent walks up as before and reads the
pipe, without blocking, at each compared prime; from the lowest prime the
child has sent up it stores the sent traces through CurveData.trace, so the
two sides meet wherever their speeds put them.  There the parent closes the
pipe, and the child leaves at its next write; the parent reaps it when the
scan ends, also by a mismatch or an exception.  So the verdict, the stored
traces and every error are those of the serial walk: a prime the child did
not send is counted by the parent.  While cli's all-pairs scan runs its own
helper over the pairs (see cli), neither of its processes forks this one, so
a request never has more than two processes.  That helper takes only pairs
whose walks could not fork this one: _walk_may_fork says whether a pair's
walk reaches _FORK_MIN_BOUND, the lowest bound at which _helper_pays can
hold.  There is no setting for this.

An all-pairs scan rules most pairs out before this walk.  screen_residues
gives a curve's a_ell mod p at the primes below 20 that are good for it, not
p, and within the Sturm bound of its own reduced level, which every pair with
it reaches.  Two curves whose residues differ at a prime set for both are
Failed there or earlier, so cli's scan prints that verdict without calling
check_congruence.  On seeded files of 100/200/400 scan-triage-style records,
all supersingular at 5, `python -m paritykit.cli scan -p 5` took
0.166/0.504/1.697 s of wall time without the screen and 0.090/0.163/0.407 s
with it (medians of 7, 2-vCPU VM, Python 3.11.7).  With cli's comparison of
packed residues they took 0.105/0.140/0.281 s, against 0.107/0.152/0.358 s
before (medians of 15).  None of them forks cli's pair helper: their
35/120/434 screened-in pairs fail at about 20-30 us each.
"""

from __future__ import annotations

import enum
import os
import sys
from bisect import bisect_left, bisect_right
from collections import namedtuple

from .arith import _PRIMES, factor, is_prime
from .local import _BSGS_MIN_ELL, CurveData
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

# The lowest bound at which a walk can reach _FORK_MIN_WORK: two counts at
# each prime from _BSGS_MIN_ELL up to 1511 weigh 2008.
_FORK_MIN_BOUND = 1511


class CongruenceStatus(enum.Enum):
    VERIFIED = "Verified"
    FAILED = "Failed"
    INCONCLUSIVE = "Inconclusive"

    def __str__(self) -> str:
        return self.value


class CongruenceVerdict(namedtuple("CongruenceVerdict", "status level bound checked_primes witness caveat")):
    """The outcome of check_congruence.

    status: CongruenceStatus; level, bound: int or None; checked_primes: int;
    witness: (ell, a1, a2) at the first mismatch, or None; caveat: str.
    """

    __slots__ = ()


def sturm_bound(level: int) -> int:
    """ceil(index / 6) where index = level * prod(1 + 1/ell) over ell | level.

    The level is factored again, under factor's default budget of 10 s, so
    this can raise ComputationLimitError on a level whose bound a
    CongruenceVerdict already states: check_congruence builds the level from
    each curve's bad primes and never factors it.
    """
    if level < 1:
        raise ValueError("level must be a positive integer")
    return _sturm(dict(factor(level)))[1]


def _sturm(level: dict[int, int]) -> tuple[int, int]:
    # (level, Sturm bound) of a level given as {prime: exponent}, exponents >= 1.
    n = index = 1
    for ell, e in level.items():
        n *= ell**e
        index *= ell ** (e - 1) * (ell + 1)
    return n, -(-index // 6)


def _sturm_level(e1: CurveData, e2: CurveData, p: int, reduced: bool) -> tuple[int, int]:
    """(level, Sturm bound) for lcm(N1, N2, p^2): the curves' exponents at p and {p: 2}, merged with max.

    CurveData.level_exponents(p) keeps each curve's conductor exponents once per
    p.  The reduced level takes its second dict, which drops the primes ell != p
    where E[p] is unramified (LocalData.mod_p_cond_exp is 0: multiplicative with
    p | v_ell(min disc)) and keeps everything else.
    """
    x1, x2 = e1.level_exponents(p)[reduced], e2.level_exponents(p)[reduced]
    level = {**x1, **x2}
    for ell in x1.keys() & x2.keys():
        level[ell] = max(x1[ell], x2[ell])
    level[p] = max(level.get(p, 0), 2)
    return _sturm(level)


# The primes at which screen_residues reads a_ell mod p: every prime below 20.
_SCREEN_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def screen_residues(c: CurveModel | CurveData, p: int) -> tuple[int | None, ...]:
    """a_ell mod p at each ell of _SCREEN_PRIMES that every scan with this curve compares.

    An entry is None at ell = p, at a prime bad for the curve, and above the
    curve's reach: the smaller of _BOUND_CAP and the Sturm bound of its own
    reduced level with p^2, _sturm_level(e, e, p, reduced=True).  The Sturm
    index N * prod(1 + 1/ell) does not fall from a level to a multiple of it,
    since each exponent raises it by a factor of ell and each new prime by
    ell + 1.  Every level check_congruence takes for a pair with this curve,
    full or reduced, holds this curve's reduced level exponent by exponent, so
    the pair's bound is at least the curve's; and a pair scans to that bound or
    to the cap.  So every pair reaches every prime up to the reach of each of
    its curves.  Where two curves' tuples are both set at a prime, that prime
    is good for both and not p, so check_congruence compares the two traces
    there, and returns Failed there or at an earlier prime if they differ;
    nothing before it ends the walk but a mismatch.
    """
    e = CurveData.of(c)
    bad = e.bad
    reach = min(_BOUND_CAP, _sturm_level(e, e, p, reduced=True)[1])
    return tuple(
        None if ell == p or ell in bad or ell > reach else e.trace(ell) % p for ell in _SCREEN_PRIMES
    )


# The pids of this process's live helpers, and 0 in a helper: a process that
# has or is a helper forks no other, so a request never has more than two.
_helpers: set[int] = set()


def _may_fork() -> bool:
    """Whether this process may fork a helper.

    A helper needs os.fork, a second CPU this process may run on, no other
    live thread (a forked child holds a copy of only the calling thread) and
    no helper already live in this process or this process being one.
    threading is read from sys.modules, not imported.  A thread that
    threading does not know, such as a BLAS pool that numpy starts, is not
    seen; a child runs only Python arithmetic, pipe writes and os._exit, and
    takes no lock such a thread could hold.
    """
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    threading = sys.modules.get("threading")
    return (hasattr(os, "fork") and len(cpus) >= 2 and not (threading and threading.active_count() > 1)
            and not _helpers)


def _fork(send) -> tuple[int, int] | None:
    """Fork a child that runs send(w), w the write end of a pipe, then leaves through os._exit.

    Returns the child's pid and the non-blocking read end, or None when the
    fork fails.  The child stops at the first error, the failed write to a
    pipe the parent has closed included; the parent does the rest and meets
    any error itself.  It runs no atexit handler and flushes no inherited
    buffer.  The parent reaps the child with _reap.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the parent does all the work
        os.close(r)
        os.close(w)
        return None
    if pid:
        os.close(w)
        os.set_blocking(r, False)
        _helpers.add(pid)
        return pid, r
    try:
        os.close(r)
        _helpers.add(0)
        send(w)
    finally:
        os._exit(0)


def _reap(pid: int) -> None:
    try:
        os.waitpid(pid, 0)
    finally:
        _helpers.discard(pid)


def _helper_pays(e1: CurveData, e2: CurveData, p: int, primes: list[int]) -> bool:
    """Whether a helper process may (_may_fork) and should count the scan's traces at primes.

    It must be worth its round trip: the traces not yet stored at primes,
    weighted ell^(1/4) per count, must reach _FORK_MIN_WORK.
    """
    if not _may_fork():
        return False
    bad1, bad2 = e1.bad, e2.bad
    work = sum(
        ((ell not in bad1 and ell not in e1.traces) + (ell not in bad2 and ell not in e2.traces))
        * ell**0.25
        for ell in primes
        if ell != p
    )
    return work >= _FORK_MIN_WORK


def _walk_may_fork(e1: CurveData, e2: CurveData, p: int) -> bool:
    """Whether check_congruence's walk for e1, e2 at p could fork a helper: whether it scans to _FORK_MIN_BOUND.

    The bound is the one check_congruence scans to: the full level's, else the
    reduced level's, capped at _BOUND_CAP.  Below _FORK_MIN_BOUND, _helper_pays
    is False whatever traces are stored.
    """
    bound = _sturm_level(e1, e2, p, reduced=False)[1]
    if bound > _BOUND_CAP:
        bound = _sturm_level(e1, e2, p, reduced=True)[1]
    return bound >= _FORK_MIN_BOUND


def _fork_helper(e1: CurveData, e2: CurveData, p: int, primes: list[int]) -> _Helper | None:
    """A child that counts the traces at primes, from the top down, and sends those compared.

    It writes one record of three C ints (ell, a1, a2) per compared prime, 0
    in place of the trace of a curve bad at ell.  None when the fork fails.
    """

    def send(w):
        bad1, bad2 = e1.bad, e2.bad
        record = memoryview(bytearray(12)).cast("i")
        for ell in reversed(primes):
            d1, d2 = bad1.get(ell), bad2.get(ell)
            if ell != p and not (d1 and d2):
                record[0] = ell
                record[1] = 0 if d1 else e1.trace(ell)
                record[2] = 0 if d2 else e2.trace(ell)
                os.write(w, record)

    forked = _fork(send)
    return forked and _Helper(*forked)


class _Helper:
    """The parent's end of _fork_helper: the child's pid, its pipe and the lowest prime it has sent.

    cli's all-pairs scan reads its own helper's records through a subclass
    that overrides _take.
    """

    def __init__(self, pid: int, fd: int, lowest: int = _BOUND_CAP + 1) -> None:
        self.pid, self.fd = pid, fd
        self.lowest = lowest
        self.partial = b""

    def read(self, sent: dict) -> int:
        """Add the records that have arrived to sent, without blocking.

        Returns the lowest key sent so far.  A record split across reads is
        completed by a later one.  Once stopped, reads nothing.
        """
        if self.fd is None:
            return self.lowest
        try:
            data = self.partial + os.read(self.fd, 1 << 16)
        except BlockingIOError:
            return self.lowest
        self.partial = data[self._take(data, sent) :]
        return self.lowest

    def _take(self, data: bytes, sent: dict) -> int:
        """Add the whole records that data starts with to sent, as {ell: (a1, a2)}; returns their length."""
        whole = len(data) - len(data) % 12
        values = iter(memoryview(data[:whole]).cast("i").tolist())
        for ell, a1, a2 in zip(values, values, values):
            sent[ell] = a1, a2
            self.lowest = ell
        return whole

    def stop(self) -> None:
        """Close the pipe, so that the child's next write fails and it exits; idempotent."""
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None


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
    level, bound = _sturm_level(e1, e2, p, reduced=False)
    complete = True
    if bound > _BOUND_CAP:
        level, bound = _sturm_level(e1, e2, p, reduced=True)
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
    stop = bisect_right(_PRIMES, bound if complete else _BOUND_CAP)
    start = bisect_left(_PRIMES, _BSGS_MIN_ELL)
    helper = None
    sent = {}
    try:
        for i in range(stop):
            ell = _PRIMES[i]
            if i == start and _helper_pays(e1, e2, p, upper := _PRIMES[start:stop]):
                helper = _fork_helper(e1, e2, p, upper)
            d1, d2 = bad1.get(ell), bad2.get(ell)
            if ell == p or d1 and d2:
                continue
            if helper is not None and helper.read(sent) <= ell:
                helper.stop()  # reaped at the end, so the parent walks on while the child exits
            c1, c2 = sent.get(ell, (None, None))
            a1 = None if d1 else e1.trace(ell, c1)
            a2 = None if d2 else e2.trace(ell, c2)
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
            helper.stop()
            _reap(helper.pid)
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
