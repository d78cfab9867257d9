"""The Sturm scan's helper process: same results as the serial walk, nothing left behind.

check_congruence may fork one child that counts a long scan from the top down
while the parent walks up; from the lowest prime the child has sent, the
parent uses the child's traces.  congruence._helper_pays decides whether to
fork, and the tests replace it to force either path.  meeting_at pins where
the two sides meet with pipes the test owns, so that each case is exact.
"""

import contextlib
from array import array
import os
import signal
import threading
import warnings

import pytest

import paritykit.congruence
from paritykit import local
from paritykit.cli import run
from paritykit.congruence import CongruenceStatus, check_congruence
from paritykit.family import base_curve, member
from paritykit.local import _BSGS_MIN_ELL, CurveData
from paritykit.weierstrass import CurveModel

E69 = CurveModel(1, 0, 1, -1, -1)
E897 = CurveModel(1, 0, 1, 130884, -59725523)
README = ["--e1", "[1,0,1,-1,-1]", "--e2", "[1,0,1,130884,-59725523]", "-p", "5"]
# 69a/897d at p = 5 scans to 6720; meeting_at(MEET) has the child send the primes from 3001 up.
# The split in the tests' names is that meeting point.
MEET = 3001
BELOW_MEET = 2999
FIRST = 233  # the first prime the parent counts after the fork
EARLY = 1009  # the parent's part
LATE = 5003  # the child's part, its helper range


def family_argv(D, t):
    c1, c2 = base_curve(D), member(D, t)
    return ["congruent", "--e1", "[0,0,0,%d,%d]" % (c1.a4, c1.a6),
            "--e2", "[0,0,0,%d,%d]" % (c2.a4, c2.a6), "-p", "3", "--json"]


@pytest.fixture
def forks(monkeypatch):
    """pids this process forked; the scan sees two CPUs wherever it runs.

    A scan that waits on its helper for more than 60 s fails the test.
    """
    pids = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    def expire(signum, frame):
        raise TimeoutError("the scan waited on its helper for 60 s")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield pids
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def reaped(monkeypatch):
    """The wait status of each child this process reaps."""
    statuses = []
    real = os.waitpid

    def waitpid(pid, options):
        pid, status = real(pid, options)
        statuses.append(status)
        return pid, status

    monkeypatch.setattr(os, "waitpid", waitpid)
    return statuses


def serial(monkeypatch):
    monkeypatch.setattr(paritykit.congruence, "_helper_pays", lambda *args: False)


def forced(monkeypatch):
    monkeypatch.setattr(paritykit.congruence, "_helper_pays", lambda *args: True)


@contextlib.contextmanager
def meeting_at(monkeypatch, ell):
    """Pin the meeting point: the child sends every compared prime from ell up, and no lower one.

    The child holds before its first count below ell until the parent reaps
    it, and the parent's first count after the fork waits until the child
    holds or has exited.  Two pipes of the test carry these signals across
    the fork: the child writes a byte to ready, and hold reads end of file
    once the parent has closed its end, which a wrapped os.waitpid does.
    The pipes are closed and the patches undone on leaving.
    """
    parent = os.getpid()
    ready_r, ready_w = os.pipe()
    hold_r, hold_w = os.pipe()
    open_fds = {ready_r, ready_w, hold_r, hold_w}
    waiting = [True]

    def close(fd):
        if fd in open_fds:
            open_fds.discard(fd)
            os.close(fd)

    with monkeypatch.context() as m:
        real_count, real_waitpid = local._count_good, os.waitpid

        def count(q, model, inv):
            if os.getpid() != parent:
                if q < ell and waiting[0]:
                    waiting[0] = False
                    close(hold_w)
                    os.write(ready_w, b"!")
                    os.read(hold_r, 1)
            elif q >= _BSGS_MIN_ELL and waiting[0]:
                waiting[0] = False
                close(ready_w)
                os.read(ready_r, 1)
            return real_count(q, model, inv)

        def waitpid(pid, options):
            close(hold_w)
            return real_waitpid(pid, options)

        m.setattr(local, "_count_good", count)
        m.setattr(os, "waitpid", waitpid)
        try:
            yield
        finally:
            for fd in list(open_fds):
                close(fd)


def patch_kernel(monkeypatch, at, action):
    """Run action(ell, model, n) on each count at the prime at; its result replaces n.

    Returns the primes this process counts at (a child's counts stay in the child).
    """
    real = local._count_good
    counted = []

    def count(ell, m, inv):
        counted.append(ell)
        n = real(ell, m, inv)
        return action(ell, m, n) if ell == at else n

    monkeypatch.setattr(local, "_count_good", count)
    return counted


def lowest_free_fd():
    fd = os.open(os.devnull, os.O_RDONLY)
    os.close(fd)
    return fd


def assert_nothing_left(fd):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert lowest_free_fd() == fd


@pytest.mark.parametrize("argv", [
    family_argv(5, 6),
    family_argv(7, 3),
    family_argv(35, 3),
    ["congruent", *README],
    ["analyze", *README, "--rank1", "0", "--rank2", "1", "--json"],
], ids=["D5", "D7", "D35", "congruent-69-897", "analyze-69-897"])
def test_cli_output_equals_the_serial_scan(argv, forks, monkeypatch, capsys):
    fd = lowest_free_fd()
    code = run(argv)
    parallel = code, capsys.readouterr()
    assert len(forks) == 1
    assert_nothing_left(fd)
    serial(monkeypatch)
    code = run(argv)
    assert (code, capsys.readouterr()) == parallel
    assert len(forks) == 1


def wrong_trace_of_897(ell, m, n):
    return n + 1 if m == E897 else n


def kernel_error(ell, m, n):
    raise ArithmeticError("Hasse bound violated at %d (internal error)" % ell)


@pytest.mark.parametrize("at, action, status", [
    (None, None, CongruenceStatus.VERIFIED),
    (EARLY, wrong_trace_of_897, CongruenceStatus.FAILED),
    (LATE, wrong_trace_of_897, CongruenceStatus.FAILED),
], ids=["verified", "early-failed", "late-failed"])
def test_forced_split_equals_the_serial_scan(at, action, status, forks, monkeypatch):
    counted = patch_kernel(monkeypatch, at, action or (lambda ell, m, n: n))
    forced(monkeypatch)
    fd = lowest_free_fd()
    data = CurveData(E69), CurveData(E897)
    with meeting_at(monkeypatch, MEET):
        parallel = check_congruence(*data, 5)
    assert len(forks) == 1
    assert_nothing_left(fd)
    assert max(counted) < MEET
    serial(monkeypatch)
    alone = CurveData(E69), CurveData(E897)
    assert check_congruence(*alone, 5) == parallel
    assert parallel.status is status
    if at is not None:
        assert parallel.witness[0] == at
    assert [d.traces for d in data] == [d.traces for d in alone]


def test_parent_counts_nothing_from_the_lowest_prime_sent_up(forks, monkeypatch):
    lowest = []  # what the parent's last read of the pipe returned
    read = paritykit.congruence._Helper.read

    def record_read(self, sent):
        lowest.append(read(self, sent))
        return lowest[-1]

    monkeypatch.setattr(paritykit.congruence._Helper, "read", record_read)
    at_count = []
    real = local._count_good
    parent = os.getpid()

    def count(ell, m, inv):
        if ell >= _BSGS_MIN_ELL and os.getpid() == parent:
            at_count.append((ell, lowest[-1]))
        return real(ell, m, inv)

    monkeypatch.setattr(local, "_count_good", count)
    data = CurveData(E69), CurveData(E897)
    stopped_after = []  # the parent's highest stored trace when it closes the pipe
    stop = paritykit.congruence._Helper.stop

    def record_stop(self):
        stopped_after.append(max(data[0].traces))
        stop(self)

    monkeypatch.setattr(paritykit.congruence._Helper, "stop", record_stop)
    forced(monkeypatch)
    # pinned: the child sends 3001 and up, the parent counts up to 2999 and
    # closes the pipe there, before it takes a sent trace
    with meeting_at(monkeypatch, MEET):
        assert check_congruence(*data, 5).status is CongruenceStatus.VERIFIED
    assert min(lowest) == MEET
    assert max(ell for ell, _ in at_count) == BELOW_MEET
    assert stopped_after[0] == BELOW_MEET
    # where the speeds of the two sides decide: every count was below the lowest prime sent before it
    at_count.clear()
    fd = lowest_free_fd()
    assert check_congruence(base_curve(35), member(35, 9), 3).status is CongruenceStatus.INCONCLUSIVE
    assert len(forks) == 2
    assert_nothing_left(fd)
    assert at_count and all(ell < sent for ell, sent in at_count)


def test_kernel_error_in_the_helper_range_is_raised_at_the_same_prime(forks, monkeypatch):
    counted = patch_kernel(monkeypatch, LATE, kernel_error)
    forced(monkeypatch)
    fd = lowest_free_fd()
    data = CurveData(E69), CurveData(E897)
    with meeting_at(monkeypatch, MEET), pytest.raises(ArithmeticError) as parallel:
        check_congruence(*data, 5)
    assert len(forks) == 1
    assert_nothing_left(fd)
    # the child stopped at LATE, so the parent counted up to it
    assert max(counted) == LATE
    serial(monkeypatch)
    alone = CurveData(E69), CurveData(E897)
    with pytest.raises(ArithmeticError) as expected:
        check_congruence(*alone, 5)
    assert str(parallel.value) == str(expected.value) == "Hasse bound violated at %d (internal error)" % LATE
    assert [d.traces for d in data] == [d.traces for d in alone]
    assert max(data[0].traces) < LATE


def test_helper_that_dies_leaves_its_primes_to_the_parent(forks, reaped, monkeypatch):
    parent = os.getpid()

    def die_in_child(ell, m, n):
        if os.getpid() != parent:
            os._exit(1)
        return n

    counted = patch_kernel(monkeypatch, LATE, die_in_child)
    forced(monkeypatch)
    fd = lowest_free_fd()
    with meeting_at(monkeypatch, MEET):
        v = check_congruence(E69, E897, 5)
    assert len(forks) == 1
    assert_nothing_left(fd)
    assert [os.WEXITSTATUS(s) for s in reaped] == [1]
    assert max(counted) == LATE
    serial(monkeypatch)
    assert check_congruence(E69, E897, 5) == v
    assert v.status is CongruenceStatus.VERIFIED


def test_exception_in_the_parent_stops_the_helper(forks, monkeypatch):
    parent = os.getpid()

    def interrupt(ell, m, n):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return n

    patch_kernel(monkeypatch, EARLY, interrupt)
    forced(monkeypatch)
    fd = lowest_free_fd()
    with meeting_at(monkeypatch, MEET), pytest.raises(KeyboardInterrupt):
        check_congruence(E69, E897, 5)
    assert len(forks) == 1
    assert_nothing_left(fd)


def test_failed_just_after_the_fork_reaps_a_child_that_exited(forks, reaped, monkeypatch):
    patch_kernel(monkeypatch, FIRST, wrong_trace_of_897)
    forced(monkeypatch)
    fd = lowest_free_fd()
    assert check_congruence(E69, E897, 5).witness[0] == FIRST
    assert len(forks) == 1
    assert_nothing_left(fd)
    # closing the pipe stops the child; no signal does
    [status] = reaped
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


def test_a_record_split_across_reads_is_completed_by_the_next():
    data = array("i", [3001, 5, -7, 2999, 0, 12]).tobytes()
    r, w = os.pipe()
    try:
        os.set_blocking(r, False)
        helper = paritykit.congruence._Helper(None, r)
        sent = {}
        os.write(w, data[:17])
        assert helper.read(sent) == 3001
        assert sent == {3001: (5, -7)}
        os.write(w, data[17:])
        assert helper.read(sent) == 2999
        assert helper.read(sent) == 2999  # nothing more to read
        assert sent == {3001: (5, -7), 2999: (0, 12)}
    finally:
        os.close(r)
        os.close(w)


def test_a_long_scan_forks_once_and_a_short_one_never(forks):
    assert check_congruence(base_curve(7), member(7, 3), 3).status is CongruenceStatus.VERIFIED
    assert len(forks) == 1
    # D = 2 scans to 768: too little counting past 230 to repay a fork.
    assert check_congruence(base_curve(2), member(2, 3), 3).status is CongruenceStatus.VERIFIED
    assert len(forks) == 1


@pytest.fixture
def no_fork(monkeypatch):
    def fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def test_noncongruent_pair_stays_serial(no_fork):
    v = check_congruence(E69, CurveModel(1, 0, 1, 33, -53), 5)
    assert v.witness == (17, 4, -3)


def test_triage_scan_stays_serial(no_fork, tmp_path, capsys):
    # Short curves supersingular at 5 with coefficients near 10^5-10^6, and
    # one that is not; every pair fails at a small prime.
    path = tmp_path / "triage.curves"
    path.write_text(
        "s0 ? [0,0,0,-843820,891168] ?\n"
        "s1 ? [0,0,0,-611820,-23751] ?\n"
        "n0 ? [0,0,0,12345,67890] ?\n"
        "s2 ? [0,0,0,-229630,-183913] ?\n"
        "s3 ? [0,0,0,28945,393972] ?\n"
    )
    assert run(["scan", "--file", str(path), "-p", "5"]) == 0
    assert capsys.readouterr().err.count("congruence Failed") == 6


def test_second_live_thread_keeps_the_scan_serial(no_fork):
    release = threading.Event()
    worker = threading.Thread(target=release.wait)
    worker.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            v = check_congruence(base_curve(7), member(7, 3), 3)
    finally:
        release.set()
        worker.join()
    assert v.status is CongruenceStatus.VERIFIED


def test_one_cpu_keeps_the_scan_serial(no_fork, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert check_congruence(base_curve(7), member(7, 3), 3).status is CongruenceStatus.VERIFIED


def test_platform_without_fork_stays_serial(monkeypatch):
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert check_congruence(base_curve(7), member(7, 3), 3).status is CongruenceStatus.VERIFIED
