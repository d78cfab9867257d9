"""The Sturm scan's helper process: same results as the serial walk, nothing left behind.

check_congruence may fork one child that counts the upper part of a long scan
while the parent walks the lower part.  congruence._helper_split decides
where (or whether) to split; the tests replace it to force either path.
"""

import os
import signal
import threading
import warnings
from bisect import bisect_left

import pytest

import paritykit.congruence
from paritykit import local
from paritykit.arith import _PRIMES
from paritykit.cli import run
from paritykit.congruence import CongruenceStatus, check_congruence
from paritykit.family import base_curve, member
from paritykit.local import CurveData
from paritykit.weierstrass import CurveModel

E69 = CurveModel(1, 0, 1, -1, -1)
E897 = CurveModel(1, 0, 1, 130884, -59725523)
README = ["--e1", "[1,0,1,-1,-1]", "--e2", "[1,0,1,130884,-59725523]", "-p", "5"]
# 69a/897d at p = 5 scans to 6720; a forced split hands the helper the primes from 3001.
SPLIT_ELL = 3001
EARLY = 1009  # after the fork, before the split
LATE = 5003  # in the helper's range


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


def serial(monkeypatch):
    monkeypatch.setattr(paritykit.congruence, "_helper_split", lambda *args: None)


def split_at(monkeypatch, ell):
    monkeypatch.setattr(paritykit.congruence, "_helper_split",
                        lambda e1, e2, p, primes, start, ceiling: bisect_left(primes, ell))


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


@pytest.mark.parametrize("at, action, ceiling, status", [
    (None, None, None, CongruenceStatus.VERIFIED),
    (EARLY, wrong_trace_of_897, None, CongruenceStatus.FAILED),
    (LATE, wrong_trace_of_897, None, CongruenceStatus.FAILED),
    (None, None, 4000, CongruenceStatus.INCONCLUSIVE),
    (None, None, 1000, CongruenceStatus.INCONCLUSIVE),
], ids=["verified", "early-failed", "late-failed", "ceiling-in-helper-range", "ceiling-below-split"])
def test_forced_split_equals_the_serial_scan(at, action, ceiling, status, forks, monkeypatch):
    counted = patch_kernel(monkeypatch, at, action or (lambda ell, m, n: n))
    if ceiling is not None:
        monkeypatch.setenv("PARITYKIT_MAX_ELL", str(ceiling))
    fd = lowest_free_fd()
    split_at(monkeypatch, SPLIT_ELL)
    data = CurveData(E69), CurveData(E897)
    parallel = check_congruence(*data, 5)
    assert len(forks) == 1
    assert_nothing_left(fd)
    # the parent counts nothing from the split up: the helper sent it all
    assert max(counted) < SPLIT_ELL
    serial(monkeypatch)
    alone = CurveData(E69), CurveData(E897)
    assert check_congruence(*alone, 5) == parallel
    assert parallel.status is status
    if at is not None:
        assert parallel.witness[0] == at
    assert [d.traces for d in data] == [d.traces for d in alone]


def test_kernel_error_in_the_helper_range_is_raised_at_the_same_prime(forks, monkeypatch):
    patch_kernel(monkeypatch, LATE, kernel_error)
    fd = lowest_free_fd()
    split_at(monkeypatch, SPLIT_ELL)
    data = CurveData(E69), CurveData(E897)
    with pytest.raises(ArithmeticError) as parallel:
        check_congruence(*data, 5)
    assert len(forks) == 1
    assert_nothing_left(fd)
    serial(monkeypatch)
    alone = CurveData(E69), CurveData(E897)
    with pytest.raises(ArithmeticError) as expected:
        check_congruence(*alone, 5)
    assert str(parallel.value) == str(expected.value) == "Hasse bound violated at %d (internal error)" % LATE
    assert [d.traces for d in data] == [d.traces for d in alone]
    assert max(data[0].traces) < LATE


def test_helper_that_dies_leaves_its_primes_to_the_parent(forks, monkeypatch):
    parent = os.getpid()

    def die_in_child(ell, m, n):
        if os.getpid() != parent:
            os._exit(1)
        return n

    counted = patch_kernel(monkeypatch, LATE, die_in_child)
    fd = lowest_free_fd()
    split_at(monkeypatch, SPLIT_ELL)
    v = check_congruence(E69, E897, 5)
    assert len(forks) == 1
    assert_nothing_left(fd)
    assert max(counted) > LATE
    serial(monkeypatch)
    assert check_congruence(E69, E897, 5) == v
    assert v.status is CongruenceStatus.VERIFIED


def test_exception_in_the_parent_stops_the_helper(forks, monkeypatch):
    def interrupt(ell, m, n):
        raise KeyboardInterrupt

    patch_kernel(monkeypatch, EARLY, interrupt)
    fd = lowest_free_fd()
    split_at(monkeypatch, SPLIT_ELL)
    with pytest.raises(KeyboardInterrupt):
        check_congruence(E69, E897, 5)
    assert len(forks) == 1
    assert_nothing_left(fd)


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
