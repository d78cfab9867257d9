"""The helper processes of a scan: same results as the serial run, nothing left behind.

check_congruence may fork one child that counts a long scan from the top down
while the parent walks up; from the lowest prime the child has sent, the
parent uses the child's traces.  congruence._helper_pays decides whether to
fork, and the tests replace it to force either path.  meeting_at pins where
the two sides meet with pipes the test owns, so that each case is exact.

cli's scan may fork one child that runs the pairs that pass the screen from
the last one down while the parent runs them up from the pair where it forked;
from the lowest pair the child has sent, the parent uses the child's results.
cli._pair_helper_pays decides before each of the parent's pairs, the tests
replace it or the clock it reads, and pairs_meet_at pins the meeting point.
"""

import contextlib
from array import array
import os
import pathlib
import random
import signal
import threading
import warnings

import pytest

import paritykit.cli
import paritykit.congruence
from paritykit import local
from paritykit.cli import run
from paritykit.congruence import CongruenceStatus, check_congruence
from paritykit.errors import ComputationLimitError
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
DATA = pathlib.Path(__file__).parent / "data"


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


def test_a_long_scan_forks_once_and_a_short_one_never(forks, family_file):
    assert check_congruence(base_curve(7), member(7, 3), 3).status is CongruenceStatus.VERIFIED
    assert len(forks) == 1
    # D = 2 scans to 768: too little counting past 230 to repay a fork.
    assert check_congruence(base_curve(2), member(2, 3), 3).status is CongruenceStatus.VERIFIED
    assert len(forks) == 1
    # 120 D = 1 pairs pass the screen, each too short for a Sturm helper; at 0.4 ms each, long enough for a pair helper
    with pytest.MonkeyPatch.context() as m:
        pairs_take(m, 0.0004)
        assert run(["scan", "--file", str(family_file), "-p", "3"]) == 0
    assert len(forks) == 2


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


def test_second_live_thread_keeps_the_scan_serial(no_fork, family_file):
    release = threading.Event()
    worker = threading.Thread(target=release.wait)
    worker.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            v = check_congruence(base_curve(7), member(7, 3), 3)
            code = run(["scan", "--file", str(family_file), "-p", "3"])
    finally:
        release.set()
        worker.join()
    assert v.status is CongruenceStatus.VERIFIED
    assert code == 0


def test_one_cpu_keeps_the_scan_serial(no_fork, monkeypatch, family_file):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert check_congruence(base_curve(7), member(7, 3), 3).status is CongruenceStatus.VERIFIED
    assert run(["scan", "--file", str(family_file), "-p", "3"]) == 0


def test_platform_without_fork_stays_serial(monkeypatch, family_file):
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert check_congruence(base_curve(7), member(7, 3), 3).status is CongruenceStatus.VERIFIED
    assert run(["scan", "--file", str(family_file), "-p", "3"]) == 0


# The scan's pair helper.


def scan_family_records(count, seed):
    """count records as scan-family writes its file, shuffled.

    32a with rank 0, then member(1, t) for t = 3, 6, 9, ... without 30.
    """
    ts = [t for t in range(3, 3 * count + 3, 3) if t != 30][: count - 1]
    records = ["b1 ? %s 0" % (base_curve(1),)] + ["m%d ? %s ?" % (t, member(1, t)) for t in ts]
    random.Random(seed).shuffle(records)
    return records


@pytest.fixture(scope="module")
def family_file(tmp_path_factory):
    """16 records; at p = 3 all 120 pairs pass the screen and are Verified."""
    path = tmp_path_factory.mktemp("scans") / "family.curves"
    path.write_text("\n".join(scan_family_records(16, 26)) + "\n")
    return path


@pytest.fixture(scope="module")
def mixed_file(tmp_path_factory):
    """family_file's records among triage_p5.curves': at p = 3, "skipping" and Failed lines among the reports."""
    lines = [line for line in (DATA / "triage_p5.curves").read_text().splitlines() if line[:1] not in ("", "#")]
    lines += scan_family_records(16, 26)
    random.Random(26).shuffle(lines)
    path = tmp_path_factory.mktemp("scans") / "mixed.curves"
    path.write_text("\n".join(lines) + "\n")
    return path


def pair_helper(monkeypatch, on):
    """Force the pair helper before the first pair, or never."""
    monkeypatch.setattr(paritykit.cli, "_pair_helper_pays", lambda pairs, k: on)


def pairs_take(monkeypatch, seconds):
    """Make each pair the parent runs take seconds on the clock the pair helper's gate reads."""
    now = [0.0]

    def clock():
        now[0] += seconds  # _PairRun reads it before and after each pair, and at nothing else
        return now[0]

    monkeypatch.setattr(paritykit.cli, "perf_counter", clock)


def forked_at(monkeypatch):
    """The index of the first pair of each pair helper forked, and the number of pairs."""
    at = []
    real = paritykit.cli._fork_pairs

    def fork_pairs(checks, k, *args):
        at.append((k, len(checks)))
        return real(checks, k, *args)

    monkeypatch.setattr(paritykit.cli, "_fork_pairs", fork_pairs)
    return at


@contextlib.contextmanager
def pairs_meet_at(monkeypatch, share):
    """Pin the meeting point: the child sends its first share pairs, the last ones, and no other.

    The child holds before its next pair until it is ended or the block is
    left, and the parent's first pair waits until the child holds or has
    exited.  The child writes its pairs before the parent reads any, so they
    must fit in the pipe's buffer (64 KiB on Linux).  Yields the labels of
    the pairs the parent runs.  The pipes are closed and the patch undone on
    leaving.
    """
    parent = os.getpid()
    ready_r, ready_w = os.pipe()
    hold_r, hold_w = os.pipe()
    open_fds = {ready_r, ready_w, hold_r, hold_w}
    sent = [0]
    waiting = [True]
    ran = []

    def close(fd):
        if fd in open_fds:
            open_fds.discard(fd)
            os.close(fd)

    with monkeypatch.context() as m:
        real = paritykit.cli._check_pair

        def check_pair(a, b, *args):
            if os.getpid() != parent:
                if sent[0] == share:
                    close(hold_w)
                    os.write(ready_w, b"!")
                    os.read(hold_r, 1)
                sent[0] += 1
            else:
                ran.append((a.label, b.label))
                if waiting[0]:
                    waiting[0] = False
                    close(ready_w)
                    os.read(ready_r, 1)
            return real(a, b, *args)

        m.setattr(paritykit.cli, "_check_pair", check_pair)
        try:
            yield ran
        finally:
            for fd in list(open_fds):
                close(fd)


def scan_outputs(argv, capsys):
    code = run(argv)
    out, err = capsys.readouterr()
    return code, out, err


def screened_in(argv, monkeypatch, capsys):
    """The labels of the pairs the serial scan runs past the screen, in order."""
    labels = []
    real = paritykit.cli._check_pair
    with monkeypatch.context() as m:
        def check_pair(a, b, *args):
            labels.append((a.label, b.label))
            return real(a, b, *args)

        m.setattr(paritykit.cli, "_check_pair", check_pair)
        pair_helper(m, False)
        scan_outputs(argv, capsys)
    return labels


def lowest_sent(monkeypatch):
    """What each of the parent's reads of the pair helper's pipe returned."""
    lowest = []
    read = paritykit.cli._PairHelper.read

    def record_read(self, sent):
        lowest.append(read(self, sent))
        return lowest[-1]

    monkeypatch.setattr(paritykit.cli._PairHelper, "read", record_read)
    return lowest


DATA_SCANS = [(f.name, p, flags) for f in sorted(DATA.glob("*.curves")) for p in ("3", "5", "7")
              for flags in ([], ["--json"])]


@pytest.mark.parametrize("name, p, flags", DATA_SCANS + [("family", "3", []), ("family", "3", ["--json"])],
                         ids=lambda v: "json" if v == ["--json"] else "text" if v == [] else v)
def test_scan_output_equals_the_serial_scan(name, p, flags, forks, monkeypatch, capsys, request):
    path = request.getfixturevalue("family_file") if name == "family" else DATA / name
    argv = ["scan", "--file", str(path), "-p", p, *flags]
    pair_helper(monkeypatch, True)
    fd = lowest_free_fd()
    # the parent runs every pair but the last: no Sturm helper while the pair helper runs
    with pairs_meet_at(monkeypatch, 1) as ran:
        parallel = scan_outputs(argv, capsys)
    forked = len(forks)
    assert_nothing_left(fd)
    labels = screened_in(argv, monkeypatch, capsys)
    assert forked == (1 if labels else 0)  # the gate is asked before a pair, so with none there is no fork
    if len(labels) > 1:  # with one pair, whether it arrives before the parent's first read is a race
        assert ran == labels[:-1]
    pair_helper(monkeypatch, False)
    assert scan_outputs(argv, capsys) == parallel


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_the_parent_runs_no_pair_the_child_has_sent(flags, family_file, forks, monkeypatch, capsys):
    argv = ["scan", "--file", str(family_file), "-p", "3", *flags]
    lowest = lowest_sent(monkeypatch)
    ran = []  # the lowest pair sent when the parent ran each of its own
    real = paritykit.cli._check_pair
    parent = os.getpid()

    def check_pair(*args):
        if os.getpid() == parent:
            ran.append(lowest[-1] if lowest else 120)  # no read before the pair it forks at, of 120
        return real(*args)

    monkeypatch.setattr(paritykit.cli, "_check_pair", check_pair)
    pair_helper(monkeypatch, True)
    fd = lowest_free_fd()
    # where the speeds of the two sides decide: the parent runs pairs 0, 1, ... while each is below the lowest sent
    parallel = scan_outputs(argv, capsys)
    assert len(forks) == 1
    assert_nothing_left(fd)
    assert all(k < sent for k, sent in enumerate(ran))
    assert len(ran) >= min(lowest)
    pair_helper(monkeypatch, False)
    assert scan_outputs(argv, capsys) == parallel


def test_an_error_in_the_childs_pair_is_raised_by_the_parent_at_that_pair(mixed_file, forks, monkeypatch, capsys):
    argv = ["scan", "--file", str(mixed_file), "-p", "3"]
    labels = screened_in(argv, monkeypatch, capsys)
    at = labels[-2]  # the child's second pair
    real = paritykit.cli.parity_relation

    def limit_at(*args, **kwargs):
        if kwargs["labels"] == at:
            raise ComputationLimitError("count budget spent on %s / %s" % at)
        return real(*args, **kwargs)

    monkeypatch.setattr(paritykit.cli, "parity_relation", limit_at)
    lowest = lowest_sent(monkeypatch)
    pair_helper(monkeypatch, True)
    fd = lowest_free_fd()
    with pairs_meet_at(monkeypatch, 3):
        parallel = scan_outputs(argv, capsys)
    assert len(forks) == 1
    assert_nothing_left(fd)
    assert min(lowest) == len(labels) - 1  # the child sent its first pair and stopped at the second
    pair_helper(monkeypatch, False)
    assert scan_outputs(argv, capsys) == parallel
    code, out, err = parallel
    assert (code, out) == (3, "")
    assert err.endswith("congruence Failed\ncomputational limit: count budget spent on %s / %s\n" % at)


def test_a_pair_helper_that_dies_leaves_its_pairs_to_the_parent(mixed_file, forks, reaped, monkeypatch, capsys):
    argv = ["scan", "--file", str(mixed_file), "-p", "3", "--json"]
    at = screened_in(argv, monkeypatch, capsys)[-2]
    parent = os.getpid()
    real = paritykit.cli.parity_relation

    def die_in_child(*args, **kwargs):
        if kwargs["labels"] == at and os.getpid() != parent:
            os._exit(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(paritykit.cli, "parity_relation", die_in_child)
    pair_helper(monkeypatch, True)
    fd = lowest_free_fd()
    with pairs_meet_at(monkeypatch, 3):
        parallel = scan_outputs(argv, capsys)
    assert len(forks) == 1
    assert_nothing_left(fd)
    assert [os.WEXITSTATUS(s) for s in reaped] == [1]
    pair_helper(monkeypatch, False)
    assert scan_outputs(argv, capsys) == parallel
    assert parallel[0] == 0


def test_keyboard_interrupt_in_the_parent_stops_the_pair_helper(family_file, forks, monkeypatch, capsys):
    parent = os.getpid()
    real = paritykit.cli.parity_relation
    calls = []

    def interrupt(*args, **kwargs):
        if os.getpid() == parent:
            calls.append(kwargs["labels"])
            if len(calls) == 3:
                raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(paritykit.cli, "parity_relation", interrupt)
    pair_helper(monkeypatch, True)
    fd = lowest_free_fd()
    # the child holds in its third pair, so only ending it lets the parent leave
    with pairs_meet_at(monkeypatch, 2), pytest.raises(KeyboardInterrupt):
        run(["scan", "--file", str(family_file), "-p", "3"])
    assert len(forks) == 1
    assert_nothing_left(fd)
    capsys.readouterr()


def test_a_child_held_inside_a_pair_does_not_keep_the_parent(family_file, forks, reaped, monkeypatch, capsys):
    argv = ["scan", "--file", str(family_file), "-p", "3", "--json"]
    pair_helper(monkeypatch, True)
    fd = lowest_free_fd()
    # the child sends the last two pairs and holds in the third from last until the block is left
    with pairs_meet_at(monkeypatch, 2):
        parallel = scan_outputs(argv, capsys)
        [status] = reaped
    assert len(forks) == 1
    assert_nothing_left(fd)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    pair_helper(monkeypatch, False)
    assert scan_outputs(argv, capsys) == parallel


D7_CURVES = [base_curve(7), member(7, 3), member(7, 6)]


@pytest.fixture
def d7_file(tmp_path):
    """{base(7), member(7, 3), member(7, 6)}: three Verified pairs, each of whose Sturm scans forks on its own."""
    path = tmp_path / "d7.curves"
    path.write_text("".join("c%d ? %s ?\n" % (i, c) for i, c in enumerate(D7_CURVES)))
    return path


@contextlib.contextmanager
def forking_pids(tmp_path, monkeypatch):
    """Yields a list that, on leaving, holds the pid of every process of the request at each fork it made.

    Each process appends its pid to a file the test owns before it forks.
    """
    log = os.open(tmp_path / "forks", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    fork = os.fork
    pids = []
    try:
        with monkeypatch.context() as m:
            m.setattr(os, "fork", lambda: os.write(log, b"%d\n" % os.getpid()) and fork())
            yield pids
    finally:
        os.close(log)
    pids += [int(line) for line in (tmp_path / "forks").read_text().split()]


@pytest.mark.parametrize("forced", [True, False], ids=["pair-helper", "sturm-helpers"])
def test_a_scan_of_d7_pairs_runs_no_third_process(forced, d7_file, tmp_path, forks, reaped, monkeypatch, capsys):
    if forced:
        pair_helper(monkeypatch, True)
    at = forked_at(monkeypatch)
    fd = lowest_free_fd()
    with forking_pids(tmp_path, monkeypatch) as pids:
        assert run(["scan", "--file", str(d7_file), "-p", "3"]) == 0
    assert capsys.readouterr().out.count("congruence: Verified") == 3
    assert_nothing_left(fd)
    if forced:
        # the pair helper, and no Sturm helper in either process
        assert pids == [os.getpid()] and at == [(0, 3)]
        assert len(forks) == 1
    else:
        # no pair helper, since each pair's Sturm scan may fork: the first two fork theirs from the main
        # process, each reaped before the next pair, and the third finds every trace stored
        assert pids == [os.getpid()] * 2 and at == []
        assert len(forks) == len(reaped) == 2
    # alone, each of the three pairs forks a Sturm helper
    before = len(forks)
    for i, c in enumerate(D7_CURVES):
        for other in D7_CURVES[i + 1 :]:
            assert check_congruence(c, other, 3).status is CongruenceStatus.VERIFIED
    assert len(forks) == before + 3


def test_sturm_scans_below_the_fork_bound_never_fork(forks):
    weight, bound = 0.0, None
    for ell in paritykit.congruence._PRIMES:
        if ell >= _BSGS_MIN_ELL and bound is None:
            weight += 2 * ell**0.25
            if weight >= paritykit.congruence._FORK_MIN_WORK:
                bound = ell
    assert bound == paritykit.congruence._FORK_MIN_BOUND
    # scans to 96, 768, 2880 and 10752: only the last two may fork, and do
    for D in (1, 2, 5, 7):
        e1, e2 = CurveData.of(base_curve(D)), CurveData.of(member(D, 3))
        may = paritykit.congruence._walk_may_fork(e1, e2, 3)
        before = len(forks)
        assert check_congruence(e1, e2, 3).status is CongruenceStatus.VERIFIED
        assert may == (len(forks) > before) == (D >= 5)


@pytest.mark.parametrize("name, seconds, at", [
    # 120 pairs at 0.1 ms predict 11.8 ms after the first two, and less after each later one
    ("family", 0.0001, []),
    # 10 pairs at 1 ms predict 8 ms after the first two, the first to count
    ("family_d1.curves", 0.001, []),
    # at 3 ms they predict 24 ms, and the helper runs the eight from the third on
    ("family_d1.curves", 0.003, [(2, 10)]),
], ids=["120-cheap", "10-at-1ms", "10-at-3ms"])
def test_the_pair_helper_forks_once_the_pairs_run_predict_enough_time(
        name, seconds, at, forks, monkeypatch, capsys, request):
    path = request.getfixturevalue("family_file") if name == "family" else DATA / name
    argv = ["scan", "--file", str(path), "-p", "3", "--json"]
    with monkeypatch.context() as m:
        pair_helper(m, False)
        serial_run = scan_outputs(argv, capsys)
    forked = forked_at(monkeypatch)
    pairs_take(monkeypatch, seconds)
    fd = lowest_free_fd()
    assert scan_outputs(argv, capsys) == serial_run
    assert forked == at and len(forks) == len(at)
    assert_nothing_left(fd)


def test_the_pair_helper_starts_after_the_last_pair_whose_sturm_scan_may_fork(
        family_file, forks, monkeypatch, capsys):
    argv = ["scan", "--file", str(family_file), "-p", "3"]
    with monkeypatch.context() as m:
        pair_helper(m, False)
        serial_run = scan_outputs(argv, capsys)
    asked = []

    def walk_may_fork(e1, e2, p):
        asked.append(119 - len(asked))  # asked from the last pair down
        return asked[-1] == 40

    monkeypatch.setattr(paritykit.cli, "_walk_may_fork", walk_may_fork)
    at = forked_at(monkeypatch)
    pairs_take(monkeypatch, 0.001)
    fd = lowest_free_fd()
    assert scan_outputs(argv, capsys) == serial_run
    # asked once, after the first two pairs, down to the one that may fork; the two after it are timed again
    assert asked == list(range(119, 39, -1))
    assert at == [(43, 120)] and len(forks) == 1
    assert_nothing_left(fd)


@pytest.mark.parametrize("name", ["congruent_pair.curves", "triage_p5.curves"])
def test_a_scan_of_few_pairs_forks_no_pair_helper(name, forks, monkeypatch, capsys):
    def fork(send):
        raise AssertionError("pair helper forked")

    monkeypatch.setattr(paritykit.cli, "_fork", fork)
    assert run(["scan", "--file", str(DATA / name), "-p", "5"]) == 0
