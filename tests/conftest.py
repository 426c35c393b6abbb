import functools
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from golden import run
from rsa_primer import _pool, number_theory
from rsa_primer.keys import keypair_from_primes

DATA = Path(__file__).resolve().parent / "data"

# The textbook key's ciphertext of "Tue 7PM", read from the one copy: the
# demo transcript, itself a line of the golden corpus.
GOLDEN_CIPHERTEXT = next(line.split(None, 1)[1] for line
                         in (DATA / "demo_toy.txt").read_text(encoding="ascii").splitlines()
                         if line.lstrip().startswith("ciphertext "))

# gen_prime(256, Rng64(1)) and the stream's state after it.
SEED_1_PRIME_256 = (90414521795055489707071231387224378341596883258048563840435722193054557995647,
                    0x70D0E7320CB9056)


@dataclass
class CliResult:
    code: int
    out: bytes
    err: bytes

    @property
    def text(self) -> str:
        return self.out.decode("utf-8")


@pytest.fixture
def cli():
    """Run the CLI in-process with swapped standard streams."""
    return lambda args, stdin=b"": CliResult(*run(args, stdin))


@pytest.fixture
def low_digit_limit():
    """CPython's int-string limit lowered to its minimum, 640 digits, for one
    test; the widest modulus str() then writes has 2127 bits."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.fixture(scope="session")
def readme():
    """The text of README.md, whose examples and numbers the tests hold to
    the code."""
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def toy_keypair():
    """The worked-example key: p=1721, q=1801, e=1012333, d=997."""
    return keypair_from_primes(1721, 1801, 1012333, retain_provenance=True)


@pytest.fixture(scope="session")
def small_keypair():
    """The two-digit-prime key: (113, 143) public, (17, 143) private."""
    return keypair_from_primes(11, 13, 113, retain_provenance=True)


@pytest.fixture
def fresh_pool():
    """No pooled worker when the test starts, so that its patches reach the
    workers it forks, and none left when it ends."""
    _pool.stop()
    yield
    _pool.stop()


@pytest.fixture
def three_cpus(fresh_pool, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)


@pytest.fixture
def forks(three_cpus, monkeypatch):
    """The pids of the processes forked while the test runs."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_no_children(forks=()):
    """Every forked process outside the pool has been reaped, and stopping
    the pool reaps the rest."""
    pooled = {pid for pid, _, _ in _pool._workers}
    for pid in set(forks) - pooled:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    _pool.stop()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def wait_status(pid, timeout=30.0):
    """The wait status of child pid, which must end within timeout seconds."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return status
        time.sleep(0.01)
    pytest.fail(f"process {pid} still running after {timeout} s")


def rig_walk(monkeypatch, module, name, in_worker=None, in_caller=None):
    """Walk name of module, which _pool.race calls as fn(*args, k, m, lost),
    rigged: a worker runs in_worker(walk, *args, k, m, lost) in its place,
    the caller in_caller(...), where walk is the real one, and each is the
    real walk when None.  Returns the log of the caller's calls, redone
    walks and gap fills too, each as (k, m, result).  A worker forked before
    the patch would run the real walk unseen, so no worker may be pooled."""
    assert not _pool._workers, "a pooled worker would run the walk unrigged"
    walk, parent, log = getattr(module, name), os.getpid(), []

    @functools.wraps(walk)  # keeps __module__ and __name__, by which workers find it
    def rigged(*args):
        if os.getpid() != parent:
            return in_worker(walk, *args) if in_worker else walk(*args)
        result = in_caller(walk, *args) if in_caller else walk(*args)
        log.append((*args[-3:-1], result))  # (k, m, result)
        return result

    monkeypatch.setattr(module, name, rigged)
    return log


def wait_until_lost(lost):
    """Until another walk of the race has returned, 10 s at most."""
    deadline = time.monotonic() + 10
    while not lost():
        assert time.monotonic() < deadline, "no other walk of the race returned"
        time.sleep(0.001)


def walk_once_lost(walk, *args):
    """The real walk, started once another walk of its race has returned (a
    walk alone at once), so that it stops at its first poll of lost()."""
    if args[-2] > 1:
        wait_until_lost(args[-1])
    return walk(*args)


class _Entered(Exception):
    pass


def search_walks(bits):
    """How many walks gen_prime races for a bits-bit prime: _pool._slices of
    its first race's work.  That race is stopped before any walk or fork."""
    def entered(fn, args, work, valid):
        raise _Entered(_pool._slices(work))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(number_theory, "race", entered)
        with pytest.raises(_Entered) as info:
            number_theory.gen_prime(bits, number_theory.Rng64(1))
    return info.value.args[0]
